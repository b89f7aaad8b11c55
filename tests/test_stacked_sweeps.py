"""The minor types swept as one stack against one sweep per type.

Every minor type's extended state has dimension 2n + nK, so the K types
run through one Riccati sweep and one offset sweep.  numpy's stacked @
forms one product per agent, so the stack must reproduce each type's
own one-element sweep bit for bit, name the diverging agent and node
that sweeping the types one by one, minor[0] first, names in the same
stage (Riccati or offset), and keep a consistency-map evaluation at 4
backward sweeps for any K: 2 RK4 loops and 2 step-map sweeps.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from mmlqg import lqg_single
from mmlqg.errors import IntegrationDivergedError, RiccatiBlowupError
from mmlqg.lqg_single import _solve_agent_finite
from mmlqg.mfg_model import build_extended_major, build_extended_minor
from mmlqg.mfg_solver import (
    _consistency_map,
    _initial_law,
    solve_consistency_finite,
)
from mmlqg.numerics import GridFunction, TimeGrid, rk4_backward_indexed, symmetrize
from mmlqg.toys import coupled_toy, decoupled_toy
from oracles import integrate_backward
from test_fixed_point_property import random_game


def minor_records(p):
    """The K minor records of the first consistency-map evaluation."""
    major = build_extended_major(p, _initial_law(p))
    (Pi0,), (s0,) = _solve_agent_finite([major], p.rho)
    return [build_extended_minor(p, k, major, Pi0, s0) for k in range(p.K)]


def former_riccati_sweep(ext, rho):
    """The Riccati sweep on the right-hand side rho Pi - Pi A - A'Pi +
    (Pi B + N) R^{-1} (B'Pi + N') - Q, symmetrized after every step."""
    I = np.eye(ext.dim)

    def rhs(t, P):
        A = ext.A.interp(t) - 0.5 * rho * I
        PBN = P @ ext.B + ext.N
        return PBN @ ext.Rinv @ PBN.T - P @ A - A.T @ P - ext.Q

    return integrate_backward(rhs, ext.Qhat, ext.A.grid, project=symmetrize)


def outcome(fn):
    try:
        return fn(), None
    except RiccatiBlowupError as exc:
        return None, exc


def scaled_drift(ext, factor):
    return dataclasses.replace(ext, A=GridFunction(ext.A.grid, factor * ext.A.values))


def blowup_node(ext, rho):
    with pytest.raises(RiccatiBlowupError) as exc:
        _solve_agent_finite([ext], rho)
    return exc.value.node


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "n": st.integers(1, 2),
    "m": st.integers(1, 2),
    "K": st.integers(1, 3),
    "M": st.integers(2, 20),
    "coupling": st.sampled_from([0.1, 0.5, 1.5]),
    "rho": st.sampled_from([0.0, 0.7]),
}))
def test_stacked_minor_sweeps_equal_one_by_one(g):
    # coarse grids (M = 2 steps one second at h = 0.5) let some types
    # diverge: the stack then raises what the first diverging sweep stage
    # raises one by one, all Riccati sweeps running before any offset sweep
    p = random_game(g["seed"], g["n"], g["m"], g["K"], g["M"], g["coupling"], g["rho"])
    minors, err = outcome(lambda: minor_records(p))
    assume(err is None)   # the major diverged before any minor record
    singles = [outcome(lambda: _solve_agent_finite([ext], p.rho)) for ext in minors]
    errors = [err for _, err in singles if err is not None]
    event("K = %d, %s" % (p.K, "diverged" if errors else "finite"))
    if errors:
        want = min(errors, key=lambda err: "Riccati sweep" not in str(err))
        with pytest.raises(RiccatiBlowupError) as exc:
            _solve_agent_finite(minors, p.rho)
        assert str(exc.value) == str(want) and exc.value.node == want.node
        return
    Pis, ss = _solve_agent_finite(minors, p.rho)
    assert len(Pis) == len(ss) == p.K
    for (((Pi1,), (s1,)), _), Pi, s in zip(singles, Pis, ss):
        assert Pi.grid == Pi1.grid and s.grid == s1.grid
        assert np.array_equal(Pi.values, Pi1.values)
        assert np.array_equal(s.values, s1.values)


def test_only_minor_one_diverging_is_named_at_its_own_node():
    p = coupled_toy(M=20)
    good, bad = minor_records(p)
    bad = scaled_drift(bad, 1e3)
    node = blowup_node(bad, p.rho)
    with pytest.raises(RiccatiBlowupError, match=r"minor\[1\] Riccati sweep") as exc:
        _solve_agent_finite([good, bad], p.rho)
    assert exc.value.node == node


def test_two_diverging_minors_name_minor_zero_at_its_own_node():
    # minor[1] leaves the finite range first in time, yet swept one by one
    # minor[0] would have raised before minor[1] was reached
    p = coupled_toy(M=20)
    slow, fast = (scaled_drift(ext, f) for ext, f in zip(minor_records(p), (1e3, 1e8)))
    node0, node1 = blowup_node(slow, p.rho), blowup_node(fast, p.rho)
    assert node1 > node0   # the backward sweep reaches higher nodes first
    with pytest.raises(RiccatiBlowupError, match=r"minor\[0\] Riccati sweep") as exc:
        _solve_agent_finite([slow, fast], p.rho)
    assert exc.value.node == node0


@pytest.mark.parametrize("bad_types, named", [((1,), 1), ((0, 1), 0)])
def test_diverging_minor_type_stops_the_fixed_point(bad_types, named):
    # with F0 = H0 = 0 the major never weighs xbar, so only the minors'
    # own drifts overflow
    p = decoupled_toy(M=50)
    minors = list(p.minors)
    for k in bad_types:
        minors[k] = dataclasses.replace(minors[k], Ak=np.array([[1e8, 0.0], [0.0, -0.3]]))
    bad = dataclasses.replace(p, minors=minors)
    node = blowup_node(minor_records(bad)[named], bad.rho)
    with pytest.raises(RiccatiBlowupError,
                       match=r"minor\[%d\] Riccati sweep" % named) as exc:
        solve_consistency_finite(bad)
    assert exc.value.node == node


@pytest.mark.parametrize("game", [
    lambda: coupled_toy(M=40),
    *(lambda seed=seed: random_game(seed, 2, 1, 2, 40, 0.5, 0.7) for seed in range(4)),
], ids=["coupled_toy", *("random_game%d" % seed for seed in range(4))])
def test_riccati_nodes_are_exactly_symmetric_and_match_the_former_rhs(game):
    # W + W' + M22 and every RK4 combination of symmetric arrays are
    # symmetric in floating point, with no projection after each step
    p = game()
    for ext in [build_extended_major(p, _initial_law(p)), *minor_records(p)]:
        (Pi,), _ = _solve_agent_finite([ext], p.rho)
        assert all(np.array_equal(P, P.T) for P in Pi.values), ext.what
        former = former_riccati_sweep(ext, p.rho).values
        assert np.max(np.abs(Pi.values - former)) <= 1e-12 * np.max(np.abs(former)), ext.what


@pytest.mark.parametrize("K", [1, 2, 3])
def test_one_evaluation_makes_four_backward_sweeps(monkeypatch, K):
    # two routes: the Riccati sweeps step through the RK4 loop, the offset
    # sweeps through the step maps; each is recorded by its state's shape
    sweeps = []

    def counted(sweep, state_shape):
        def wrapper(*args, **kwargs):
            sweeps.append(state_shape(args[1]))
            return sweep(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lqg_single, "rk4_backward_indexed", counted(
        lqg_single.rk4_backward_indexed, lambda terminal: terminal.shape))
    monkeypatch.setattr(lqg_single, "rk4_affine_backward", counted(
        lqg_single.rk4_affine_backward, lambda f_st: f_st.shape[1:]))
    p = random_game(7, 2, 1, K, 8, 0.5, 0.0)
    x0, evaluate = _consistency_map(p, _initial_law(p), _solve_agent_finite,
                                    p.grid.num_nodes)
    sweeps.clear()
    evaluate(x0)
    d0, d = 2 + 2 * K, 4 + 2 * K
    assert sweeps == [(1, d0, d0), (1, d0, 1), (K, d, d), (K, d, 1)]


def test_stack_of_members_reports_its_lowest_diverging_member():
    # member 1 overflows in the first step, member 0 (linear growth by
    # about 1e62 a step) only a few steps later: the sweep names member 0,
    # at member 0's own first non-finite node
    grid = TimeGrid(1.0, 10)
    linear = np.array([-1e17, 0.0])[:, None, None]
    quadratic = np.array([0.0, 1e300])[:, None, None]
    nodes = []
    for k in range(2):
        with pytest.raises(IntegrationDivergedError) as alone:
            rk4_backward_indexed(lambda q, Y: linear[k] * Y + quadratic[k] * Y * Y,
                                 np.ones((1, 1, 1)), grid)
        assert alone.value.member == 0
        nodes.append(alone.value.node)
    assert nodes[1] > nodes[0]   # a backward sweep reaches higher nodes first
    with pytest.raises(IntegrationDivergedError) as exc:
        rk4_backward_indexed(lambda q, Y: linear * Y + quadratic * Y * Y,
                             np.ones((2, 1, 1)), grid)
    assert (exc.value.member, exc.value.node) == (0, nodes[0])


def test_one_member_stack_is_the_plain_sweep():
    grid = TimeGrid(1.0, 12)
    A = np.array([[-0.3, 0.2], [0.1, -0.5]])

    def stage_rhs(q, Y):
        return A @ Y + 0.01 * q

    (stacked,) = rk4_backward_indexed(stage_rhs, np.eye(2)[None], grid)
    plain = rk4_backward_indexed(stage_rhs, np.eye(2), grid)
    assert np.array_equal(stacked.values, plain.values)
