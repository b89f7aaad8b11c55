"""Grid, interpolation, and RK4 sweep tests against closed-form solutions."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mmlqg import numerics
from mmlqg.errors import IntegrationDivergedError, OutOfRangeError, SchemaError
from mmlqg.lqg_single import FeedbackLaw
from mmlqg.mfg_solver import FixedPointConfig
from mmlqg.numerics import (
    GridFunction,
    TimeGrid,
    interp,
    psd_margin,
    rk4_backward_indexed,
    rk4_forward_indexed,
    symmetrize,
    trapezoid_weights,
)
from mmlqg.population_sim import PopulationConfig
from oracles import integrate_backward, integrate_forward


def test_grid_nodes():
    g = TimeGrid(2.0, 4)
    assert g.h == 0.5
    assert g.num_nodes == 5
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_rejects_bad_args():
    with pytest.raises(SchemaError):
        TimeGrid(0.0, 10)
    with pytest.raises(SchemaError):
        TimeGrid(-1.0, 10)
    with pytest.raises(SchemaError):
        TimeGrid(1.0, 0)


@pytest.mark.parametrize("make, name", [
    (lambda: TimeGrid(1.0, True), "num_steps"),
    (lambda: TimeGrid(True, 10), "t_end"),
    (lambda: PopulationConfig(N=True), "N"),
    (lambda: PopulationConfig(N=3, num_paths=True), "num_paths"),
    (lambda: PopulationConfig(N=3, master_seed=False), "master_seed"),
    (lambda: FixedPointConfig(max_iters=True), "max_iters"),
    (lambda: FixedPointConfig(theta=True), "theta"),
])
def test_a_bool_is_neither_a_count_nor_a_real(make, name):
    # int(True) and float(True) are 1, which would run a one-step grid
    with pytest.raises(SchemaError) as err:
        make()
    assert err.value.field == name


@pytest.mark.parametrize("make, name", [
    (lambda: PopulationConfig(N=2, record_states="no"), "record_states"),
    (lambda: PopulationConfig(N=2, record_states=None), "record_states"),
])
def test_run_config_records_check_their_field_types(make, name):
    # any truthy string recorded the states
    with pytest.raises(SchemaError) as err:
        make()
    assert err.value.field == name


def test_zero_rhs_stays_constant():
    g = TimeGrid(1.0, 50)
    I2 = np.eye(2)
    sol = integrate_backward(lambda t, Y: np.zeros_like(Y), I2, g)
    for j in range(g.num_nodes):
        assert np.array_equal(sol.values[j], I2)


def test_terminal_stored_exactly():
    g = TimeGrid(1.0, 7)
    term = np.array([[0.1234567890123456, 0.3], [0.3, -0.5]])
    sol = integrate_backward(lambda t, Y: Y @ Y - np.eye(2), term, g)
    assert np.array_equal(sol.values[-1], term)


def test_initial_stored_exactly():
    g = TimeGrid(1.0, 7)
    init = np.array([[math.pi]])
    sol = integrate_forward(lambda t, Y: -Y, init, g)
    assert np.array_equal(sol.values[0], init)


def test_scalar_riccati_tanh():
    # dP/dt = P^2 - 1, P(1) = 0  =>  P(t) = tanh(1 - t)
    g = TimeGrid(1.0, 200)
    sol = integrate_backward(lambda t, Y: Y @ Y - np.eye(1), np.zeros((1, 1)), g)
    assert abs(sol.values[0][0, 0] - math.tanh(1.0)) < 1e-8
    for j in range(0, g.num_nodes, 20):
        t = g.nodes[j]
        assert abs(sol.values[j][0, 0] - math.tanh(1.0 - t)) < 1e-8


def test_scalar_offset_exponential():
    # ds/dt = -s + 1, s(1) = 0  =>  s(t) = 1 - e^{1-t}
    g = TimeGrid(1.0, 200)
    sol = integrate_backward(
        lambda t, Y: -Y + np.ones((1, 1)), np.zeros((1, 1)), g
    )
    assert abs(sol.values[0][0, 0] - (1.0 - math.e)) < 1e-8


def test_forward_exponential():
    g = TimeGrid(1.0, 200)
    up = integrate_forward(lambda t, Y: Y, np.ones((1, 1)), g)
    dn = integrate_forward(lambda t, Y: -Y, np.ones((1, 1)), g)
    assert abs(up.values[-1][0, 0] - math.e) < 1e-8
    assert abs(dn.values[-1][0, 0] - 1.0 / math.e) < 1e-8


def test_rk4_order_ratio():
    # Halving h must shrink the tanh-oracle error by roughly 2^4.
    def err(M):
        g = TimeGrid(1.0, M)
        sol = integrate_backward(
            lambda t, Y: Y @ Y - np.eye(1), np.zeros((1, 1)), g
        )
        return abs(sol.values[0][0, 0] - math.tanh(1.0))

    ratio = err(25) / err(50)
    assert 10.0 < ratio < 24.0


def test_indexed_sweeps_match_time_sweeps():
    g = TimeGrid(1.5, 60)
    h = g.h

    def rhs(t, Y):
        return -Y + math.sin(t) * np.ones((1, 1))

    def stage_rhs(q, Y):
        return rhs(0.5 * q * h, Y)

    a = integrate_backward(rhs, np.zeros((1, 1)), g)
    b = rk4_backward_indexed(stage_rhs, np.zeros((1, 1)), g)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-14)

    c = integrate_forward(rhs, np.ones((1, 1)), g)
    d = rk4_forward_indexed(stage_rhs, np.ones((1, 1)), g)
    np.testing.assert_allclose(c.values, d.values, rtol=0, atol=1e-14)


def test_time_callback_sweep_matches_oracle():
    g = TimeGrid(1.5, 60)

    def rhs(t, Y):
        return -Y + math.sin(t) * np.ones((1, 1))

    a = numerics.integrate_backward(rhs, np.zeros((1, 1)), g)
    b = integrate_backward(rhs, np.zeros((1, 1)), g)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-14)


@pytest.mark.parametrize("sweep, node", [(rk4_backward_indexed, 9),
                                         (rk4_forward_indexed, 1)])
def test_indexed_sweep_reports_the_first_nonfinite_node(sweep, node):
    with pytest.raises(IntegrationDivergedError) as exc:
        sweep(lambda q, Y: Y @ Y * 1e200 + 1e200, np.ones((1, 1)), TimeGrid(1.0, 10))
    assert exc.value.node == node


def test_only_numerics_holds_an_rk4_stepping_loop():
    # the stage combination k1 + 2 k2 + 2 k3 + k4, however it is spelled
    stage_sum = re.compile(r"k1\S*\s*\+\s*2(\.0)?\s*\*\s*k2")
    src = Path(numerics.__file__).parent
    holders = sorted(f.name for f in src.glob("*.py")
                     if stage_sum.search(f.read_text()))
    assert holders == ["numerics.py"]


def test_project_hook_applied():
    g = TimeGrid(1.0, 10)
    # Asymmetric rhs, symmetrizing projection: every stored node symmetric.
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    sol = integrate_backward(
        lambda t, Y: A @ Y, np.eye(2), g, project=symmetrize
    )
    for j in range(g.num_nodes):
        np.testing.assert_array_equal(sol.values[j], sol.values[j].T)


def _divergence(sweep):
    """(member, node) of the sweep's IntegrationDivergedError, or None."""
    try:
        sweep()
    except IntegrationDivergedError as exc:
        return exc.member, exc.node
    return None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "members": st.integers(1, 3),
    "d": st.integers(1, 6),
    "M": st.integers(1, 300),
    "T": st.sampled_from([0.5, 1.0, 4.0]),
    "diverging": st.sampled_from([None, None, 0, 1, 2]),
    "growth": st.sampled_from([15, 18, 25, 33, 50]),
}))
@example({"seed": 1, "members": 3, "d": 6, "M": 300, "T": 1.0, "diverging": None,
          "growth": 15})
@example({"seed": 2, "members": 3, "d": 2, "M": 257, "T": 4.0, "diverging": 1,
          "growth": 18})
def test_step_map_sweep_is_the_rk4_loop(g):
    # the affine sweep's step maps against the generic RK4 loop on the same
    # random time-varying stage tables: equal up to roundoff, each member
    # as in a one-member stack bit for bit, and a diverging member named
    # at the same node.  The divergence check scales one member's L by
    # 10^growth / h, so the node values grow like 10^(growth (3 + 4 i)) in
    # the i-th step and, for the growths drawn, pass the overflow threshold
    # 1e308 with at least 15 decades on either side.  Nearer to it the
    # routes may part: the loop's last stage, about 6/h times the new node
    # value, can overflow while the value itself is finite, so under a slow
    # growth (h |L| near 10) the loop names a node one to five steps before
    # the one where the step maps, which form no such stage, leave the
    # finite range.
    rng = np.random.default_rng(g["seed"])
    L, d, M = g["members"], g["d"], g["M"]
    grid = TimeGrid(g["T"], M)
    L_st = rng.normal(size=(2 * M + 1, L, d, d))
    f_st = rng.normal(size=(2 * M + 1, L, d, 1))
    bad = g["diverging"]
    if bad is not None and bad < L:
        L_st[:, bad] *= 10.0 ** g["growth"] / grid.h
        outcomes = [_divergence(lambda: numerics.rk4_affine_backward(L_st, f_st, grid)),
                    _divergence(lambda: rk4_backward_indexed(
                        lambda q, y: L_st[q] @ y - f_st[q], np.zeros((L, d, 1)), grid))]
        event("scaled member: %s" % ("diverged" if outcomes[1] else "finite"))
        assert outcomes[0] == outcomes[1]
        return
    event("one block" if M <= numerics.MAP_BLOCK // L else "several blocks")
    maps = numerics.rk4_affine_backward(L_st, f_st, grid)
    loop = rk4_backward_indexed(lambda q, y: L_st[q] @ y - f_st[q], np.zeros((L, d, 1)), grid)
    for k, (a, b) in enumerate(zip(maps, loop)):
        assert a.grid == b.grid and a.shape == b.shape == (d, 1)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(b.values))
        (alone,) = numerics.rk4_affine_backward(L_st[:, k:k + 1], f_st[:, k:k + 1], grid)
        assert np.array_equal(alone.values, a.values)


def test_nonfinite_raises_with_node():
    g = TimeGrid(1.0, 10)

    def blowup(t, Y):
        return Y @ Y * 1e200 + 1e200

    with pytest.raises(IntegrationDivergedError) as exc:
        integrate_backward(blowup, np.ones((1, 1)), g)
    assert exc.value.node is not None


def test_interp_nodes_exact():
    g = TimeGrid(1.0, 3)
    vals = np.arange(4 * 2 * 2, dtype=float).reshape(4, 2, 2)
    f = GridFunction(g, vals)
    for j in range(4):
        assert np.array_equal(interp(f, g.nodes[j]), vals[j])
    # tiny perturbations snap back to the node value
    assert np.array_equal(interp(f, g.nodes[1] + 1e-13), vals[1])
    assert np.array_equal(interp(f, g.nodes[2] - 1e-13), vals[2])


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    t=st.floats(0, 1),
)
def test_interp_affine_exact(a, b, t):
    g = TimeGrid(1.0, 17)
    vals = (a * g.nodes + b)[:, None, None]
    f = GridFunction(g, vals)
    assert interp(f, t)[0, 0] == pytest.approx(a * t + b, abs=1e-12)


def test_interp_near_a_node_is_not_snapped_beyond_rounding():
    g = TimeGrid(1.0, 17)
    f = GridFunction(g, (g.nodes + 1.0)[:, None, None])
    assert interp(f, 1e-12)[0, 0] == pytest.approx(1.0 + 1e-12, abs=1e-12)
    assert interp(f, 1.0 - 1e-12)[0, 0] == pytest.approx(2.0 - 1e-12, abs=1e-12)


def test_interp_end_of_a_fine_grid_stays_in_range():
    # at T = 1.29, M = 10^6 the step fraction T / h rounds to M + 1.2e-10
    g = TimeGrid(1.29, 10 ** 6)
    assert g.t_end / g.h > g.num_steps
    f = GridFunction(g, g.nodes[:, None, None])
    assert interp(f, g.t_end)[0, 0] == g.nodes[-1]


def test_interp_at_j_times_h_returns_the_node_bit_for_bit():
    rng = np.random.default_rng(5)
    for T, M in ((1.0, 3), (0.3, 17), (7.3, 1000), (1.29, 4097)):
        g = TimeGrid(T, M)
        vals = rng.standard_normal((M + 1, 2, 1))
        f = GridFunction(g, vals)
        for j in range(M + 1):
            assert np.array_equal(interp(f, j * g.h), vals[j])
            assert np.array_equal(interp(f, g.nodes[j]), vals[j])


def test_interp_out_of_range():
    g = TimeGrid(1.0, 4)
    f = GridFunction.constant(g, np.eye(2))
    with pytest.raises(OutOfRangeError):
        interp(f, -0.01)
    with pytest.raises(OutOfRangeError):
        interp(f, 1.01)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_interp_non_finite_time_is_out_of_range(t):
    # int(round(u)) would raise ValueError on NaN and OverflowError on inf
    g = TimeGrid(1.0, 4)
    f = GridFunction.constant(g, np.eye(2))
    law = FeedbackLaw(GridFunction.constant(g, np.eye(2)), GridFunction.zeros(g, 2))
    for query in (lambda: interp(f, t), lambda: f.interp(t),
                  lambda: law(t, np.ones(2))):
        with pytest.raises(OutOfRangeError):
            query()


def test_gridfunction_shape_mismatch():
    g = TimeGrid(1.0, 4)
    with pytest.raises(SchemaError):
        GridFunction(g, np.zeros((3, 2, 2)))


@pytest.mark.parametrize("values", [[["x"]] * 3, [[1.0, 2.0], [3.0], [4.0, 5.0]]])
def test_gridfunction_non_numeric_or_ragged_values_are_a_schema_error(values):
    with pytest.raises(SchemaError, match="values"):
        GridFunction(TimeGrid(1.0, 2), values)


def test_gridfunction_keeps_non_finite_values():
    # a diverged table is a numerical failure for the solver to report
    f = GridFunction(TimeGrid(1.0, 2), [math.nan, 1.0, math.inf])
    assert np.isnan(f.values[0, 0, 0]) and np.isinf(f.values[2, 0, 0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 1000))
def test_symmetrize_properties(n, seed):
    P = np.random.default_rng(seed).normal(size=(n, n))
    S = symmetrize(P)
    np.testing.assert_allclose(S, S.T, atol=0)
    np.testing.assert_array_equal(symmetrize(S), S)


def test_psd_check_basics():
    def psd(P, tol):
        w_min, allowance = psd_margin(P, tol)
        return w_min >= -allowance
    assert psd(np.eye(3), 0.0)
    assert psd(np.zeros((2, 2)), 0.0)
    assert not psd(np.diag([1.0, -1.0]), 1e-9)
    assert psd(np.diag([1.0, -1e-12]), 1e-9)


def test_trapezoid_weights_sum():
    g = TimeGrid(3.0, 12)
    w = trapezoid_weights(g)
    assert w.sum() == pytest.approx(3.0, abs=1e-14)
    # integrates affine functions exactly
    vals = 2.0 * g.nodes + 1.0
    assert (w * vals).sum() == pytest.approx(3.0 * 3.0 + 3.0, abs=1e-12)
