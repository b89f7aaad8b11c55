"""The reduced finite-N system against the dense joint assembly.

Random small stable games from the fixed-point property test's generator,
given noise, with random population sizes N, the minors split by the
game's own pi (empty types and deviators alone in their type included,
as N is small), and custom initial covariances.  Every state starts at
mean zero, as in the game.  For every deviator the equilibrium cost, the best
response, the gap, expected_cost_exact and the un-deviated chain cost on
the reduced state must match the dense oracle within 1e-10 max(1, |J|),
with |J| the larger of the two costs for the gap.  Where a coarse grid
makes the dense sweep fail, the reduced one must fail the same way.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmlqg.errors import MmlqgError
from mmlqg.mfg_solver import solve_consistency_finite
from mmlqg.nash_gap import (
    build_joint_closed_loop,
    equilibrium_cost_ode,
    solve_best_response,
)
from mmlqg.population_sim import PopulationConfig, expected_cost_exact
from oracles import DenseJointSystem, undeviated_cost
from test_fixed_point_property import SETTINGS, random_game

AGREE = 1e-10


def noisy_game(seed, n, m, K, M, coupling):
    p = random_game(seed, n, m, K, M, coupling, 0.0)
    rng = np.random.default_rng(seed + 1)
    p.major.sigma0 = rng.normal(scale=0.3, size=(n, n))
    for mn in p.minors:
        mn.sigmak = rng.normal(scale=0.3, size=(n, n))
    return p


def costs(js):
    """J_eq, J_br, the gap and the un-deviated chain cost of one system."""
    J_eq = equilibrium_cost_ode(js)
    J_br = solve_best_response(js).cost
    return [J_eq, J_br, J_eq - J_br, undeviated_cost(js)]


def spd(rng, n):
    L = rng.normal(scale=0.5, size=(n, n))
    return L @ L.T + 0.05 * np.eye(n)


cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "n": st.integers(1, 2),
    "m": st.integers(1, 2),
    "K": st.integers(1, 3),
    "M": st.integers(4, 12),
    "coupling": st.sampled_from([0.1, 0.5, 1.5]),
    "N": st.integers(1, 8),
})


@settings(max_examples=25, **SETTINGS)
@given(cases)
# types [2, 0]: type 1 empty, each minor alone in its type
@example({"seed": 7, "n": 2, "m": 1, "K": 3, "M": 8, "coupling": 0.5, "N": 2})
# a grid too coarse for the best-response sweep of the major
@example({"seed": 5, "n": 2, "m": 1, "K": 2, "M": 4, "coupling": 0.5, "N": 1})
def test_reduced_system_matches_dense_oracle(g):
    p = noisy_game(g["seed"], g["n"], g["m"], g["K"], g["M"], g["coupling"])
    try:
        sol = solve_consistency_finite(p)
    except MmlqgError:
        assume(False)
    n = g["n"]
    rng = np.random.default_rng(g["seed"] + 2)
    cfg = PopulationConfig(N=g["N"])
    p = dataclasses.replace(p, init_cov_major=spd(rng, n),
                            init_cov_minor=spd(rng, n))
    for dev in range(cfg.N + 1):
        red = build_joint_closed_loop(p, sol, cfg, dev)
        dense = DenseJointSystem(p=p, sol=sol, cfg=cfg, deviator=dev)
        try:
            want = costs(dense)
        except MmlqgError as exc:
            # a sweep too coarse for the game: the reduced one must fail alike
            with pytest.raises(type(exc)):
                costs(red)
            continue
        got = costs(red)
        got.append(expected_cost_exact(p, sol, cfg, dev).value)
        want.append(want[-1])
        J_eq, J_br = want[0], want[1]
        scales = [J_eq, J_br, max(abs(J_eq), abs(J_br)), want[3], want[3]]
        for g_, w_, scale in zip(got, want, scales):
            assert abs(g_ - w_) <= AGREE * max(1.0, abs(scale)), (dev, g_, w_)
