import dataclasses
import time

import numpy as np
import pytest

from mmlqg.errors import (
    AssumptionViolationError,
    RiccatiBlowupError,
    SchemaError,
)
from mmlqg.lqg_single import LqgProblem, solve_finite_horizon
from mmlqg.mfg_solver import solve_consistency_finite
from mmlqg.nash_gap import (
    NashGapReport,
    build_joint_closed_loop,
    epsilon_nash_gap,
    equilibrium_cost_ode,
    gap_vs_population,
    solve_best_response,
)
from mmlqg.population_sim import PopulationConfig, assign_types, expected_cost_exact
from mmlqg.toys import coupled_toy, decoupled_toy
from oracles import (
    DenseJointSystem,
    best_response_perturbed_cost,
    solve_best_response_chain,
)


@pytest.fixture(scope="module")
def coupled():
    p = coupled_toy(M=100)
    return p, solve_consistency_finite(p)


@pytest.fixture(scope="module")
def coupled_sweep():
    # finer grid for the N-trend assertions; one solve shared by all of them
    p = coupled_toy(M=200)
    sol = solve_consistency_finite(p)
    table = gap_vs_population(p, sol, (2, 4, 8, 16, 32))
    return p, sol, table


@pytest.fixture(scope="module")
def decoupled():
    p = decoupled_toy(M=100)
    return p, solve_consistency_finite(p)


@pytest.fixture(scope="module")
def single_minor():
    # one type, one agent: the joint system splits into independent blocks
    base = decoupled_toy(M=100)
    p = dataclasses.replace(base, minors=[base.minors[0]], pi=[1.0])
    return p, solve_consistency_finite(p)


# ---------------------------------------------------------------- assembly


def test_joint_assembly_matches_population_simulator(coupled):
    p, sol = coupled
    js = DenseJointSystem(p=p, sol=sol, cfg=PopulationConfig(N=6, master_seed=3),
                          deviator=2)
    assert js.validation_gap() < 1e-10


def test_deviator_input_matrix_zero_outside_own_rows(coupled):
    p, sol = coupled
    n, N = p.n, 5
    for dev in (0, 2):
        js = DenseJointSystem(p=p, sol=sol, cfg=PopulationConfig(N=N), deviator=dev)
        off = js.x0_off if dev == 0 else (dev - 1) * n
        mask = np.ones(js.D, dtype=bool)
        mask[off:off + n] = False
        assert np.all(js.B_full[mask] == 0.0)
        assert np.any(js.B_full[off:off + n] != 0.0)


def test_single_minor_joint_system_is_block_diagonal(single_minor):
    p, sol = single_minor
    js = DenseJointSystem(p=p, sol=sol, cfg=PopulationConfig(N=1), deviator=1)
    n = p.n
    blocks = [slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)]
    for q in (0, p.grid.num_steps, 2 * p.grid.num_steps):
        A = js.A_closed(q)
        for i, bi in enumerate(blocks):
            for j, bj in enumerate(blocks):
                if i != j:
                    assert np.abs(A[bi, bj]).max() < 1e-12


def test_grid_mismatch_rejected(coupled):
    p, _ = coupled
    other = coupled_toy(M=50)
    sol50 = solve_consistency_finite(other)
    with pytest.raises(SchemaError):
        build_joint_closed_loop(p, sol50, PopulationConfig(N=3), 0)


def test_deviator_out_of_range_rejected(coupled):
    p, sol = coupled
    with pytest.raises(SchemaError):
        build_joint_closed_loop(p, sol, PopulationConfig(N=3), 4)


@pytest.mark.parametrize("xbar0", [[0.3], [0.3, -0.1, 0.2]])
def test_wrong_length_xbar0_rejected_by_exact_routes(xbar0):
    p = coupled_toy(M=20)
    sol = solve_consistency_finite(p)
    cfg = PopulationConfig(N=3, xbar0=xbar0)
    with pytest.raises(SchemaError):
        expected_cost_exact(p, sol, cfg, 1)
    with pytest.raises(SchemaError):
        epsilon_nash_gap(p, sol, cfg, 1)


def test_undeviated_chain_cost_reproduces_expected_cost(coupled):
    p, sol = coupled
    cfg = PopulationConfig(N=5, master_seed=0)
    for dev in (0, 1):
        js = build_joint_closed_loop(p, sol, cfg, dev)
        ref = expected_cost_exact(p, sol, cfg, dev).value
        assert abs(js.undeviated_cost() - ref) <= 1e-8


def test_reduced_dimension_does_not_grow_with_population(coupled):
    p, sol = coupled
    n, K = p.n, p.K
    # N = 1: the lone minor deviates and no type keeps a non-deviator
    assert build_joint_closed_loop(p, sol, PopulationConfig(N=1), 1).D == 2 * n + n * K
    assert build_joint_closed_loop(p, sol, PopulationConfig(N=1), 0).D == 2 * n + n * K
    for N in (8, 10 ** 6):
        assert build_joint_closed_loop(p, sol, PopulationConfig(N=N), 0).D == n + 2 * n * K
        assert build_joint_closed_loop(p, sol, PopulationConfig(N=N), 1).D == 2 * n + 2 * n * K


# ----------------------------------------------------------- best response


def test_terminal_riccati_equals_joint_terminal_weight(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=4), 1)
    br = solve_best_response(js)
    assert np.array_equal(br.Pi_terminal, js.W_term)


def test_best_response_recovers_standalone_lqg(single_minor):
    p, sol = single_minor
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=1), 1)
    br = solve_best_response(js)

    mn = p.minors[0]
    standalone = LqgProblem(
        A=mn.Ak, B=mn.Bk, b=mn.bk, sigma=mn.sigmak, Qhat=mn.Qhatk,
        Q=mn.Qk, N_cross=mn.Nk, R=mn.Rk, eta=np.zeros((p.n, 1)),
        n_lin=np.zeros((p.m, 1)), rho=p.rho, grid=p.grid,
        x0=np.zeros((p.n, 1)),
    )
    lqg = solve_finite_horizon(standalone)
    M = p.grid.num_steps
    own = slice(0, p.n)
    worst_K = max(
        np.abs(br.gains[2 * j][:, own] - lqg.K.values[j]).max()
        for j in range(0, M + 1, 5)
    )
    worst_Pi = max(
        np.abs(br.Pi[j][own, own] - lqg.Pi.values[j]).max()
        for j in range(0, M + 1, 5)
    )
    assert worst_K < 1e-9
    assert worst_Pi < 1e-9
    # off-block feedback must vanish: nothing else enters this agent's cost
    assert np.abs(br.gains[0][:, p.n:]).max() < 1e-9


def test_perturbed_controls_cost_more(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=4), 1)
    br = solve_best_response(js)
    omega = np.ones((js.m, 1))
    j_small = best_response_perturbed_cost(js, br, 0.01, omega)
    j_big = best_response_perturbed_cost(js, br, 0.1, omega)
    assert br.cost < j_small < j_big


def test_value_function_route_agrees_with_moment_route(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=4), 0)
    br = solve_best_response(js)
    assert br.diagnostics["route_mismatch"] < 1e-9


def test_chain_dynamic_program_never_beats_its_own_equilibrium(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=4), 2)
    chain = solve_best_response_chain(js)
    assert chain.cost <= js.undeviated_cost() + 1e-12
    assert chain.diagnostics["route_mismatch"] < 1e-9


def test_indefinite_control_weight_raises(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=3), 1)
    js.R = -np.eye(js.m)
    with pytest.raises(AssumptionViolationError):
        solve_best_response(js)


def test_backward_sweep_blowup_is_reported(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=3), 1)
    # force a concave running weight past the convexity screen: the sweep
    # must detect the divergence rather than return garbage
    js.W = -1e6 * np.eye(js.D)
    with pytest.raises(RiccatiBlowupError):
        solve_best_response(js)


# -------------------------------------------------------------------- gaps


def test_decoupled_gaps_vanish(decoupled):
    p, sol = decoupled
    cfg = PopulationConfig(N=4, master_seed=0)
    for dev in range(5):
        rep = epsilon_nash_gap(p, sol, cfg, dev)
        assert abs(rep.gap) <= 1e-6
        assert rep.diagnostics["assembly_crosscheck"] <= 1e-8


def test_gap_nonnegative_across_deviators(coupled):
    p, sol = coupled
    for N in (2, 5):
        cfg = PopulationConfig(N=N, master_seed=1)
        for dev in range(N + 1):
            rep = epsilon_nash_gap(p, sol, cfg, dev)
            assert rep.gap >= -1e-8
            assert rep.J_equilibrium == pytest.approx(
                rep.J_best_response + rep.gap, abs=1e-12)


def test_negative_gap_is_rejected_at_construction():
    with pytest.raises(AssumptionViolationError):
        NashGapReport(agent_id=0, N=2, J_equilibrium=1.0,
                      J_best_response=1.1, gap=-0.1)


def test_gap_shrinks_with_population(coupled_sweep):
    _, _, table = coupled_sweep
    by_n = {row.N: row for row in table.rows}
    assert by_n[32].major_gap < by_n[4].major_gap
    for k in range(2):
        assert by_n[32].type_gaps[k] < by_n[4].type_gaps[k]


def test_vanishing_gap_trend_halves_from_2_to_32(coupled_sweep):
    _, _, table = coupled_sweep
    by_n = {row.N: row for row in table.rows}
    assert by_n[32].major_gap < 0.5 * by_n[2].major_gap
    for k in range(2):
        assert by_n[32].type_gaps[k] < 0.5 * by_n[2].type_gaps[k]


def test_gap_table_rows_nonincreasing_within_band(coupled_sweep):
    _, _, table = coupled_sweep
    assert [row.N for row in table.rows] == [2, 4, 8, 16, 32]
    for prev, nxt in zip(table.rows, table.rows[1:]):
        assert nxt.max_gap <= 1.1 * prev.max_gap
    for row in table.rows:
        assert row.max_gap == max([row.major_gap] + row.type_gaps)


def test_decoupled_gap_table_is_flat_zero(decoupled):
    p, sol = decoupled
    table = gap_vs_population(p, sol, (2, 4, 8))
    for row in table.rows:
        assert row.max_gap <= 1e-6


def test_gap_table_handles_type_with_no_members(coupled):
    p, sol = coupled
    table = gap_vs_population(p, sol, (1,))
    row = table.rows[0]
    ty = assign_types(p.pi, 1)
    empty = [k for k in range(p.K) if not np.any(ty == k)]
    assert empty
    for k in empty:
        assert row.type_gaps[k] == 0.0


def test_gap_rows_carry_their_worst_diagnostics(coupled):
    p, sol = coupled
    row = gap_vs_population(p, sol, [3]).rows[0]
    type_of = assign_types(p.pi, 3)
    devs = [0] + [int(np.flatnonzero(type_of == k)[0]) + 1 for k in range(p.K)]
    reps = [epsilon_nash_gap(p, sol, PopulationConfig(N=3), d) for d in devs]
    for key in ("route_mismatch", "assembly_crosscheck"):
        assert getattr(row, key) == max(r.diagnostics[key] for r in reps)
        assert getattr(row, key) <= 1e-8


def test_gap_rows_at_a_thousand_and_a_million_agents():
    # the reduced state does not grow with N, so a million agents cost
    # about what two do, and the gaps keep falling
    p = coupled_toy(M=25)
    sol = solve_consistency_finite(p)
    start = time.perf_counter()
    gap_vs_population(p, sol, [2])
    row_time = time.perf_counter() - start
    start = time.perf_counter()
    table = gap_vs_population(p, sol, [10 ** 3, 10 ** 6])
    elapsed = time.perf_counter() - start
    small, large = table.rows
    for row in table.rows:
        assert all(g >= -1e-8 for g in [row.major_gap] + row.type_gaps)
    assert large.major_gap < small.major_gap
    for g_small, g_large in zip(small.type_gaps, large.type_gaps):
        assert g_large < g_small
    assert elapsed < 6.0 * row_time, \
        "two rows took %.3fs, one N = 2 row %.3fs" % (elapsed, row_time)


def test_equilibrium_cost_routes_agree(coupled):
    # the ODE route and the chain route integrate different discretizations
    # of the same closed loop; they may only differ at the chain's O(h) bias
    p, sol = coupled
    cfg = PopulationConfig(N=4, master_seed=0)
    js = build_joint_closed_loop(p, sol, cfg, 1)
    j_ode = equilibrium_cost_ode(js)
    j_chain = js.undeviated_cost()
    assert abs(j_ode - j_chain) < 0.05 * abs(j_chain)
