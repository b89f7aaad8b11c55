import ast
import dataclasses
import functools
import time
from pathlib import Path

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mmlqg
from mmlqg import lqg_single, nash_gap, population_sim
from mmlqg.errors import (
    AssumptionViolationError,
    MmlqgError,
    RiccatiBlowupError,
    SchemaError,
)
from mmlqg.lqg_single import LqgProblem, solve_finite_horizon
from mmlqg.mfg_model import lift_tracking, replicate_pi
from mmlqg.mfg_solver import solve_consistency_finite
from mmlqg.nash_gap import (
    NashGapReport,
    build_joint_closed_loop,
    epsilon_nash_gap,
    equilibrium_cost_ode,
    gap_vs_population,
    solve_best_response,
)
from mmlqg.population_sim import (
    PopulationConfig,
    assign_types,
    expected_cost_exact,
    simulate_population,
)
from mmlqg.toys import coupled_toy, decoupled_toy
from oracles import (
    DenseJointSystem,
    best_response_perturbed_cost,
    finite_cost_monte_carlo,
    policy_cost,
    solve_best_response_chain,
    undeviated_cost,
)
from test_fixed_point_property import SETTINGS, random_game


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


def _deviators(p, N):
    # the major and the first minor of every type, as gap_vs_population picks
    type_of = assign_types(p.pi, N)
    return [0] + [int(np.flatnonzero(type_of == k)[0]) + 1 for k in range(p.K)]


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
        assert np.all(js.Bz[:-1][mask] == 0.0) and np.all(js.Bz[-1] == 0.0)
        assert np.any(js.Bz[off:off + n] != 0.0)


def test_single_minor_joint_system_is_block_diagonal(single_minor):
    p, sol = single_minor
    js = DenseJointSystem(p=p, sol=sol, cfg=PopulationConfig(N=1), deviator=1)
    n = p.n
    blocks = [slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)]
    for q in (0, p.grid.num_steps, 2 * p.grid.num_steps):
        A = js.F[q] - js.Bz @ js.Kz[q]
        for i, bi in enumerate(blocks):
            for j, bj in enumerate(blocks):
                if i != j:
                    assert np.abs(A[bi, bj]).max() < 1e-12


def test_one_policy_quadratic_and_no_per_stage_joint_methods():
    # every exact cost forms its quadratic in one place, and the joint
    # system hands out stage tables, not per-stage callbacks
    defined, joint = [], set()
    for f in sorted(Path(mmlqg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, f.stem))
            if isinstance(node, ast.ClassDef) and node.name == "ReducedPopulation":
                joint = {b.name for b in node.body if isinstance(b, ast.FunctionDef)}
    names = [name for name, _ in defined]
    assert [m for name, m in defined if name == "_policy_quadratic"] == ["lqg_single"]
    assert "_deviation_quadratic" not in names
    assert joint and not joint & {"A_open", "d_open", "eq_gain", "A_closed", "d_closed"}


def test_every_agent_takes_its_weights_from_the_one_tracking_lift(coupled):
    # the major (T = [I, -H0^pi]), each minor type (S = [I, -Hk, -Hhatk^pi])
    # and the finite-N deviator (its record's C) carry exactly the lift of
    # their tracking map and primitive weights
    p, sol = coupled
    n, mj = p.n, p.major
    T = np.hstack([np.eye(n), -replicate_pi(mj.H0, p.pi)])
    agents = [(sol.ext_major, lift_tracking(T, mj.Qhat0, mj.Q0, mj.N0, mj.R0, mj.eta0))]
    for mn, ext in zip(p.minors, sol.ext_minors):
        S = np.hstack([np.eye(n), -mn.Hk, -replicate_pi(mn.Hhatk, p.pi)])
        agents.append((ext, lift_tracking(S, mn.Qhatk, mn.Qk, mn.Nk, mn.Rk, mn.etak)))
    type_of = assign_types(p.pi, 6)
    for dev in _deviators(p, 6):
        js = build_joint_closed_loop(p, sol, PopulationConfig(N=6), dev)
        eta = mj.eta0 if dev == 0 else p.minors[type_of[dev - 1]].etak
        agents.append((js._agent(),
                       lift_tracking(js.C, js.Qhat, js.Q, js.Ncr, js.R, eta)))
    assert len(agents) == 2 * p.K + 2
    for ext, lifted in agents:
        assert set(lifted) == {"Qhat", "Q", "N", "R", "eta", "nbar", "Q_factor"}
        for name, W in lifted.items():
            assert np.array_equal(getattr(ext, name), W), (ext.what, name)


def test_no_game_agent_forms_its_own_weights():
    # outside lqg_single, whose standalone problem is its own weights, no
    # ExtendedSystem is handed a weight by keyword: every agent of the game
    # gets them from lift_tracking, the deviator's record included
    weights = {"Qhat", "Q", "N", "R", "eta", "nbar", "Q_factor"}
    callers = []
    for f in sorted(Path(mmlqg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExtendedSystem":
                named = {kw.arg for kw in node.keywords}
                callers.append(f.stem)
                if f.stem != "lqg_single":
                    assert None in named and not named & weights, f.stem
    assert sorted(callers) == ["lqg_single", "mfg_model", "mfg_model", "population_sim"]


def test_one_law_convention():
    # every law the package stores or passes is u = -K x + k: no name
    # carries the opposite feedforward, and the cost routines take the law
    # as Kz = [K, -k] on z = (x; 1), u = -Kz z
    names, params = set(), {}
    for f in sorted(Path(mmlqg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)):
                names.add(node.arg)
            elif isinstance(node, ast.ClassDef):
                names.add(node.name)
            elif isinstance(node, ast.FunctionDef):
                names.add(node.name)
                params[node.name] = [a.arg for a in node.args.args]
    assert not names & {"kff", "feedforwards"}
    assert params["_policy_quadratic"][-1:] == ["Kz"]
    assert params["_closed_loop_cost"][1:2] == ["Kz"]


def test_one_closed_loop_cost_former_and_a_gap_module_that_only_compares():
    # lqg_single._closed_loop_cost forms every continuous closed-loop cost,
    # expected_cost's as a one-member stack; nash_gap forms neither a type
    # assignment nor an exact cost: it solves best responses and compares
    homes, expected_calls, gap_names = [], set(), set()
    for f in sorted(Path(mmlqg.__file__).parent.glob("*.py")):
        tree = ast.parse(f.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_closed_loop_cost":
                homes.append(f.stem)
            if isinstance(node, ast.FunctionDef) and node.name == "expected_cost":
                expected_calls = {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call)
                                  and isinstance(n.func, ast.Name)}
        if f.stem == "nash_gap":
            gap_names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} \
                | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} \
                | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                   for a in n.names}
    assert homes == ["lqg_single"]
    assert "_closed_loop_cost" in expected_calls
    assert not gap_names & {"assign_types", "bincount", "_policy_quadratic", "_homogeneous",
                            "closed_loop_cost_moments"}


def test_one_midpoint_rule_and_a_best_response_without_loops():
    # only _stage_values forms midpoints, so no other code strides stage
    # tables back to nodes; the stacked best responses have no loop of
    # their own and go through the one agent solve, so every agent, the
    # deviator included, runs the same Riccati/offset sweeps; their
    # comprehensions only gather the members' records and gain tables and
    # split the results, and each of the two propagations (the equilibrium
    # closed loops, the best responses' closed loops) runs on the whole stack
    strided, loops, calls, gathered = [], None, [], set()
    for f in sorted(Path(mmlqg.__file__).parent.glob("*.py")):
        tree = ast.parse(f.read_text())
        # rk4_affine_backward reads stage tables at nodes and midpoints but
        # forms no midpoint
        skip = {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                and fn.name in ("_stage_values", "rk4_affine_backward")
                for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Slice) and id(node) not in skip \
                    and isinstance(node.step, ast.Constant) and node.step.value == 2:
                strided.append("%s:%d" % (f.name, node.lineno))
            if isinstance(node, ast.FunctionDef) and node.name == "_best_responses":
                loops = [n.lineno for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))]
                calls = [n.func.id for n in ast.walk(node)
                         if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
                gathered = {getattr(n.func, "id", getattr(n.func, "attr", None))
                            for comp in ast.walk(node)
                            if isinstance(comp, (ast.ListComp, ast.GeneratorExp))
                            for n in ast.walk(comp) if isinstance(n, ast.Call)}
        if f.stem == "nash_gap":
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} \
                | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                   for a in n.names}
            assert not names & {"rk4_backward_indexed", "rk4_affine_backward",
                                "flatten", "unflatten"}
    assert strided == []
    assert loops == []
    assert calls.count("_solve_agent_finite") == 1 and calls.count("_closed_loop_cost") == 2
    assert gathered <= {"_agent", "_gain_tables", "zip", "BestResponse", "float"}


def test_best_response_midpoints_are_node_means(coupled):
    # the best response is a law on the nodes, costed at stages whose
    # midpoints are node means
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=4), 2)
    br = solve_best_response(js)

    def stages(nodes):
        tab = np.repeat(nodes, 2, axis=0)[:-1]
        tab[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        return tab

    K, k = br.law.K.values, br.law.k.values
    assert K.shape == (p.grid.num_nodes, p.m, js.D)
    assert k.shape == (p.grid.num_nodes, p.m, 1)
    assert policy_cost(js, stages(np.concatenate([K, -k], -1))) == br.cost


def test_grid_mismatch_rejected(coupled):
    p, _ = coupled
    other = coupled_toy(M=50)
    sol50 = solve_consistency_finite(other)
    with pytest.raises(SchemaError):
        build_joint_closed_loop(p, sol50, PopulationConfig(N=3), 0)


_SOLUTION_ROUTES = {
    "epsilon_nash_gap": lambda p, sol: epsilon_nash_gap(p, sol, PopulationConfig(N=3), 1),
    "expected_cost_exact": lambda p, sol: expected_cost_exact(
        p, sol, PopulationConfig(N=3), 1),
    "gap_vs_population": lambda p, sol: gap_vs_population(p, sol, [3]),
    "simulate_population": lambda p, sol: simulate_population(p, sol, PopulationConfig(N=3)),
}


@pytest.mark.parametrize("route", sorted(_SOLUTION_ROUTES))
def test_solution_of_another_game_rejected(coupled, single_minor, route):
    # a solution with another K met a bare numpy broadcast error
    # ("shapes (26,2,2) (26,2,4)") in every route that runs it
    (p2, sol2), (p1, sol1) = coupled, single_minor
    for p, sol in ((p2, sol1), (p1, sol2)):
        with pytest.raises(SchemaError, match="does not match"):
            _SOLUTION_ROUTES[route](p, sol)


def test_solution_of_a_game_with_another_pi_rejected():
    # pi enters the solve (F^pi, H^pi) and decides the population, so a
    # solution at pi = [0.6, 0.4] must not run on the game at [0.9, 0.1]
    p = coupled_toy(M=20)
    sol = solve_consistency_finite(p)
    other = dataclasses.replace(p, pi=[0.9, 0.1])
    for route in ("simulate_population", "expected_cost_exact", "gap_vs_population"):
        with pytest.raises(SchemaError, match="pi does not match"):
            _SOLUTION_ROUTES[route](other, sol)


def test_deviator_out_of_range_rejected(coupled):
    p, sol = coupled
    with pytest.raises(SchemaError):
        build_joint_closed_loop(p, sol, PopulationConfig(N=3), 4)


@pytest.fixture(scope="module")
def small_population():
    p = coupled_toy(M=10)
    sol = solve_consistency_finite(p)
    cfg = PopulationConfig(N=4, num_paths=2)
    return p, sol, cfg, simulate_population(p, sol, cfg)


_AGENT_ROUTES = {
    "epsilon_nash_gap": lambda p, sol, cfg, b, a: epsilon_nash_gap(p, sol, cfg, a),
    "expected_cost_exact": lambda p, sol, cfg, b, a: expected_cost_exact(p, sol, cfg, a),
    "finite_cost_monte_carlo": lambda p, sol, cfg, b, a: finite_cost_monte_carlo(p, sol, b, a),
}


@pytest.mark.parametrize("route", sorted(_AGENT_ROUTES))
def test_agent_id_is_read_as_a_count(small_population, route):
    # an integral float or numpy integer names that agent; a bool, a
    # fraction, a string, None or an id outside 0..N is a SchemaError
    run = functools.partial(_AGENT_ROUTES[route], *small_population)
    ref = run(2)
    for same in (2.0, np.int64(2)):
        report = run(same)
        assert type(report.agent_id) is int and report == ref
    for bad in (1.5, True, "1", None, -1, 5):
        with pytest.raises(SchemaError) as err:
            run(bad)
        assert err.value.field == "agent_id"


def test_undeviated_chain_cost_reproduces_expected_cost(coupled):
    # the assembly check: the open drift closed by B_full and the lifted
    # gain table costs what the record's own closed drift costs
    p, sol = coupled
    cfg = PopulationConfig(N=5, master_seed=0)
    for dev in (0, 1):
        js = build_joint_closed_loop(p, sol, cfg, dev)
        ref = expected_cost_exact(p, sol, cfg, dev).value
        assert abs(undeviated_cost(js) - ref) <= 1e-8
        assert epsilon_nash_gap(p, sol, cfg, dev).diagnostics["assembly_crosscheck"] <= 1e-8


def test_reduced_dimension_does_not_grow_with_population(coupled):
    p, sol = coupled
    n, K = p.n, p.K
    # N = 1: the lone minor deviates and no type keeps a non-deviator
    assert build_joint_closed_loop(p, sol, PopulationConfig(N=1), 1).D == 2 * n + n * K
    assert build_joint_closed_loop(p, sol, PopulationConfig(N=1), 0).D == 2 * n + n * K
    for N in (8, 10 ** 6):
        assert build_joint_closed_loop(p, sol, PopulationConfig(N=N), 0).D == n + 2 * n * K
        assert build_joint_closed_loop(p, sol, PopulationConfig(N=N), 1).D == 2 * n + 2 * n * K


def test_gap_is_keyed_by_type_counts(coupled):
    # two minors of one type in one population are one reduced system:
    # the same gap, bit for bit
    p, sol = coupled
    cfg = PopulationConfig(N=6)
    assert assign_types(p.pi, 6).tolist() == [0, 1, 0, 1, 0, 0]
    for picks in ((1, 3), (3, 6), (2, 4)):
        reps = [epsilon_nash_gap(p, sol, cfg, a) for a in picks]
        assert [r.agent_id for r in reps] == list(picks)
        for r in reps:
            r.agent_id = None
        assert reps[0] == reps[1]


def test_reduced_record_holds_nothing_that_grows_with_population(coupled):
    p, sol = coupled

    def shapes(N, dev):
        js = build_joint_closed_loop(p, sol, PopulationConfig(N=N), dev)
        names = [*vars(js), "F_nodes", "Bz"]   # formed on first read
        arrays = {name: np.shape(getattr(js, name)) for name in names
                  if isinstance(getattr(js, name), (np.ndarray, list, tuple))}
        return {**arrays, **{"weights." + k: np.shape(v) for k, v in js.weights.items()}}

    for dev in _deviators(p, 8):
        assert shapes(10 ** 6, dev) == shapes(8, dev)


# ----------------------------------------------------------- best response


def test_terminal_riccati_equals_joint_terminal_weight(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=4), 1)
    br = solve_best_response(js)
    assert np.array_equal(br.Pi[-1], js.weights["Qhat"])


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
        np.abs(br.law.K.values[j][:, own] - lqg.law.K.values[j]).max()
        for j in range(0, M + 1, 5)
    )
    worst_Pi = max(
        np.abs(br.Pi[j][own, own] - lqg.Pi.values[j]).max()
        for j in range(0, M + 1, 5)
    )
    assert worst_K < 1e-9
    assert worst_Pi < 1e-9
    # off-block feedback must vanish: nothing else enters this agent's cost
    assert np.abs(br.law.K.values[0][:, p.n:]).max() < 1e-9


def test_perturbed_controls_cost_more(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=4), 1)
    br = solve_best_response(js)
    omega = np.ones((js.m, 1))
    j_small = best_response_perturbed_cost(js, br, 0.01, omega)
    j_big = best_response_perturbed_cost(js, br, 0.1, omega)
    assert br.cost < j_small < j_big


def test_chain_dynamic_program_never_beats_its_own_equilibrium(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=4), 2)
    chain = solve_best_response_chain(js)
    assert chain.cost <= undeviated_cost(js) + 1e-12
    assert chain.diagnostics["route_mismatch"] < 1e-9


def test_indefinite_control_weight_raises(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=3), 1)
    js.R = -np.eye(js.m)
    with pytest.raises(AssumptionViolationError):
        solve_best_response(js)


def test_deviator_convexity_uses_the_game_tolerance():
    # Q - N R^-1 N' has min eigenvalue -5e-10: inside the game check's
    # relative tolerance, so the deviator check must accept it too
    p = coupled_toy(M=50)
    p.minors[0].Nk = np.array([[0.0], [np.sqrt(1.0 + 5e-10)]])
    sol = solve_consistency_finite(p)
    assert sol.validation.ok
    rep = epsilon_nash_gap(p, sol, PopulationConfig(N=3), 1)
    assert np.isfinite(rep.gap)
    # a clearly non-convex deviator is still refused (exit 4 in the CLI)
    p.minors[0].Nk = np.array([[0.0], [1.5]])
    with pytest.raises(AssumptionViolationError, match="deviator"):
        epsilon_nash_gap(p, sol, PopulationConfig(N=3), 1)


def test_backward_sweep_blowup_is_reported(coupled):
    p, sol = coupled
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=3), 1)
    # a drift far too fast for the grid: the sweep must detect the
    # divergence rather than return garbage
    js.F_nodes = 1e3 * js.F_nodes
    with pytest.raises(RiccatiBlowupError, match="deviator Riccati sweep"):
        solve_best_response(js)
    # a concave running weight past the screen on the primitive weights is
    # refused by the agent record's guard (exit 2 in the CLI)
    js = build_joint_closed_loop(p, sol, PopulationConfig(N=3), 1)
    js.weights["Q"] = -1e6 * np.eye(js.D)
    with pytest.raises(SchemaError, match="deviator Q"):
        solve_best_response(js)


# -------------------------------------------------------------------- gaps


def test_decoupled_gaps_vanish(decoupled):
    p, sol = decoupled
    cfg = PopulationConfig(N=4, master_seed=0)
    for dev in range(5):
        # the deviator runs the equilibrium's own agent code, so nothing
        # but roundoff separates the two laws
        rep = epsilon_nash_gap(p, sol, cfg, dev)
        assert abs(rep.gap) <= 1e-15
        assert rep.diagnostics["identity_mismatch"] <= 1e-15
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


@pytest.mark.parametrize("Ns", [[2.5], [0], [-1], [4, 0], [True], [4, True]])
def test_gap_table_rejects_a_size_that_is_not_a_count(decoupled, Ns):
    # 2.5 ran N = 2, -1 met np.empty(-1) before the check and True ran N = 1
    p, sol = decoupled
    with pytest.raises(SchemaError, match=r"Ns\[%d\]" % (len(Ns) - 1)):
        gap_vs_population(p, sol, Ns)


def test_gap_rows_carry_their_worst_diagnostics(coupled):
    p, sol = coupled
    row = gap_vs_population(p, sol, [3]).rows[0]
    reps = [epsilon_nash_gap(p, sol, PopulationConfig(N=3), d)
            for d in _deviators(p, 3)]
    for key in ("identity_mismatch", "assembly_crosscheck"):
        assert getattr(row, key) == max(r.diagnostics[key] for r in reps)
    assert row.assembly_crosscheck <= 1e-8


def _count_work(monkeypatch):
    """Counts of forward and backward RK4 sweeps (a backward one by the
    RK4 loop or by step maps), chain recursions, reduced records built and
    agent-id lookups (each walks the N-long type array), from here on."""
    calls = dict.fromkeys(["forward", "backward", "chain", "record", "agent_key"], 0)

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for key, original in (("forward", lqg_single.rk4_forward_indexed),
                          ("backward", lqg_single.rk4_backward_indexed),
                          ("backward", lqg_single.rk4_affine_backward),
                          ("chain", population_sim.discrete_chain_cost),
                          ("agent_key", population_sim._agent_key)):
        for module in (lqg_single, population_sim, nash_gap):
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted(key, original))
    monkeypatch.setattr(population_sim.ReducedPopulation, "__init__", counted(
        "record", population_sim.ReducedPopulation.__init__))
    return calls


def test_one_gap_builds_one_record_and_propagates_twice(coupled, monkeypatch):
    # a gap is a one-member stack: J_eq and the identity share the
    # equilibrium closed loop's propagation, and both assembly chains one
    # chain recursion on the deviator's own record
    p, sol = coupled
    calls = _count_work(monkeypatch)
    epsilon_nash_gap(p, sol, PopulationConfig(N=8), 1)
    assert calls == {"forward": 2, "backward": 2, "chain": 1, "record": 1, "agent_key": 1}


def test_a_table_runs_one_stack_per_reduced_dimension(monkeypatch):
    # the benchmark's nash table: 12 deviators in two groups, D = 10 (the
    # majors and the N = 2 minors) and D = 12 (the other minors); each
    # group runs the agent solve's two sweeps, two forward propagations
    # and one chain recursion, where every deviator ran 4 and 2; the records
    # are keyed by each N's type counts, with no per-deviator id lookup
    p = coupled_toy(M=25)
    sol = solve_consistency_finite(p)
    calls = _count_work(monkeypatch)
    gap_vs_population(p, sol, [2, 8, 32, 96])
    assert calls == {"forward": 4, "backward": 4, "chain": 2, "record": 12, "agent_key": 0}


def test_one_type_assignment_per_table(monkeypatch):
    # the gap table and the convergence study each assign types once, at
    # their largest N, and read every smaller population off its prefix
    p = coupled_toy(M=25)
    sol = solve_consistency_finite(p)
    sizes = []

    def spy(pi, N):
        sizes.append(N)
        return assign_types(pi, N)

    for module in (population_sim, nash_gap):
        if getattr(module, "assign_types", None) is assign_types:
            monkeypatch.setattr(module, "assign_types", spy)
    gap_vs_population(p, sol, [2, 8, 32, 96])
    assert sizes == [96]
    population_sim.mean_field_convergence_study(p, sol, [16, 64, 256])
    assert sizes == [96, 256]


def _assert_rows_are_single_gaps(p, sol, Ns):
    # every row's gaps and worst diagnostics, from one-member stacks
    for row in gap_vs_population(p, sol, Ns).rows:
        type_of = assign_types(p.pi, row.N)
        cfg = PopulationConfig(N=row.N)
        firsts = [0] + [int(ix[0]) + 1 if ix.size else None
                        for ix in (np.flatnonzero(type_of == k) for k in range(p.K))]
        reps = [epsilon_nash_gap(p, sol, cfg, a) for a in firsts if a is not None]
        it = iter(reps)
        assert [row.major_gap] + row.type_gaps == \
            [0.0 if a is None else next(it).gap for a in firsts]
        for key in ("identity_mismatch", "assembly_crosscheck"):
            assert getattr(row, key) == max(r.diagnostics[key] for r in reps)


def test_stacking_changes_no_gap():
    # numpy's stacked @ forms one product per member, so a deviator's
    # numbers do not depend on its stack: the table's rows, N = 1 with its
    # empty type included, equal the one-member stacks of epsilon_nash_gap
    p = coupled_toy(M=25)
    sol = solve_consistency_finite(p)
    _assert_rows_are_single_gaps(p, sol, [1, 2, 8, 32, 96, 10 ** 6])


@settings(max_examples=15, **SETTINGS)
@given(st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "n": st.integers(1, 2),
    "m": st.integers(1, 2),
    "K": st.integers(1, 3),
    "M": st.integers(4, 12),
    "coupling": st.sampled_from([0.1, 0.5, 1.5]),
    "Ns": st.lists(st.integers(1, 12), min_size=1, max_size=4),
}))
def test_stacking_changes_no_gap_on_random_games(g):
    p = random_game(g["seed"], g["n"], g["m"], g["K"], g["M"], g["coupling"], 0.0)
    try:
        sol = solve_consistency_finite(p)
    except MmlqgError:
        assume(False)
    try:
        gap_vs_population(p, sol, g["Ns"])
    except MmlqgError as exc:
        # a sweep too coarse for the game: a one-member stack fails alike
        with pytest.raises(type(exc)):
            _assert_rows_are_single_gaps(p, sol, g["Ns"])
        return
    _assert_rows_are_single_gaps(p, sol, g["Ns"])


def test_gap_identity_mismatch_is_second_order_in_time():
    # completing the square makes J_eq - J_br = 1/2 E int e^{-rho t}
    # du' R du dt exact in continuous time, so the mismatch is the time
    # error alone: at least 3.5x smaller per halving of h (4x today)
    mismatch = {}
    for M in (25, 50, 100):
        p = coupled_toy(M=M)
        sol = solve_consistency_finite(p)
        for N in (2, 96, 10 ** 6) if M == 100 else (2, 96):
            for dev in _deviators(p, N):
                rep = epsilon_nash_gap(p, sol, PopulationConfig(N=N), dev)
                mismatch[M, N, dev] = rep.diagnostics["identity_mismatch"]
                if M == 100:
                    assert mismatch[M, N, dev] <= \
                        1e-6 * abs(rep.J_equilibrium) + 1e-13, (N, dev)
    for (M, N, dev), value in mismatch.items():
        if M < 100:
            assert value >= 3.5 * mismatch[2 * M, N, dev], (M, N, dev)


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


@pytest.fixture(scope="module")
def gap_slopes(coupled):
    # the paper's claim: every deviator's gap is O(1/N), so its fitted
    # log-log slope over N = 10^2, 10^4, 10^6 is about -1
    p, sol = coupled
    Ns = [10 ** 2, 10 ** 4, 10 ** 6]
    rows = gap_vs_population(p, sol, Ns).rows
    gaps = np.array([[row.major_gap] + row.type_gaps for row in rows])
    return np.polyfit(np.log(Ns), np.log(gaps), 1)[0]


def test_major_gap_falls_like_one_over_n(gap_slopes):
    assert -1.1 <= gap_slopes[0] <= -0.9, gap_slopes


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 (b)")
def test_minor_gaps_fall_like_one_over_n(gap_slopes):
    assert all(-1.1 <= s <= -0.9 for s in gap_slopes[1:]), gap_slopes


def test_equilibrium_cost_routes_agree(coupled):
    # the ODE route and the chain route integrate different discretizations
    # of the same closed loop; they may only differ at the chain's O(h) bias
    p, sol = coupled
    cfg = PopulationConfig(N=4, master_seed=0)
    js = build_joint_closed_loop(p, sol, cfg, 1)
    j_ode = equilibrium_cost_ode(js)
    j_chain = undeviated_cost(js)
    assert abs(j_ode - j_chain) < 0.05 * abs(j_chain)
