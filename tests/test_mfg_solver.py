import ast
import collections
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import mmlqg
from mmlqg import lqg_single, mfg_model, mfg_solver
from mmlqg.errors import (
    AssumptionViolationError,
    FixedPointError,
    RiccatiBlowupError,
    SchemaError,
)
from mmlqg.lqg_single import (
    LqgProblem,
    _solve_agent_stationary,
    solve_finite_horizon,
    solve_infinite_horizon,
)
from mmlqg.mfg_model import (
    MeanFieldLaw,
    build_extended_major,
    build_extended_minor,
    build_mean_field_matrices,
    mean_field_law,
    replicate_pi,
    selector,
)
from mmlqg.mfg_solver import (
    FixedPointConfig,
    _consistency_map,
    solve_consistency_finite,
    solve_consistency_infinite,
)
from mmlqg.numerics import GridFunction, TimeGrid
from mmlqg.toys import coupled_toy, decoupled_toy
from oracles import integrate_forward, mean_field_trajectory


def major_standalone(p):
    mj = p.major
    return LqgProblem(
        A=mj.A0, B=mj.B0, b=mj.b0, sigma=mj.sigma0,
        Qhat=mj.Qhat0, Q=mj.Q0, N_cross=mj.N0, R=mj.R0,
        eta=mj.Q0 @ mj.eta0, n_lin=mj.N0.T @ mj.eta0,
        rho=p.rho, grid=p.grid, x0=np.zeros((p.n, 1)),
    )


def minor_standalone(p, k):
    mn = p.minors[k]
    return LqgProblem(
        A=mn.Ak, B=mn.Bk, b=mn.bk, sigma=mn.sigmak,
        Qhat=mn.Qhatk, Q=mn.Qk, N_cross=mn.Nk, R=mn.Rk,
        eta=mn.Qk @ mn.etak, n_lin=mn.Nk.T @ mn.etak,
        rho=p.rho, grid=p.grid, x0=np.zeros((p.n, 1)),
    )


@pytest.fixture(scope="module")
def decoupled():
    p = decoupled_toy(M=200)
    sol = solve_consistency_finite(p, FixedPointConfig(theta=1.0))
    return p, sol


@pytest.fixture(scope="module")
def coupled():
    p = coupled_toy(M=100)
    sol = solve_consistency_finite(p)
    return p, sol


def test_decoupled_converges_in_two_iterations(decoupled):
    _, sol = decoupled
    assert sol.report.converged
    assert sol.report.iterations == 2
    # second evaluation reproduces the first exactly, so does the final one
    assert sol.report.residual_history[1] == 0.0
    assert sol.report.residual == 0.0


def test_decoupled_major_block_is_single_agent(decoupled):
    p, sol = decoupled
    n = p.n
    single = solve_finite_horizon(major_standalone(p))
    assert np.max(np.abs(sol.Pi0.values[:, :n, :n] - single.Pi.values)) <= 1e-10
    # cross and mean-field blocks never pick up mass
    assert np.all(sol.Pi0.values[:, :n, n:] == 0.0)
    assert np.all(sol.Pi0.values[:, n:, n:] == 0.0)
    assert np.max(np.abs(sol.s0.values[:, :n, :] - single.s.values)) <= 1e-10
    assert np.all(sol.s0.values[:, n:, :] == 0.0)


def test_decoupled_minor_blocks_are_single_agent(decoupled):
    p, sol = decoupled
    n = p.n
    for k in range(p.K):
        single = solve_finite_horizon(minor_standalone(p, k))
        assert np.max(np.abs(sol.Pik[k].values[:, :n, :n] - single.Pi.values)) <= 1e-10
        assert np.all(sol.Pik[k].values[:, :n, n:] == 0.0)
        assert np.max(np.abs(sol.sk[k].values[:, :n, :] - single.s.values)) <= 1e-10
        law = sol.minor_laws[k]
        single_law = single.law
        assert np.max(np.abs(law.K.values[:, :, :n] - single_law.K.values)) <= 1e-10
        assert np.all(law.K.values[:, :, n:] == 0.0)
        assert np.max(np.abs(law.k.values - single_law.k.values)) <= 1e-12


def test_decoupled_major_gain_matches_single_agent(decoupled):
    p, sol = decoupled
    n = p.n
    single = solve_finite_horizon(major_standalone(p)).law
    assert np.max(np.abs(sol.major_law.K.values[:, :, :n] - single.K.values)) <= 1e-10
    assert np.all(sol.major_law.K.values[:, :, n:] == 0.0)
    assert np.max(np.abs(sol.major_law.k.values - single.k.values)) <= 1e-12


def test_terminal_conditions_stored_exactly(coupled):
    _, sol = coupled
    assert np.array_equal(sol.Pi0.values[-1], sol.ext_major.Qhat)
    assert np.all(sol.s0.values[-1] == 0.0)
    for k, ext in enumerate(sol.ext_minors):
        assert np.array_equal(sol.Pik[k].values[-1], ext.Qhat)
        assert np.all(sol.sk[k].values[-1] == 0.0)


def test_riccati_matrices_symmetric_every_node(coupled):
    _, sol = coupled
    for P in [sol.Pi0] + sol.Pik:
        assert np.array_equal(P.values, np.transpose(P.values, (0, 2, 1)))


def test_exact_reiteration_changes_little(coupled):
    _, sol = coupled
    assert sol.report.converged
    assert sol.report.residual < 10.0 * 1e-8


def test_residual_history_monotone_tail(coupled):
    _, sol = coupled
    hist = sol.report.residual_history
    assert len(hist) == sol.report.iterations
    # once contracting, the tail should decay
    assert hist[-1] < hist[max(0, len(hist) - 4)]


def test_aggregation_identity_random_riccati_data():
    # closing the stacked dynamics with the averaged per-type feedback law
    # must reproduce the closure rows exactly, whatever (Pi_k, s_k) are
    p = coupled_toy(M=8)
    n, m, K = p.n, p.m, p.K
    d = 2 * n + n * K
    mf = build_mean_field_matrices(p)
    zero_Pi0 = GridFunction.constant(p.grid, np.zeros((n + n * K, n + n * K)))
    zero_s0 = GridFunction.constant(p.grid, np.zeros((n + n * K, 1)))
    major = build_extended_major(p, mf)
    ext_minors = [build_extended_minor(p, k, major, zero_Pi0, zero_s0) for k in range(K)]
    rng = np.random.default_rng(7)
    for _ in range(3):
        Piks, sks = [], []
        for k in range(K):
            raw = rng.normal(scale=0.5, size=(p.grid.num_nodes, d, d))
            Piks.append(GridFunction(p.grid, 0.5 * (raw + np.transpose(raw, (0, 2, 1)))))
            sks.append(GridFunction(p.grid, rng.normal(size=(p.grid.num_nodes, d, 1))))
        law = mean_field_law(
            p, [lqg_single._gain_tables(*agent) for agent in zip(ext_minors, Piks, sks)])
        for k in range(K):
            mn = p.minors[k]
            Rinv = np.linalg.inv(mn.Rk)
            e_k = selector(k, n, K)
            Bb = ext_minors[k].B
            Nx = ext_minors[k].N
            rows = slice(k * n, (k + 1) * n)
            for j in [0, 3, p.grid.num_steps]:
                Kfull = Rinv @ (Nx.T + Bb.T @ Piks[k].values[j])
                kfull = Rinv @ (ext_minors[k].nbar - Bb.T @ sks[k].values[j])
                c1, c2, c3 = Kfull[:, :n], Kfull[:, n:2 * n], Kfull[:, 2 * n:]
                A_row = mn.Ak @ e_k + replicate_pi(mn.Fk, p.pi) \
                    - mn.Bk @ (c1 @ e_k + c3)
                G_row = mn.Gk - mn.Bk @ c2
                m_row = mn.bk.values[j] + mn.Bk @ kfull
                assert np.allclose(law.Abar.values[j][rows], A_row, atol=1e-12)
                assert np.allclose(law.Gbar.values[j][rows], G_row, atol=1e-12)
                assert np.allclose(law.mbar.values[j][rows], m_row, atol=1e-12)


def test_damping_invariance():
    p = coupled_toy(M=100)
    sol_full = solve_consistency_finite(p, FixedPointConfig(theta=1.0))
    sol_half = solve_consistency_finite(p, FixedPointConfig(theta=0.5))
    d = max(
        np.max(np.abs(sol_full.mf_law.Abar.values - sol_half.mf_law.Abar.values)),
        np.max(np.abs(sol_full.mf_law.Gbar.values - sol_half.mf_law.Gbar.values)),
        np.max(np.abs(sol_full.mf_law.mbar.values - sol_half.mf_law.mbar.values)),
    )
    assert d < 1e-7
    assert np.max(np.abs(sol_full.Pi0.values - sol_half.Pi0.values)) < 1e-7


def test_default_solve_lands_near_the_fixed_point(coupled):
    # the undamped stop leaves the default law close to a tight solve
    p, sol = coupled
    tight = solve_consistency_finite(p, FixedPointConfig(theta=1.0, tol=1e-13))
    for name in ("Abar", "Gbar", "mbar"):
        d = getattr(sol.mf_law, name).values - getattr(tight.mf_law, name).values
        assert np.max(np.abs(d)) < 1e-8
    assert sol.report.iterations <= 10


def test_warm_start_converges_immediately(coupled):
    # an iteration started at the solved law would stop at once: one
    # evaluation of the consistency map there leaves a residual below tol
    p, sol = coupled
    x, evaluate = _consistency_map(p, sol.mf_law, lqg_single._solve_agent_finite,
                                   p.grid.num_nodes)
    fx, _ = evaluate(x)
    assert np.max(np.abs(fx - x)) < FixedPointConfig().tol


def test_stop_rule_reads_the_undamped_residual():
    # a small mixing weight shrinks every step; the stop must still see the
    # full residual max|F(law) - law| of the law it returns
    p = coupled_toy(M=20)
    sol = solve_consistency_finite(p, FixedPointConfig(theta=0.1))
    assert sol.report.converged
    assert sol.report.residual < 1e-8
    assert sol.report.residual == sol.report.residual_history[-1]


def test_non_convergence_raises_with_history():
    p = coupled_toy(M=20)
    with pytest.raises(FixedPointError) as exc:
        solve_consistency_finite(p, FixedPointConfig(theta=0.5, tol=1e-15, max_iters=2))
    assert len(exc.value.residual_history) == 2


def test_riccati_blowup_propagates():
    p = decoupled_toy(M=50)
    bad_major = dataclasses.replace(p.major, A0=np.array([[1e8, 0.0], [0.0, -0.3]]))
    bad = dataclasses.replace(p, major=bad_major)
    with pytest.raises(RiccatiBlowupError) as exc:
        solve_consistency_finite(bad, FixedPointConfig(theta=1.0))
    assert exc.value.node is not None


def test_validation_gate():
    p = decoupled_toy(M=20)
    bad = dataclasses.replace(p, pi=[0.7, 0.7])
    with pytest.raises(AssumptionViolationError):
        solve_consistency_finite(bad)


def test_config_rejects_bad_values():
    with pytest.raises(SchemaError):
        FixedPointConfig(theta=0.0)
    with pytest.raises(SchemaError):
        FixedPointConfig(theta=1.2)
    with pytest.raises(SchemaError):
        FixedPointConfig(tol=0.0)
    with pytest.raises(SchemaError):
        FixedPointConfig(max_iters=0)


def test_feedback_evaluators(coupled):
    p, sol = coupled
    t = 0.37
    d0 = p.n + p.n * p.K
    X = np.arange(1.0, d0 + 1.0).reshape(-1, 1)
    Y = np.ones((d0, 1))
    u_x = sol.major_law(t, X)
    u_xy = sol.major_law(t, X + Y)
    assert u_x.shape == (p.m, 1)
    # affine in the state with slope -K(t)
    assert np.allclose(u_xy - u_x, -sol.major_law.K.interp(t) @ Y, atol=1e-13)
    d = 2 * p.n + p.n * p.K
    Xi = np.linspace(-1.0, 1.0, d).reshape(-1, 1)
    for k in range(p.K):
        u = sol.minor_laws[k](t, Xi)
        assert u.shape == (p.m, 1)
        assert np.all(np.isfinite(u))


def test_mean_field_trajectory_matches_generic_integrator(decoupled):
    p, sol = decoupled
    nodes = p.grid.nodes
    x0_vals = np.stack(
        [np.sin(nodes), np.cos(nodes)], axis=1
    ).reshape(-1, p.n, 1)
    x0_path = GridFunction(p.grid, x0_vals)
    xbar0 = np.array([0.1, 0.2, -0.3, 0.4])
    xbar = mean_field_trajectory(sol, x0_path, xbar0)
    assert np.array_equal(xbar.values[0], xbar0.reshape(-1, 1))

    law = sol.mf_law

    def rhs(t, y):
        return law.Abar.interp(t) @ y + law.Gbar.interp(t) @ x0_path.interp(t) \
            + law.mbar.interp(t)

    ref = integrate_forward(rhs, xbar0.reshape(-1, 1), p.grid)
    assert np.max(np.abs(xbar.values - ref.values)) <= 1e-11


def test_mean_field_trajectory_rejects_bad_path(decoupled):
    p, sol = decoupled
    bad = GridFunction.constant(p.grid, np.zeros((p.n + 1, 1)))
    with pytest.raises(SchemaError):
        mean_field_trajectory(sol, bad)


@pytest.mark.parametrize("grid", [TimeGrid(1.0, 400), TimeGrid(2.0, 200)])
def test_mean_field_trajectory_rejects_a_path_on_another_grid(decoupled, grid):
    # a finer path, or one on another horizon, once returned a trajectory
    _, sol = decoupled
    assert grid != sol.problem.grid
    with pytest.raises(SchemaError) as err:
        mean_field_trajectory(sol, GridFunction.zeros(grid, sol.problem.n))
    assert err.value.field == "x0_path"


@pytest.mark.parametrize("xbar0", [[0.1, 0.2, 0.3], [0.1, np.nan, 0.3, 0.4]])
def test_mean_field_trajectory_rejects_a_bad_initial_mean_field(decoupled, xbar0):
    # the wrong length met a bare reshape error, and NaN diverged (exit 3)
    p, sol = decoupled
    with pytest.raises(SchemaError) as err:
        mean_field_trajectory(sol, GridFunction.zeros(p.grid, p.n), xbar0)
    assert err.value.field == "xbar0"


# ------------------------------------------------------------- stationary


@pytest.fixture(scope="module")
def stationary_decoupled():
    p = decoupled_toy(M=50, rho=0.5)
    return p, solve_consistency_infinite(p)


def test_stationary_decoupled_matches_single_agent(stationary_decoupled):
    p, sol = stationary_decoupled
    n = p.n
    single = solve_infinite_horizon(major_standalone(p))
    assert np.max(np.abs(sol.Pi0[:n, :n] - single.Pi)) <= 1e-8
    assert np.max(np.abs(sol.Pi0[:n, n:])) <= 1e-10
    assert np.max(np.abs(sol.s0[:n] - single.s)) <= 1e-8
    assert np.max(np.abs(sol.major_gain[:, :n] - single.K)) <= 1e-8
    for k in range(p.K):
        single_k = solve_infinite_horizon(minor_standalone(p, k))
        assert np.max(np.abs(sol.Pik[k][:n, :n] - single_k.Pi)) <= 1e-8
        assert np.max(np.abs(sol.sk[k][:n] - single_k.s)) <= 1e-8
        assert np.max(np.abs(sol.minor_gains[k][:, :n] - single_k.K)) <= 1e-8


def test_stationary_converges_with_small_residual(stationary_decoupled):
    _, sol = stationary_decoupled
    assert sol.report.converged
    assert sol.report.residual < 1e-7


def test_stationary_coupled_runs():
    p = coupled_toy(M=50, rho=0.5)
    sol = solve_consistency_infinite(p)
    assert sol.report.converged
    assert sol.report.residual < 1e-7
    assert np.all(np.isfinite(sol.Abar))
    assert np.all(np.isfinite(sol.mbar))


def test_stationary_map_reads_one_step_whatever_the_grid(monkeypatch):
    # the stationary problem reads node 0 only, so its extended systems are
    # built on two nodes and the solution does not depend on M
    nodes = []
    for name in ("build_extended_major", "build_extended_minor"):
        build = getattr(mfg_solver, name)

        def spy(*args, _build=build):
            ext = _build(*args)
            nodes.append(ext.A.values.shape[0])
            return ext

        monkeypatch.setattr(mfg_solver, name, spy)
    fine = solve_consistency_infinite(coupled_toy(M=400, rho=4.0))
    assert set(nodes) == {2}
    monkeypatch.undo()
    coarse = solve_consistency_infinite(coupled_toy(M=10, rho=4.0))
    for name in ("Pi0", "s0", "Abar", "Gbar", "mbar", "major_gain"):
        assert np.array_equal(getattr(coarse, name), getattr(fine, name))


def test_stationary_requires_positive_rho():
    p = decoupled_toy(M=20)
    with pytest.raises(SchemaError):
        solve_consistency_infinite(p)


def test_stationary_rejects_uncontrollable_unstable():
    p = decoupled_toy(M=20, rho=0.5)
    bad_major = dataclasses.replace(
        p.major,
        A0=np.array([[1.0, 0.0], [0.0, -0.3]]),
        B0=np.zeros((2, 1)),
    )
    bad = dataclasses.replace(p, major=bad_major)
    with pytest.raises(AssumptionViolationError) as exc:
        solve_consistency_infinite(bad)
    assert "stabilizability" in str(exc.value)


def test_stationary_warm_start_returns_after_one_evaluation():
    # one evaluation of the stationary map (one-step grid, node 0) at the
    # solved law returns that law, Pi0 and s0 bit for bit, and its
    # residual is below tol: an iteration started there would stop at once
    p = coupled_toy(M=10, rho=4.0)
    sol = solve_consistency_infinite(p)
    q = mfg_solver._one_step(p)
    law = MeanFieldLaw(*(GridFunction.constant(q.grid, v)
                         for v in (sol.Abar, sol.Gbar, sol.mbar)))
    x, evaluate = _consistency_map(q, law, _solve_agent_stationary, 1)
    fx, (again, _, Pi0, s0, *_) = evaluate(x)
    assert sol.report.iterations > 1
    assert np.max(np.abs(fx - x)) < FixedPointConfig().tol
    assert np.array_equal(Pi0.values[0], sol.Pi0) and np.array_equal(s0.values[0], sol.s0)
    for name in ("Abar", "Gbar", "mbar"):
        assert np.array_equal(getattr(again, name).values[0], getattr(sol, name))


def test_long_finite_horizon_matches_the_stationary_solution():
    # at t = 0 of a horizon 20 discount times long, the finite solution of
    # a constant-drift game sits on the stationary one: a check of both
    # per-agent solvers against each other through the one consistency map
    p = coupled_toy(M=10, rho=4.0)
    long = dataclasses.replace(
        p, grid=TimeGrid(5.0, 125),
        major=dataclasses.replace(p.major, b0=p.major.b0.values[0]),
        minors=[dataclasses.replace(mn, bk=mn.bk.values[0]) for mn in p.minors],
    )
    fin = solve_consistency_finite(long)
    st = solve_consistency_infinite(long)
    pairs = [
        (fin.Pi0, st.Pi0), (fin.s0, st.s0), (fin.mf_law.Abar, st.Abar),
        (fin.mf_law.Gbar, st.Gbar), (fin.mf_law.mbar, st.mbar),
        (fin.major_law.K, st.major_gain), (fin.major_law.k, st.major_feedforward),
    ]
    for k in range(p.K):
        pairs += [(fin.Pik[k], st.Pik[k]), (fin.sk[k], st.sk[k]),
                  (fin.minor_laws[k].K, st.minor_gains[k]),
                  (fin.minor_laws[k].k, st.minor_feedforward[k])]
    for table, stationary in pairs:
        assert np.max(np.abs(table.values[0] - stationary)) < 1e-7


def test_one_agent_type_and_one_call_site_per_agent_solver():
    # every agent, a standalone LQG problem or a game agent, is one
    # ExtendedSystem, and each per-agent numerical routine is reached from
    # one place in the package, so no second per-horizon or per-agent path
    # can creep back
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(mmlqg.__file__).parent.glob("*.py"))}
    classes = [(module, node.name) for module, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name.startswith("Extended")]
    assert classes == [("lqg_single", "ExtendedSystem")]
    p = coupled_toy(M=4)
    law = mfg_solver._initial_law(p)
    major = build_extended_major(p, law)
    d0 = major.dim
    minor = build_extended_minor(p, 0, major, GridFunction.zeros(p.grid, d0, d0),
                                 GridFunction.zeros(p.grid, d0))
    single = major_standalone(p)._agent()
    assert type(major) is type(minor) is type(single) is lqg_single.ExtendedSystem

    calls = collections.Counter(
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    )
    for name in ("_riccati_sweep", "_offset_sweep", "_steady_offset"):
        assert calls[name] == 1, name


def test_one_evaluation_builds_the_major_once(monkeypatch):
    # each minor reads the major's record for the same law, not a rebuild
    calls = []
    build = mfg_model.build_extended_major

    def counted(*args):
        calls.append(args)
        return build(*args)

    for module in (mfg_model, mfg_solver):
        monkeypatch.setattr(module, "build_extended_major", counted)
    p = coupled_toy(M=8)
    x0, evaluate = mfg_solver._consistency_map(
        p, mfg_solver._initial_law(p), lqg_single._solve_agent_finite, p.grid.num_nodes)
    calls.clear()
    evaluate(x0)
    assert len(calls) == 1


def test_the_solver_forms_no_extended_weight():
    # mfg_model alone forms the agents' weights and Hautus factors; the
    # solver reads the records and the minors' laws it gets back
    tree = ast.parse(Path(mfg_solver.__file__).read_text())
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attributes & {"H0", "Hk", "Hhatk", "Q0", "Qk"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "psd_sqrt" not in names


def test_the_solver_holds_no_agent_solve_and_no_law_former():
    # the agent solves live in lqg_single and the mean-field law's one
    # former in mfg_model: the solver only iterates
    tree = ast.parse(Path(mfg_solver.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not names & {"minor_closed_loop", "replicate_pi", "selector",
                        "solve_discounted_are", "hautus_report", "_steady_offset",
                        "_solve_agents_stationary", "_closure_law"}


def test_a_stationary_stack_rounds_each_member_as_alone():
    # the minors of one evaluation of the stationary map, at the initial
    # law, solved as one stack and each as a one-member stack
    q = mfg_solver._one_step(coupled_toy(M=10, rho=4.0))
    major = build_extended_major(q, mfg_solver._initial_law(q))
    (Pi0,), (s0,) = _solve_agent_stationary([major], q.rho)
    minors = [build_extended_minor(q, k, major, Pi0, s0) for k in range(q.K)]
    assert len(minors) > 1
    reports = []
    Piks, sks = _solve_agent_stationary(minors, q.rho, reports)
    for ext, Pi, s, report in zip(minors, Piks, sks, reports):
        alone = []
        (Pi1,), (s1,) = _solve_agent_stationary([ext], q.rho, alone)
        assert Pi.grid is s.grid is q.grid
        assert np.array_equal(Pi.values, Pi1.values) and np.array_equal(s.values, s1.values)
        assert report == alone[0]


def test_both_stationary_front_ends_share_the_drift_check():
    p = coupled_toy(M=4, rho=4.0)
    varying = dataclasses.replace(p, minors=[p.minors[0], dataclasses.replace(
        p.minors[1], bk=np.linspace(0.0, 1.0, 10).reshape(5, 2))])
    with pytest.raises(SchemaError) as err:
        solve_consistency_infinite(varying)
    assert err.value.field == "minors[1].bk"
    with pytest.raises(SchemaError) as err:
        solve_infinite_horizon(dataclasses.replace(major_standalone(varying), b=np.linspace(
            0.0, 1.0, 10).reshape(5, 2)))
    assert err.value.field == "b"
    assert err.value.detail == "must be constant for the stationary problem"


def test_stationary_cross_weight_game_solves_with_a_stable_closed_loop():
    # with N0 != 0 the major's closed loop is A - B R^{-1}(N' + B' Pi)
    # - rho/2; a check that leaves out N' rejected this valid equilibrium
    rho = 1.0
    one, zero = [[1.0]], [[0.0]]
    p = mfg_model.MmMfgProblem(
        major=mfg_model.MajorParams(
            A0=[[rho / 2 + 0.5]], F0=zero, B0=one, b0=zero, sigma0=zero,
            Qhat0=one, Q0=one, N0=one, R0=one, H0=zero, eta0=zero),
        minors=[mfg_model.MinorTypeParams(
            Ak=[[-1.0]], Fk=zero, Gk=[[0.1]], Bk=one, bk=zero, sigmak=zero,
            Qhatk=one, Qk=one, Nk=zero, Rk=one, Hk=zero, Hhatk=zero,
            etak=zero)],
        pi=[1.0], grid=TimeGrid(1.0, 4), rho=rho,
    )
    sol = solve_consistency_infinite(p)
    assert np.max(np.abs(sol.Pi0)) < 1e-12
    assert np.allclose(sol.major_gain, [[1.0, 0.0]], atol=1e-12)
    A = np.array([[p.major.A0[0, 0], 0.0], [sol.Gbar[0, 0], sol.Abar[0, 0]]])
    B = np.array([[1.0], [0.0]])
    closed = A - B @ sol.major_gain - 0.5 * rho * np.eye(2)
    assert np.max(np.linalg.eigvals(closed).real) < 0
