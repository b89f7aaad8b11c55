import dataclasses

import numpy as np
import pytest

from mmlqg.errors import (
    AssumptionViolationError,
    FixedPointError,
    RiccatiBlowupError,
    SchemaError,
)
from mmlqg.lqg_single import LqgProblem, solve_finite_horizon, solve_infinite_horizon
from mmlqg.mfg_model import build_extended_minor, build_mean_field_matrices, selector, replicate_pi
from mmlqg.mfg_solver import (
    FixedPointConfig,
    MeanFieldLaw,
    _closure_law,
    _stationary_map,
    equilibrium_feedback_major,
    equilibrium_feedback_minor,
    mean_field_trajectory,
    solve_consistency_finite,
    solve_consistency_infinite,
)
from mmlqg.numerics import GridFunction
from mmlqg.toys import coupled_toy, decoupled_toy
from oracles import integrate_forward


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
        single_law = single.law()
        assert np.max(np.abs(law.K.values[:, :, :n] - single_law.K.values)) <= 1e-10
        assert np.all(law.K.values[:, :, n:] == 0.0)
        assert np.max(np.abs(law.k.values - single_law.k.values)) <= 1e-12


def test_decoupled_major_gain_matches_single_agent(decoupled):
    p, sol = decoupled
    n = p.n
    single = solve_finite_horizon(major_standalone(p)).law()
    assert np.max(np.abs(sol.major_law.K.values[:, :, :n] - single.K.values)) <= 1e-10
    assert np.all(sol.major_law.K.values[:, :, n:] == 0.0)
    assert np.max(np.abs(sol.major_law.k.values - single.k.values)) <= 1e-12


def test_terminal_conditions_stored_exactly(coupled):
    _, sol = coupled
    assert np.array_equal(sol.Pi0.values[-1], sol.ext_major.G0ext)
    assert np.all(sol.s0.values[-1] == 0.0)
    for k, ext in enumerate(sol.ext_minors):
        assert np.array_equal(sol.Pik[k].values[-1], ext.Gkext)
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
    ext_minors = [build_extended_minor(p, k, zero_Pi0, zero_s0, mf) for k in range(K)]
    rng = np.random.default_rng(7)
    for _ in range(3):
        Piks, sks = [], []
        for k in range(K):
            raw = rng.normal(scale=0.5, size=(p.grid.num_nodes, d, d))
            Piks.append(GridFunction(p.grid, 0.5 * (raw + np.transpose(raw, (0, 2, 1)))))
            sks.append(GridFunction(p.grid, rng.normal(size=(p.grid.num_nodes, d, 1))))
        law = MeanFieldLaw(*(GridFunction(p.grid, v) for v in _closure_law(
            p, ext_minors, [P.values[:, :n] for P in Piks],
            [s.values[:, :n] for s in sks], mf.mbreve.values)))
        for k in range(K):
            mn = p.minors[k]
            Rinv = np.linalg.inv(mn.Rk)
            e_k = selector(k, n, K)
            Bb = ext_minors[k].Bbk
            Nx = ext_minors[k].Nkext
            rows = slice(k * n, (k + 1) * n)
            for j in [0, 3, p.grid.num_steps]:
                Kfull = Rinv @ (Nx.T + Bb.T @ Piks[k].values[j])
                kfull = Rinv @ (ext_minors[k].nbark - Bb.T @ sks[k].values[j])
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
    p, sol = coupled
    cfg = FixedPointConfig(theta=1.0, initial_law=sol.mf_law)
    resolved = solve_consistency_finite(p, cfg)
    assert resolved.report.iterations <= 5
    assert resolved.report.residual < 1e-8


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
    u_x = equilibrium_feedback_major(sol, t, X)
    u_xy = equilibrium_feedback_major(sol, t, X + Y)
    assert u_x.shape == (p.m, 1)
    # affine in the state with slope -K(t)
    assert np.allclose(u_xy - u_x, -sol.major_law.K.interp(t) @ Y, atol=1e-13)
    d = 2 * p.n + p.n * p.K
    Xi = np.linspace(-1.0, 1.0, d).reshape(-1, 1)
    for k in range(p.K):
        u = equilibrium_feedback_minor(sol, k, t, Xi)
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


def test_stationary_map_reads_one_step_whatever_the_grid():
    # the stationary problem reads node 0 only, so its extended systems are
    # built on two nodes and the solution does not depend on M
    x0, evaluate = _stationary_map(coupled_toy(M=400, rho=4.0))
    _, (_, ext0, _, _, ext_minors, _, _) = evaluate(x0)
    assert ext0.Atilde0.values.shape[0] == 2
    assert all(ext.Atildek.values.shape[0] == 2 for ext in ext_minors)
    coarse = solve_consistency_infinite(coupled_toy(M=10, rho=4.0))
    fine = solve_consistency_infinite(coupled_toy(M=400, rho=4.0))
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
