"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test is one numbered criterion; the conftest plugin prints one
PASS/FAIL line per criterion at the end of the run.  Budgets use wall
time on the current machine, measured around the computational core.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.optimize

from mmlqg import (
    FixedPointConfig,
    GridFunction,
    LqgProblem,
    TimeGrid,
    cli_app,
    expected_cost,
    gap_vs_population,
    gateaux_derivative_det,
    mean_field_convergence_study,
    solve_consistency_finite,
    solve_finite_horizon,
    solve_infinite_horizon,
)
from mmlqg.errors import AssumptionViolationError
from mmlqg.lqg_single import _stage_values
from mmlqg.numerics import rk4_forward_indexed
from mmlqg.toys import coupled_toy, decoupled_toy


def scalar_problem(**kw):
    args = dict(
        A=[[0.0]], B=[[1.0]], b=[[0.0]], sigma=[[0.0]],
        Qhat=[[0.0]], Q=[[1.0]], N_cross=[[0.0]], R=[[1.0]],
        eta=[[0.0]], n_lin=[[0.0]], rho=0.0,
        grid=TimeGrid(1.0, 400), x0=[[1.0]],
    )
    args.update(kw)
    return LqgProblem(**args)


def rich_scalar_problem(M=400, T=1.0):
    return scalar_problem(
        A=[[0.2]], b=[[0.1]], Qhat=[[0.5]], Q=[[1.0]], N_cross=[[0.1]],
        eta=[[0.2]], n_lin=[[0.1]], rho=0.1,
        grid=TimeGrid(T, M), x0=[[1.2]],
    )


def two_state_problem(M):
    return LqgProblem(
        A=[[0.1, 0.3], [0.0, -0.2]], B=[[1.0, 0.0], [0.2, 1.0]],
        b=np.array([[0.05], [-0.1]]), sigma=np.zeros((2, 1)),
        Qhat=[[0.4, 0.1], [0.1, 0.3]], Q=[[1.0, 0.2], [0.2, 0.8]],
        N_cross=[[0.1, 0.0], [0.05, 0.1]], R=[[1.0, 0.1], [0.1, 0.8]],
        eta=[[0.1], [0.2]], n_lin=[[0.05], [-0.02]], rho=0.15,
        grid=TimeGrid(1.0, M), x0=[[0.8], [-0.5]],
    )


def _resampled_optimum(p, sol):
    # optimal feedback replayed as an open-loop control along its own
    # deterministic trajectory
    law = sol.law
    Kq, kq, bq = _stage_values(law.K), _stage_values(law.k), _stage_values(p.b)

    def rhs(q, x):
        return (p.A - p.B @ Kq[q]) @ x + p.B @ kq[q] + bq[q]

    x = rk4_forward_indexed(rhs, p.x0, p.grid)
    u = -np.einsum("jab,jbc->jac", law.K.values, x.values) + law.k.values
    return GridFunction(p.grid, u)


def _random_fourier(rng, grid, m):
    t = grid.nodes
    vals = np.zeros((t.size, m, 1))
    for a in range(m):
        for f in range(1, 5):
            vals[:, a, 0] += rng.standard_normal() * np.sin(f * t) \
                + rng.standard_normal() * np.cos(f * t)
    return GridFunction(grid, vals)


@pytest.fixture(scope="module")
def coupled400():
    p = coupled_toy(M=400)
    start = time.monotonic()
    sol = solve_consistency_finite(p)
    return p, sol, time.monotonic() - start


@pytest.fixture(scope="module")
def decoupled400():
    p = decoupled_toy(M=400)
    start = time.monotonic()
    sol = solve_consistency_finite(p, FixedPointConfig(theta=1.0))
    return p, sol, time.monotonic() - start


def test_criterion_1_scalar_riccati_oracle():
    p = scalar_problem()
    start = time.monotonic()
    sol = solve_finite_horizon(p)
    elapsed = time.monotonic() - start
    err = abs(sol.Pi.values[0][0, 0] - math.tanh(1.0))
    assert err < 1e-6, f"Pi(0) off closed form by {err:.3e}"
    assert elapsed < 0.1, f"solve took {elapsed:.3f}s"


def test_criterion_2_euler_equality():
    start = time.monotonic()
    p = two_state_problem(M=1600)
    sol = solve_finite_horizon(p)
    u_star = _resampled_optimum(p, sol)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        omega = _random_fourier(rng, p.grid, p.m)
        worst = max(worst, abs(gateaux_derivative_det(p, u_star, omega)))
    assert worst < 1e-6, f"derivative at the optimum reaches {worst:.3e}"

    # derivative oracle against central differences at a non-optimal control
    u = _random_fourier(rng, p.grid, p.m)
    omega = _random_fourier(rng, p.grid, p.m)
    deriv = gateaux_derivative_det(p, u, omega)
    eps = 1e-4
    up = GridFunction(p.grid, u.values + eps * omega.values)
    dn = GridFunction(p.grid, u.values - eps * omega.values)
    fd = (expected_cost(p, up) - expected_cost(p, dn)) / (2 * eps)
    rel = abs(deriv - fd) / max(1.0, abs(fd))
    assert rel < 1e-5, f"finite-difference mismatch {rel:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion took {elapsed:.2f}s"


def test_criterion_3_brute_force_optimality():
    start = time.monotonic()
    p = rich_scalar_problem(M=400)
    sol = solve_finite_horizon(p)
    J_star = expected_cost(p, sol.law)

    # piecewise-constant control on 20 equal intervals, nodes take the
    # value of the interval containing them
    M = p.grid.num_steps
    idx = np.minimum(np.arange(M + 1) * 20 // M, 19)

    def J(c):
        return expected_cost(p, GridFunction(p.grid, c[idx][:, None, None]))

    res = scipy.optimize.minimize(J, np.zeros(20), method="L-BFGS-B")
    assert res.success
    assert abs(res.fun - J_star) < 1e-3, \
        f"open-loop optimum misses J* by {res.fun - J_star:.3e}"
    assert res.fun >= J_star - 1e-6  # restricted class cannot beat the optimum
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion took {elapsed:.2f}s"


def test_criterion_4_extended_terminal_conditions(coupled400):
    p, sol, _ = coupled400
    assert np.array_equal(sol.Pi0.values[-1], sol.ext_major.Qhat)
    for k in range(p.K):
        assert np.array_equal(sol.Pik[k].values[-1], sol.ext_minors[k].Qhat)
    assert np.all(sol.s0.values[-1] == 0.0)
    for k in range(p.K):
        assert np.all(sol.sk[k].values[-1] == 0.0)


def test_criterion_5_consistency_fixed_point(coupled400, decoupled400):
    _, solc, secs_c = coupled400
    assert solc.report.converged
    assert solc.report.residual < 1e-7, \
        f"coupled residual {solc.report.residual:.3e}"
    assert secs_c < 60.0, f"coupled solve took {secs_c:.1f}s"

    pd, sold, secs_d = decoupled400
    assert sold.report.iterations <= 2, \
        f"decoupled took {sold.report.iterations} iterations"
    assert secs_d < 60.0

    # with all couplings off, each extended block must reproduce the
    # agent's standalone solution
    n, m = pd.n, pd.m
    own = slice(0, n)
    mj = pd.major
    standalone = LqgProblem(
        A=mj.A0, B=mj.B0, b=mj.b0, sigma=mj.sigma0, Qhat=mj.Qhat0, Q=mj.Q0,
        N_cross=mj.N0, R=mj.R0, eta=np.zeros((n, 1)), n_lin=np.zeros((m, 1)),
        rho=pd.rho, grid=pd.grid, x0=np.zeros((n, 1)))
    lqg = solve_finite_horizon(standalone)
    assert float(np.abs(sold.Pi0.values[:, own, own] - lqg.Pi.values).max()) < 1e-8
    for k, mn in enumerate(pd.minors):
        standalone = LqgProblem(
            A=mn.Ak, B=mn.Bk, b=mn.bk, sigma=mn.sigmak, Qhat=mn.Qhatk,
            Q=mn.Qk, N_cross=mn.Nk, R=mn.Rk, eta=np.zeros((n, 1)),
            n_lin=np.zeros((m, 1)), rho=pd.rho, grid=pd.grid,
            x0=np.zeros((n, 1)))
        lqg = solve_finite_horizon(standalone)
        gap = float(np.abs(sold.Pik[k].values[:, own, own] - lqg.Pi.values).max())
        assert gap < 1e-8, f"type {k} strays {gap:.3e} from standalone"


def test_criterion_6_mean_field_convergence(coupled400):
    p, sol, _ = coupled400
    start = time.monotonic()
    study = mean_field_convergence_study(p, sol, [16, 64, 256, 1024])
    elapsed = time.monotonic() - start
    assert abs(study.slope - (-0.5)) <= 0.15, \
        f"log-log slope {study.slope:.4f}"
    rms = [v for _, v in study.rows]
    assert all(a > b for a, b in zip(rms, rms[1:]))  # monotone in N
    assert elapsed < 300.0, f"study took {elapsed:.1f}s"


def test_criterion_7_epsilon_nash_gap(coupled400, decoupled400):
    pc, solc, _ = coupled400
    pd, sold, _ = decoupled400
    start = time.monotonic()
    coupled = gap_vs_population(pc, solc, [2, 32])
    decoupled = gap_vs_population(pd, sold, [2, 32])
    elapsed = time.monotonic() - start

    for table in (coupled, decoupled):
        for row in table.rows:
            assert row.major_gap >= -1e-8
            assert all(g >= -1e-8 for g in row.type_gaps)

    for row in decoupled.rows:
        assert row.max_gap <= 1e-6, \
            f"decoupled N={row.N} max gap {row.max_gap:.3e}"

    small, large = coupled.rows[0], coupled.rows[1]
    assert (small.N, large.N) == (2, 32)
    assert large.major_gap < 0.5 * small.major_gap, \
        f"major gap {large.major_gap:.3e} vs {small.major_gap:.3e}"
    for k, (g2, g32) in enumerate(zip(small.type_gaps, large.type_gaps)):
        assert g32 < 0.5 * g2, f"type {k} gap {g32:.3e} vs {g2:.3e}"
    assert elapsed < 600.0, f"gap sweep took {elapsed:.1f}s"


def test_criterion_8_infinite_horizon():
    st = solve_infinite_horizon(scalar_problem())
    assert abs(st.Pi[0, 0] - 1.0) < 1e-8, f"stationary Pi {st.Pi[0, 0]!r}"

    stationary = solve_infinite_horizon(rich_scalar_problem(M=400))
    long = solve_finite_horizon(rich_scalar_problem(M=20000, T=50.0))
    assert abs(long.Pi.values[0][0, 0] - stationary.Pi[0, 0]) < 1e-4
    assert abs(long.s.values[0][0, 0] - stationary.s[0, 0]) < 1e-4

    with pytest.raises(AssumptionViolationError):
        solve_infinite_horizon(scalar_problem(A=[[1.0]], B=[[0.0]]))


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "kind": "mfg",
        "grid": {"T": 1.0, "M": 40},
        "pi": [0.6, 0.4],
        "major": {"A0": [[0.1, 0.2], [0.0, -0.3]], "B0": [[1.0], [0.5]],
                  "F0": [[0.3, 0.0], [0.1, 0.2]],
                  "H0": [[0.4, 0.0], [0.0, 0.3]],
                  "sigma0": [[0.2, 0.0], [0.0, 0.2]],
                  "Qhat0": [[0.5, 0.0], [0.0, 0.5]],
                  "Q0": [[1.0, 0.0], [0.0, 1.0]], "R0": [[1.0]]},
        "minors": [
            {"Ak": [[-0.2, 0.1], [0.0, -0.4]], "Bk": [[1.0], [0.3]],
             "Gk": [[0.3, 0.0], [0.1, 0.2]],
             "sigmak": [[0.2, 0.0], [0.0, 0.2]],
             "Qhatk": [[0.4, 0.0], [0.0, 0.4]],
             "Qk": [[1.0, 0.0], [0.0, 1.0]], "Rk": [[1.0]]},
            {"Ak": [[0.0, -0.1], [0.2, -0.5]], "Bk": [[0.8], [1.0]],
             "sigmak": [[0.2, 0.0], [0.0, 0.2]],
             "Qhatk": [[0.3, 0.0], [0.0, 0.3]],
             "Qk": [[1.2, 0.0], [0.0, 1.2]], "Rk": [[1.2]]},
        ],
        "population": {"N": 6, "num_paths": 3, "master_seed": 11},
        "nash": {"Ns": [2, 3]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(command, out, threads):
        code = cli_app.main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / out),
                             "--threads", str(threads)])
        assert code == 0
        return {f.name: f.read_bytes() for f in (tmp_path / out).iterdir()
                if f.name != "manifest.json"}

    for command in ("nash-gap", "simulate"):
        first = run(command, command + "-a", 1)
        again = run(command, command + "-b", 1)
        wide = run(command, command + "-c", 4)
        assert first and first == again, f"{command} rerun differs"
        assert first == wide, f"{command} output depends on --threads"
