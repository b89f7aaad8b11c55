"""Single-agent LQG: Riccati oracles, cost and derivative cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmlqg.errors import (
    AssumptionViolationError,
    OutOfRangeError,
    RiccatiBlowupError,
    SchemaError,
    UnsupportedOracleError,
)
from mmlqg.lqg_single import (
    FeedbackLaw,
    LqgProblem,
    LqgSolution,
    _gain_tables,
    _homogeneous,
    _policy_quadratic,
    _solve_agent_stationary,
    closed_loop_cost_moments,
    costate_oracle,
    expected_cost,
    gateaux_derivative_det,
    hautus_report,
    psd_sqrt,
    solve_discounted_are,
    solve_finite_horizon,
    solve_infinite_horizon,
    spd_solver,
    validate_convexity,
)
from mmlqg.numerics import GridFunction, TimeGrid
from oracles import one_loop_costs


def scalar_problem(**kw):
    args = dict(
        A=[[0.0]], B=[[1.0]], b=[[0.0]], sigma=[[0.0]],
        Qhat=[[0.0]], Q=[[1.0]], N_cross=[[0.0]], R=[[1.0]],
        eta=[[0.0]], n_lin=[[0.0]], rho=0.0,
        grid=TimeGrid(1.0, 400), x0=[[1.0]],
    )
    args.update(kw)
    return LqgProblem(**args)


def rich_scalar_problem(M=400, sigma=0.0):
    # every term exercised, magnitudes kept moderate
    return scalar_problem(
        A=[[0.2]], B=[[1.0]], b=[[0.1]], sigma=[[sigma]],
        Qhat=[[0.5]], Q=[[1.0]], N_cross=[[0.1]], R=[[1.0]],
        eta=[[0.2]], n_lin=[[0.1]], rho=0.1,
        grid=TimeGrid(1.0, M), x0=[[1.2]],
    )


def two_state_problem(M=400):
    return LqgProblem(
        A=[[0.1, 0.3], [0.0, -0.2]],
        B=[[1.0, 0.0], [0.2, 1.0]],
        b=np.array([[0.05], [-0.1]]),
        sigma=np.zeros((2, 1)),
        Qhat=[[0.4, 0.1], [0.1, 0.3]],
        Q=[[1.0, 0.2], [0.2, 0.8]],
        N_cross=[[0.1, 0.0], [0.05, 0.1]],
        R=[[1.0, 0.1], [0.1, 0.8]],
        eta=[[0.1], [0.2]],
        n_lin=[[0.05], [-0.02]],
        rho=0.15,
        grid=TimeGrid(1.0, M),
        x0=[[0.8], [-0.5]],
    )


# ---------------------------------------------------------------- convexity


def test_convexity_all_pass():
    p = scalar_problem()
    rep = validate_convexity(p)
    assert rep.ok
    assert len(rep.checks) == 3


def test_convexity_r_not_pd():
    p = scalar_problem(R=[[0.0]])
    rep = validate_convexity(p)
    assert not rep.ok
    assert any("R" in c.name and not c.passed for c in rep.checks)


def test_convexity_boundary_exact():
    # Q = N R^{-1} N' exactly: passes at tol 0
    p = scalar_problem(Q=[[1.0]], N_cross=[[1.0]], R=[[1.0]])
    rep = validate_convexity(p, tol=0.0)
    assert rep.ok


# ------------------------------------------------------------- R^-1 solver


def _spd(seed, m, log_cond):
    """Random symmetric matrix with eigenvalues from 1 to 10^log_cond."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    w = np.logspace(0.0, log_cond, m)
    return (V * w) @ V.T, rng


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6),
       log_cond=st.floats(0.0, 8.0))
def test_spd_solver_agrees_with_scipy_cho_solve(seed, m, log_cond):
    R, rng = _spd(seed, m, log_cond)
    X = rng.standard_normal((m, 3))
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(R, lower=True), X)
    got = spd_solver(R)(X)
    cond = np.linalg.cond(R)
    assert np.linalg.norm(got - ref) <= 1e-12 * cond * np.linalg.norm(ref)
    Rinv = spd_solver(R)(np.eye(m))
    assert np.array_equal(Rinv, Rinv.T)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6),
       neg=st.floats(0.01, 10.0))
def test_spd_solver_rejects_an_indefinite_matrix(seed, m, neg):
    R, _ = _spd(seed, m, 2.0)
    v = R[:, :1] / np.linalg.norm(R[:, :1])
    R = R - (neg + 200.0) * (v @ v.T)   # v'Rv <= 100, so v'Rv - neg - 200 < 0
    with pytest.raises(AssumptionViolationError):
        spd_solver(R)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spd_solver_rejects_non_finite_weights(bad):
    # np.linalg.cholesky([[nan]]) returns [[nan]] without complaint
    with pytest.raises(AssumptionViolationError, match="non-finite"):
        spd_solver([[bad]])
    with pytest.raises(AssumptionViolationError, match="non-finite"):
        spd_solver([[2.0, 0.0], [0.0, bad]])


def test_spd_solver_lets_non_finite_right_hand_sides_through():
    out = spd_solver([[4.0]])(np.array([[math.nan, 8.0]]))
    assert math.isnan(out[0, 0]) and out[0, 1] == 2.0


# ---------------------------------------------------------- finite horizon


def test_riccati_tanh_oracle():
    p = scalar_problem()
    sol = solve_finite_horizon(p)
    assert abs(sol.Pi.values[0][0, 0] - math.tanh(1.0)) < 1e-8
    assert np.max(np.abs(sol.s.values)) == 0.0


def test_homogeneous_offset_is_zero():
    p = scalar_problem(Qhat=[[0.7]], Q=[[2.0]], A=[[0.3]])
    sol = solve_finite_horizon(p)
    assert np.max(np.abs(sol.s.values)) == 0.0


def test_terminal_condition_bit_exact():
    p = LqgProblem(
        A=np.zeros((2, 2)), B=np.eye(2), b=np.zeros((2, 1)),
        sigma=np.zeros((2, 1)), Qhat=np.diag([2.0, 3.0]), Q=np.eye(2),
        N_cross=np.zeros((2, 2)), R=np.eye(2), eta=np.zeros((2, 1)),
        n_lin=np.zeros((2, 1)), rho=0.0, grid=TimeGrid(1.0, 50),
        x0=np.zeros((2, 1)),
    )
    sol = solve_finite_horizon(p)
    assert np.array_equal(sol.Pi.values[-1], np.diag([2.0, 3.0]))
    assert np.array_equal(sol.s.values[-1], np.zeros((2, 1)))


def test_pi_symmetric_all_nodes():
    sol = solve_finite_horizon(two_state_problem(M=100))
    for j in range(101):
        assert np.array_equal(sol.Pi.values[j], sol.Pi.values[j].T)


def test_solve_rejects_nonconvex():
    p = scalar_problem(Q=[[-1.0]])
    with pytest.raises(AssumptionViolationError):
        solve_finite_horizon(p)


def test_riccati_blowup_reported():
    # enormous drift makes the fixed-step sweep overflow
    p = scalar_problem(A=[[1e8]], grid=TimeGrid(1.0, 100))
    with pytest.raises(RiccatiBlowupError) as exc:
        solve_finite_horizon(p)
    assert exc.value.node is not None


def test_riccati_monotone_in_q():
    base = two_state_problem(M=150)
    bumped = two_state_problem(M=150)
    bumped.Q = base.Q + np.array([[0.5, 0.1], [0.1, 0.3]])
    Pi_a = solve_finite_horizon(base).Pi.values[0]
    Pi_b = solve_finite_horizon(bumped).Pi.values[0]
    assert np.min(np.linalg.eigvalsh(Pi_b - Pi_a)) > -1e-9


# --------------------------------------------------------------- feedback


def _handmade_solution(grid, Pi, s, K, k):
    return LqgSolution(
        Pi=GridFunction.constant(grid, Pi),
        s=GridFunction.constant(grid, s),
        law=FeedbackLaw(GridFunction.constant(grid, K), GridFunction.constant(grid, k)),
    )


def test_feedback_zero_everything():
    g = TimeGrid(1.0, 10)
    sol = _handmade_solution(g, [[0.0]], [[0.0]], [[0.0]], [[0.0]])
    assert sol.law(0.3, [[5.0]]) == pytest.approx(0.0)


def test_feedback_scalar_arithmetic():
    # Pi=1, B=R=1, N=0, s=0: K = 1, u(x=2) = -2
    g = TimeGrid(1.0, 10)
    sol = _handmade_solution(g, [[1.0]], [[0.0]], [[1.0]], [[0.0]])
    assert sol.law(0.5, [[2.0]])[0, 0] == pytest.approx(-2.0)


def test_feedback_feedforward_only():
    # x=0, s=0, N=0: u = R^{-1} n, i.e. k = R^{-1} n
    g = TimeGrid(1.0, 10)
    n_lin = 0.35
    sol = _handmade_solution(g, [[2.0]], [[0.0]], [[2.0]], [[n_lin]])
    assert sol.law(0.1, [[0.0]])[0, 0] == pytest.approx(n_lin)


def test_feedback_rejects_a_malformed_state():
    g = TimeGrid(1.0, 10)
    law = FeedbackLaw(GridFunction.constant(g, np.eye(2)), GridFunction.zeros(g, 2))
    assert law(0.5, [1.0, 2.0]).shape == (2, 1)
    for bad in ([1.0, 2.0, 3.0], [1.0], "ab", [np.nan, 1.0]):
        with pytest.raises(SchemaError) as err:
            law(0.5, bad)
        assert err.value.field == "x"


def test_feedback_out_of_range():
    g = TimeGrid(1.0, 10)
    sol = _handmade_solution(g, [[1.0]], [[0.0]], [[1.0]], [[0.0]])
    with pytest.raises(OutOfRangeError):
        sol.law(1.5, [[1.0]])


# ------------------------------------------------------------ expected cost


def test_policy_quadratic_matches_direct_running_cost():
    # random stage tables for the law, independent eta, nbar and c0
    rng = np.random.default_rng(11)
    n, m, stages = 3, 2, 5
    F = rng.normal(size=(n, n))
    Q = F @ F.T
    N = rng.normal(size=(n, m))
    G = rng.normal(size=(m, m))
    R = G @ G.T + np.eye(m)
    eta, nbar, c0 = rng.normal(size=(n, 1)), rng.normal(size=(m, 1)), 0.7
    K, k = rng.normal(size=(stages, m, n)), rng.normal(size=(stages, m, 1))
    W = _policy_quadratic(Q, N, R, eta, nbar, c0, np.concatenate([K, -k], -1))
    assert W.shape == (stages, n + 1, n + 1)
    assert np.array_equal(W, np.swapaxes(W, 1, 2))
    for q in range(stages):
        for X in rng.normal(size=(3, n, 1)):
            u = -K[q] @ X + k[q]
            direct = (X.T @ Q @ X + 2.0 * X.T @ N @ u + u.T @ R @ u
                      - 2.0 * X.T @ eta - 2.0 * u.T @ nbar).item() + c0
            z = np.vstack([X, [[1.0]]])
            assert (z.T @ W[q] @ z).item() == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_cost_zero_weights():
    p = scalar_problem(Q=[[0.0]], Qhat=[[0.0]], R=[[0.0]], sigma=[[0.5]], b=[[0.3]])
    g = p.grid
    law = FeedbackLaw(
        GridFunction.constant(g, [[0.7]]), GridFunction.constant(g, [[0.2]])
    )
    assert expected_cost(p, law) == pytest.approx(0.0, abs=1e-15)


def test_cost_zero_trajectory():
    p = scalar_problem(x0=[[0.0]])
    law = FeedbackLaw(
        GridFunction.constant(p.grid, [[0.0]]),
        GridFunction.constant(p.grid, [[0.0]]),
    )
    assert expected_cost(p, law) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("grid", [TimeGrid(2.0, 400), TimeGrid(1.0, 200)])
def test_cost_rejects_a_law_on_another_grid(grid):
    # same M and another T once returned a cost; another M met a bare
    # numpy broadcast error
    p = scalar_problem()
    gain = GridFunction.constant(grid, [[0.5]])
    with pytest.raises(SchemaError) as err:
        expected_cost(p, FeedbackLaw(gain, GridFunction.zeros(p.grid, 1)))
    assert err.value.field == "law.K"
    with pytest.raises(SchemaError) as err:
        expected_cost(p, FeedbackLaw(GridFunction.zeros(p.grid, 1, 1),
                                     GridFunction.zeros(grid, 1)))
    assert err.value.field == "law.k"
    with pytest.raises(SchemaError) as err:
        expected_cost(p, GridFunction.zeros(grid, 1))
    assert err.value.field == "law"


def test_cost_rejects_an_open_loop_control_of_the_wrong_shape():
    p = scalar_problem()
    with pytest.raises(SchemaError) as err:
        expected_cost(p, GridFunction.zeros(p.grid, 2))
    assert err.value.field == "law"


def _random_loop(rng, D, stages):
    """A random closed loop on z = (y; 1): Z0, F = [[A, d], [0, 0]] and
    S = [[sigma sigma', 0], [0, 0]], as stage tables."""
    mu0, L0 = rng.normal(size=(D, 1)), rng.normal(size=(D, D))
    z0 = np.vstack([mu0, [[1.0]]])
    sig = rng.normal(scale=0.3, size=(stages, D, D))
    return (_homogeneous(L0 @ L0.T, 0.0) + z0 @ z0.T,
            _homogeneous(rng.normal(scale=0.4, size=(stages, D, D)),
                         rng.normal(size=(stages, D, 1))),
            _homogeneous(sig @ sig.swapaxes(-1, -2), 0.0))


def _random_weight(rng, *shape):
    W = rng.normal(size=shape)
    return W + W.swapaxes(-1, -2)


@pytest.mark.parametrize("D", [1, 12])
def test_several_costs_in_one_propagation_equal_their_one_cost_calls(D):
    # each cost's J entry rides the one bordered sweep without feeding back,
    # so it rounds exactly as in a sweep of its own
    rng = np.random.default_rng(D)
    grid = TimeGrid(1.5, 30)
    stages = 2 * grid.num_steps + 1
    args = (grid, 0.3, *_random_loop(rng, D, stages))
    W_T = rng.normal(size=(D + 1, D + 1))
    costs = [(_random_weight(rng, stages, D + 1, D + 1), W_T @ W_T.T),
             (_random_weight(rng, stages, D + 1, D + 1), np.zeros((D + 1, D + 1)))]
    together = one_loop_costs(*args, costs)
    alone = [one_loop_costs(*args, [cost]) for cost in costs]
    assert len(together) == 2 and all(len(J) == 1 for J in alone)
    assert together == [J for (J,) in alone]
    assert together[0] != together[1]


def test_stacked_closed_loops_round_as_alone():
    # closed loops of one dimension, stacked on a member axis after the
    # stage axis, cost bit for bit what each costs in a sweep of its own,
    # every cost of every member
    rng = np.random.default_rng(7)
    D, L = 3, 4
    grid = TimeGrid(1.5, 30)
    stages = 2 * grid.num_steps + 1

    def loop():
        W_T = rng.normal(size=(D + 1, D + 1))
        return (*_random_loop(rng, D, stages),
                [(_random_weight(rng, stages, D + 1, D + 1), W_T @ W_T.T * i) for i in (0, 1)])

    loops = [loop() for _ in range(L)]
    alone = [one_loop_costs(grid, 0.3, *args) for args in loops]
    Z0, F, S, costs = zip(*loops)
    together = closed_loop_cost_moments(
        grid, 0.3, np.stack(Z0), np.stack(F, 1), np.stack(S, 1),
        [(np.stack([c[i][0] for c in costs], 1), np.stack([c[i][1] for c in costs]))
         for i in (0, 1)])
    assert together.shape == (L, 2)
    assert together.tolist() == alone


def _ou_cost(a, b, sigma, x0, rho, q, l, c, qhat, T):
    """Closed-form cost of the scalar loop dx = (a x + b) dt + sigma dW:
    (1/2) int_0^T e^{-rho t} (q E x^2 + 2 l E x + c) dt + (1/2) e^{-rho T}
    qhat E x_T^2.  The mean is m = (x0 + beta) e^{at} - beta with
    beta = b / a, the variance v (e^{2at} - 1) with v = sigma^2 / (2a), and
    every integral is E(lam) = int_0^T e^{lam t} dt of an exponential."""
    def E(lam):
        return math.expm1(lam * T) / lam

    beta, v = b / a, sigma ** 2 / (2.0 * a)
    z = x0 + beta
    second = v * (E(2.0 * a - rho) - E(-rho)) + z ** 2 * E(2.0 * a - rho) \
        - 2.0 * beta * z * E(a - rho) + beta ** 2 * E(-rho)
    mean = z * E(a - rho) - beta * E(-rho)
    terminal = math.exp(-rho * T) * (
        v * math.expm1(2.0 * a * T) + (z * math.exp(a * T) - beta) ** 2)
    return 0.5 * (q * second + 2.0 * l * mean + c * E(-rho)) + 0.5 * qhat * terminal


def test_cost_ornstein_uhlenbeck_closed_form():
    # u = -K x + k closes dx = (A x + B u + b) dt + sigma dW into the OU
    # loop of _ou_cost with a = A - B K and drift b + B k; the running cost
    # is then q x^2 + 2 l x + c with q = Q - 2 N K + R K^2,
    # l = N k - eta - K (R k - nbar) and c = R k^2 - 2 nbar k.  The cases
    # b, eta != 0 pin the drift's and the target's borders of z = (x; 1);
    # the law (B, K, k, N, R, nbar), with feedback and a constant term,
    # pins B k, c0 and the borders -nbar of Nz and -k of Kz
    A, sigma, x0, rho, Q, qhat, T = -0.7, 0.4, 1.3, 0.5, 2.0, 0.8, 1.5
    for b, eta, law in [(0.0, 0.0, None), (0.6, 0.9, None),
                        (0.6, 0.9, (0.5, 0.4, -0.8, 0.3, 1.7, 0.2))]:
        B, K, k, N, R, nbar = law or (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        p = scalar_problem(A=[[A]], B=[[B]], b=[[b]], sigma=[[sigma]], Q=[[Q]],
                           N_cross=[[N]], R=[[R]], Qhat=[[qhat]], eta=[[eta]],
                           n_lin=[[nbar]], rho=rho, grid=TimeGrid(T, 400), x0=[[x0]])
        J = _ou_cost(A - B * K, b + B * k, sigma, x0, rho, Q - 2.0 * N * K + R * K ** 2,
                     N * k - eta - K * (R * k - nbar), R * k ** 2 - 2.0 * nbar * k, qhat, T)
        # no law is the open-loop control u = 0
        got = expected_cost(p, GridFunction.zeros(p.grid, 1) if law is None else FeedbackLaw(
            GridFunction.constant(p.grid, [[K]]), GridFunction.constant(p.grid, [[k]])))
        assert got == pytest.approx(J, rel=1e-9, abs=0.0)


def test_cost_matches_monte_carlo():
    p = rich_scalar_problem(M=400, sigma=0.4)
    sol = solve_finite_horizon(p)
    J = expected_cost(p, sol)

    # Euler-Maruyama over 4000 steps, 30000 paths, trapezoid cost quadrature
    rng = np.random.Generator(np.random.Philox(key=20260815))
    steps, paths = 4000, 30000
    h = p.grid.t_end / steps
    tt = np.linspace(0.0, p.grid.t_end, steps + 1)
    K = np.array([sol.law.K.interp(t)[0, 0] for t in tt])
    k = np.array([sol.law.k.interp(t)[0, 0] for t in tt])
    A, B, bb, sig = p.A[0, 0], p.B[0, 0], p.b.values[0, 0, 0], 0.4
    Q, N, R = p.Q[0, 0], p.N_cross[0, 0], p.R[0, 0]
    eta, nl, rho, Qhat = p.eta[0, 0], p.n_lin[0, 0], p.rho, p.Qhat[0, 0]

    x = np.full(paths, p.x0[0, 0])
    run = np.zeros(paths)
    disc = np.exp(-rho * tt)
    for i in range(steps + 1):
        u = -K[i] * x + k[i]
        rate = 0.5 * disc[i] * (
            Q * x * x + 2 * N * x * u + R * u * u - 2 * eta * x - 2 * nl * u
        )
        wgt = h if 0 < i < steps else 0.5 * h
        run += wgt * rate
        if i < steps:
            x = x + h * (A * x + B * u + bb) + sig * math.sqrt(h) * rng.standard_normal(paths)
    run += 0.5 * disc[-1] * Qhat * x * x
    se = run.std(ddof=1) / math.sqrt(paths)
    assert abs(run.mean() - J) < 3.0 * se


def test_optimal_cost_below_perturbations():
    p = rich_scalar_problem(M=300, sigma=0.3)
    sol = solve_finite_horizon(p)
    law = sol.law
    J_star = expected_cost(p, law)
    rng = np.random.default_rng(7)
    omega = GridFunction(
        p.grid, rng.normal(size=(p.grid.num_nodes, 1, 1))
    )
    costs = {}
    for eps in (-0.1, -0.01, 0.01, 0.1):
        pert = FeedbackLaw(law.K, GridFunction(p.grid, law.k.values + eps * omega.values))
        costs[eps] = expected_cost(p, pert)
        assert costs[eps] - J_star >= -1e-8
    # quadratic in eps: vertex from the symmetric three-point fit near 0
    a = (costs[0.1] + costs[-0.1] - 2 * J_star) / (0.1 ** 2)
    bcoef = (costs[0.1] - costs[-0.1]) / (2 * 0.1)
    assert abs(-bcoef / (2 * a)) < 1e-4


# ------------------------------------------------------- Gateaux derivative


def _optimal_open_loop(p, sol):
    # resample the optimal feedback as an open-loop control along its own
    # deterministic trajectory
    law = sol.law
    K_t, k_t = law.K.values, law.k.values
    from mmlqg.numerics import rk4_forward_indexed
    from mmlqg.lqg_single import _stage_values

    Kq = _stage_values(law.K)
    kq = _stage_values(law.k)
    bq = _stage_values(p.b)

    def rhs(q, x):
        return (p.A - p.B @ Kq[q]) @ x + p.B @ kq[q] + bq[q]

    x = rk4_forward_indexed(rhs, p.x0, p.grid)
    u_vals = -np.einsum("jab,jbc->jac", K_t, x.values) + k_t
    return GridFunction(p.grid, u_vals), x


def test_gateaux_zero_direction():
    p = rich_scalar_problem(M=200)
    u = GridFunction.constant(p.grid, [[0.3]])
    omega = GridFunction.constant(p.grid, [[0.0]])
    assert gateaux_derivative_det(p, u, omega) == 0.0


def test_gateaux_rejects_noise():
    p = rich_scalar_problem(M=100, sigma=0.2)
    u = GridFunction.constant(p.grid, [[0.0]])
    with pytest.raises(UnsupportedOracleError):
        gateaux_derivative_det(p, u, u)


def test_gateaux_vanishes_at_optimum():
    p = rich_scalar_problem(M=1000)
    sol = solve_finite_horizon(p)
    u_star, _ = _optimal_open_loop(p, sol)
    rng = np.random.default_rng(11)
    t = p.grid.nodes
    for freq in (1.0, 2.5, 4.0):
        vals = np.sin(freq * t + rng.uniform(0, 2 * np.pi))[:, None, None]
        omega = GridFunction(p.grid, vals)
        assert abs(gateaux_derivative_det(p, u_star, omega)) < 1e-6


def test_gateaux_matches_finite_difference():
    p = two_state_problem(M=800)
    t = p.grid.nodes
    u_vals = np.stack([np.sin(2 * t) + 0.3, 0.4 * np.cos(3 * t)], axis=1)[:, :, None]
    w_vals = np.stack([0.5 * np.cos(t), np.sin(1.5 * t) - 0.2], axis=1)[:, :, None]
    u = GridFunction(p.grid, u_vals)
    omega = GridFunction(p.grid, w_vals)
    deriv = gateaux_derivative_det(p, u, omega)

    eps = 1e-4
    up = GridFunction(p.grid, u.values + eps * omega.values)
    dn = GridFunction(p.grid, u.values - eps * omega.values)
    fd = (expected_cost(p, up) - expected_cost(p, dn)) / (2 * eps)
    assert abs(deriv - fd) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("problem", [rich_scalar_problem, two_state_problem])
def test_costate_matches_riccati_route(problem):
    # p(t) = e^{-rho t} (Pi x + s) along the optimal trajectory; the
    # 2-state A is not symmetric, so a sweep on A in place of A' fails
    p = problem(M=800)
    sol = solve_finite_horizon(p)
    u_star, x_star = _optimal_open_loop(p, sol)
    _, costate = costate_oracle(p, u_star)
    disc = np.exp(-p.rho * p.grid.nodes)[:, None, None]
    pi_route = disc * (
        np.einsum("jab,jbc->jac", sol.Pi.values, x_star.values) + sol.s.values
    )
    assert np.max(np.abs(costate.values - pi_route)) < 1e-5


# -------------------------------------------------------- infinite horizon


def test_are_scalar_unit():
    p = scalar_problem()
    st = solve_infinite_horizon(p)
    assert abs(st.Pi[0, 0] - 1.0) < 1e-10
    assert st.are_residual < 1e-9


def test_are_zero_cost_stable_drift():
    p = scalar_problem(A=[[-1.0]], Q=[[0.0]], Qhat=[[0.0]])
    st = solve_infinite_horizon(p)
    assert abs(st.Pi[0, 0]) < 1e-12


def test_are_matches_scipy_care():
    p = two_state_problem()
    st = solve_infinite_horizon(p)
    A_sh = p.A - 0.5 * p.rho * np.eye(2)
    ref = scipy.linalg.solve_continuous_are(
        a=A_sh, b=p.B, q=p.Q, r=p.R, s=p.N_cross
    )
    assert np.max(np.abs(st.Pi - ref)) < 1e-8


def scalar_are_root(a, b, q, N, r, rho):
    """Stabilizing root of (b^2/r) pi^2 + (2Nb/r - 2a + rho) pi + (N^2/r - q) = 0.

    Returns (root, margin) where the closed loop a - b(b pi + N)/r - rho/2
    equals -margin/2; the stabilizing root is the larger one.
    """
    alpha = b * b / r
    beta = 2.0 * N * b / r - 2.0 * a + rho
    gamma = N * N / r - q
    margin = math.sqrt(max(beta * beta - 4.0 * alpha * gamma, 0.0))
    if beta > 0:   # the same root, written without cancellation
        return -2.0 * gamma / (beta + margin), margin
    return (margin - beta) / (2.0 * alpha), margin


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(-500.0, 20.0),
    b=st.floats(0.1, 5.0),
    q=st.floats(0.0, 10.0),
    r=st.floats(0.1, 10.0),
    rho=st.floats(0.0, 5.0),
    c=st.floats(-1.0, 1.0),
)
@example(a=-150.0, b=1.0, q=1.0, r=1.0, rho=0.0, c=0.0)
@example(a=-500.0, b=1.0, q=1.0, r=1.0, rho=0.0, c=0.0)
def test_are_scalar_closed_form_stiff(a, b, q, r, rho, c):
    # N = c sqrt(q r) keeps q - N^2/r >= 0; stiff drifts down to -500
    N = c * math.sqrt(q * r)
    root, margin = scalar_are_root(a, b, q, N, r, rho)
    assume(margin > 1e-3)
    Pi = solve_discounted_are(
        np.array([[a]]), np.array([[b]]), np.array([[q]]), np.array([[N]]),
        np.array([[r]]), rho,
    )
    assert abs(Pi[0, 0] - root) <= 1e-9 * max(1.0, abs(root))


def test_turnpike_long_horizon():
    p = rich_scalar_problem(M=400)
    st = solve_infinite_horizon(p)
    long = scalar_problem(
        A=[[0.2]], b=[[0.1]], Qhat=[[0.5]], Q=[[1.0]], N_cross=[[0.1]],
        eta=[[0.2]], n_lin=[[0.1]], rho=0.1,
        grid=TimeGrid(50.0, 20000), x0=[[1.2]],
    )
    sol = solve_finite_horizon(long)
    assert abs(sol.Pi.values[0][0, 0] - st.Pi[0, 0]) < 1e-6
    assert abs(sol.s.values[0][0, 0] - st.s[0, 0]) < 1e-6
    # both laws read u = -K x + k
    assert abs(sol.law.K.values[0][0, 0] - st.K[0, 0]) < 1e-6
    assert abs(sol.law.k.values[0][0, 0] - st.k[0, 0]) < 1e-6


@pytest.mark.parametrize("problem", [rich_scalar_problem, two_state_problem])
def test_infinite_horizon_is_the_one_member_stack_of_its_agent(problem):
    # the front end is the stationary agent solve of its one-step problem,
    # then the gain table: bit for bit, Hautus report included
    p = problem(M=40)
    one_step = dataclasses.replace(p, grid=TimeGrid(p.grid.t_end, 1), b=p.b.values[0],
                                   sigma=p.sigma.values[0])
    agent, reports = one_step._agent(), []
    (Pi,), (s,) = _solve_agent_stationary([agent], p.rho, reports)
    law = _gain_tables(agent, Pi, s)
    st = solve_infinite_horizon(p)
    for got, want in ((st.Pi, Pi), (st.s, s), (st.K, law.K), (st.k, law.k)):
        assert np.array_equal(got, want.values[0])
    assert st.report == reports[0]


def test_infinite_horizon_rejects_unstabilizable():
    p = scalar_problem(A=[[1.0]], B=[[0.0]])
    with pytest.raises(AssumptionViolationError):
        solve_infinite_horizon(p)


# --------------------------------------------- detectability/stabilizability


def shifted_hautus(p):
    """The Hautus tests solve_infinite_horizon runs: (A - rho/2 I, B, Q^{1/2})."""
    return hautus_report(p.A - 0.5 * p.rho * np.eye(p.n), p.B, psd_sqrt(p.Q), 1e-9)


def test_hautus_stable_drift():
    p = scalar_problem(A=[[-1.0]], B=[[0.0]], Q=[[0.0]])
    rep = shifted_hautus(p)
    assert rep.ok
    assert rep.stab_modes == []


def test_hautus_uncontrollable_unstable():
    p = scalar_problem(A=[[1.0]], B=[[0.0]])
    rep = shifted_hautus(p)
    assert not rep.stabilizable
    assert rep.detectable


def test_hautus_unobservable_unstable():
    p = scalar_problem(A=[[1.0]], Q=[[0.0]], Qhat=[[0.0]])
    rep = shifted_hautus(p)
    assert not rep.detectable
    assert rep.stabilizable
