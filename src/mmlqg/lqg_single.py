"""Single-agent discounted LQG control on a finite or infinite horizon.

Every LQG agent, a standalone LqgProblem or a game agent on its extended
state, is one ExtendedSystem, and this module is the one place that
checks, solves and tabulates it: the convexity checks on its primitive
weights, one agent solve per horizon and one gain table.  Finite horizon:
backward Riccati and offset sweeps yielding the optimal linear feedback
u* = -R^{-1}(N'x - n + B'(Pi x + s)).  Infinite horizon: the discounted
algebraic Riccati equation solved with numpy alone, by the matrix sign
function of its Hamiltonian (Byers) plus Newton-Kleinman polish through
sign-function Lyapunov solves (Roberts), after Hautus tests of the
shifted drift.  Also provides exact closed-loop cost evaluation by moment
propagation and a deterministic Gateaux-derivative oracle used to certify
optimality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import (
    AreSolveError,
    AssumptionViolationError,
    DimensionGuardError,
    IntegrationDivergedError,
    RiccatiBlowupError,
    SchemaError,
    UnsupportedOracleError,
)
from .numerics import (
    GridFunction,
    TimeGrid,
    cumulative_simpson,
    expm,
    flatten,
    psd_check,
    rk4_backward_indexed,
    rk4_forward_indexed,
    symmetrize,
    symmetrize_leading,
    trapezoid_weights,
    unflatten,
)

PSD_TOL = 1e-9  # relative to the largest eigenvalue magnitude


def _finite(name: str, v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise SchemaError("%s has a non-finite entry" % name)
    return v


def _as_matrix(name: str, value, rows: int, cols: int) -> np.ndarray:
    m = np.atleast_2d(np.asarray(value, dtype=float))
    if m.shape != (rows, cols):
        raise SchemaError(
            "%s has shape %s, expected (%d, %d)" % (name, m.shape, rows, cols)
        )
    return _finite(name, m)


def _as_column(name: str, value, rows: int) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape != (rows, 1):
        raise SchemaError(
            "%s has shape %s, expected (%d, 1)" % (name, v.shape, rows)
        )
    return _finite(name, v)


def _as_rate(rho) -> float:
    """A discount rate: finite and nonnegative."""
    rho = float(rho)
    if not 0.0 <= rho < np.inf:
        raise SchemaError("rho must be finite and nonnegative")
    return rho


def _as_grid_function(name: str, value, grid: TimeGrid, rows: int, cols: int) -> GridFunction:
    if isinstance(value, GridFunction):
        gf = value
        if gf.grid.num_steps != grid.num_steps or gf.grid.t_end != grid.t_end:
            raise SchemaError("%s is sampled on a different grid" % name)
    else:
        v = np.asarray(value, dtype=float)
        if v.ndim <= 1:
            v = v.reshape(rows, 1) if v.size == rows else np.atleast_2d(v)
        gf = GridFunction.constant(grid, v)
    if gf.shape != (rows, cols):
        raise SchemaError(
            "%s has value shape %s, expected (%d, %d)" % (name, gf.shape, rows, cols)
        )
    _finite(name, gf.values)
    return gf


@dataclass
class LqgProblem:
    """Data of the control problem.

    dx = (A x + B u + b(t)) dt + sigma(t) dw, with discounted quadratic
    running cost weights (Q, N_cross, R), linear terms (eta, n_lin),
    terminal weight Qhat, discount rate rho, and fixed initial state x0.
    """

    A: np.ndarray
    B: np.ndarray
    b: GridFunction
    sigma: GridFunction
    Qhat: np.ndarray
    Q: np.ndarray
    N_cross: np.ndarray
    R: np.ndarray
    eta: np.ndarray
    n_lin: np.ndarray
    rho: float
    grid: TimeGrid
    x0: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        self.A = _as_matrix("A", A, n, n)
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        m = B.shape[1]
        self.B = _as_matrix("B", B, n, m)
        self.Qhat = _as_matrix("Qhat", self.Qhat, n, n)
        self.Q = _as_matrix("Q", self.Q, n, n)
        self.N_cross = _as_matrix("N_cross", self.N_cross, n, m)
        self.R = _as_matrix("R", self.R, m, m)
        self.eta = _as_column("eta", self.eta, n)
        self.n_lin = _as_column("n_lin", self.n_lin, m)
        self.x0 = _as_column("x0", self.x0, n)
        self.rho = _as_rate(self.rho)
        self.b = _as_grid_function("b", self.b, self.grid, n, 1)
        if isinstance(self.sigma, GridFunction):
            self.sigma = _as_grid_function(
                "sigma", self.sigma, self.grid, n, self.sigma.shape[1]
            )
        else:
            sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
            if sig.shape[0] != n:
                raise SchemaError("sigma must have n rows")
            self.sigma = GridFunction.constant(
                self.grid, _as_matrix("sigma", sig, n, sig.shape[1])
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def _agent(self, stationary: bool = False) -> "ExtendedSystem":
        """This problem as the agent record every solver reads.

        The stationary record sits on a one-step grid with b frozen at
        t = 0, since the stationary solve reads node 0 only.
        """
        grid, b = self.grid, self.b
        if stationary:
            grid = TimeGrid(grid.t_end, 1)
            b = GridFunction.constant(grid, b.values[0])
        return ExtendedSystem(
            what="LQG", A=GridFunction.constant(grid, self.A), B=self.B,
            b=b, Qhat=self.Qhat, Q=self.Q, N=self.N_cross, R=self.R,
            eta=self.eta, nbar=self.n_lin,
        )


@dataclass
class FeedbackLaw:
    """Time-varying linear law u(t, x) = -K(t) x + k(t); x is read as a column."""

    K: GridFunction
    k: GridFunction

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1, 1)
        return -self.K.interp(t) @ x + self.k.interp(t)


@dataclass
class LqgSolution:
    Pi: GridFunction
    s: GridFunction
    K: GridFunction
    kff: GridFunction
    validation: Optional[ValidationReport] = None   # the checks the solver ran

    def law(self) -> FeedbackLaw:
        """The optimum as u = -Kx + k, with k = -kff."""
        return FeedbackLaw(self.K, GridFunction(self.kff.grid, -self.kff.values))


@dataclass
class CostateOracle:
    """Deterministic trajectory, control, and costate (sigma = 0 only)."""

    x: GridFunction
    u: GridFunction
    p: GridFunction


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def require(self) -> "ValidationReport":
        """Raise AssumptionViolationError naming every check unless all
        pass; return the report when they do."""
        if not self.ok:
            raise AssumptionViolationError(
                "validation failed: " + self.summary(), report=self)
        return self

    def summary(self) -> str:
        return "; ".join(
            "%s: %s%s" % (c.name, "pass" if c.passed else "FAIL",
                          " (%s)" % c.detail if c.detail and not c.passed else "")
            for c in self.checks
        )


def _rel_psd_tol(P: np.ndarray, tol: float) -> float:
    w = np.linalg.eigvalsh(symmetrize(P)) if P.size else np.zeros(1)
    scale = max(1.0, float(np.max(np.abs(w)))) if P.size else 1.0
    return tol * scale


def _min_eig(P: np.ndarray) -> float:
    if P.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(symmetrize(P))[0])


def spd_solver(R: np.ndarray, what: str = "R") -> Callable[[np.ndarray], np.ndarray]:
    """Return x -> R^{-1} x, with R^{-1} formed once from a Cholesky factor.

    A non-finite or non-positive-definite R is an assumption violation.
    """
    R = symmetrize(R)
    if not np.all(np.isfinite(R)):
        raise AssumptionViolationError("%s has non-finite entries" % what)
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise AssumptionViolationError(
            "%s is not symmetric positive definite: %s" % (what, exc)
        ) from exc
    Linv = np.linalg.inv(L)
    Rinv = symmetrize(Linv.T @ Linv)   # exactly symmetric
    # non-finite inputs must flow through so sweeps can report the node
    return lambda X: Rinv @ X


def add_convexity_checks(rep: ValidationReport, label: str, Qhat, Q, N, R,
                         tol: float) -> None:
    """Append one agent's convexity checks on its primitive weights.

    R symmetric positive definite, Q - N R^{-1} N' PSD and Qhat PSD, each
    within tol relative to the matrix's largest eigenvalue magnitude; label
    prefixes every check name.
    """
    r_min = _min_eig(R)
    r_tol = _rel_psd_tol(R, tol)
    r_asym = float(np.max(np.abs(R - R.T))) if R.size else 0.0
    r_ok = r_asym <= r_tol and r_min > r_tol
    rep.add(label + "R positive definite", r_ok, "" if r_ok else
            "min eigenvalue %.3e, asymmetry %.3e" % (r_min, r_asym))
    if r_ok:
        S = Q - N @ spd_solver(R)(N.T)
        s_min = _min_eig(S)
        rep.add(label + "Q - N R^{-1} N' PSD", s_min >= -_rel_psd_tol(S, tol),
                "min eigenvalue %.3e" % s_min)
    else:
        rep.add(label + "Q - N R^{-1} N' PSD", False,
                "skipped: R not positive definite")
    q_min = _min_eig(Qhat)
    rep.add(label + "Qhat PSD", q_min >= -_rel_psd_tol(Qhat, tol),
            "min eigenvalue %.3e" % q_min)


def validate_convexity(p: LqgProblem, tol: float = PSD_TOL) -> ValidationReport:
    """Check R > 0, Q - N R^{-1} N' >= 0 and Qhat >= 0 within tol."""
    rep = ValidationReport()
    add_convexity_checks(rep, "", p.Qhat, p.Q, p.N_cross, p.R, tol)
    return rep


@dataclass
class ExtendedSystem:
    """One agent as a single-agent LQG problem on its extended state.

    dX = (A(t) X + B u + b(t)) dt with running cost X'QX + 2X'Nu + u'Ru
    - 2X'eta - 2u'nbar (discounted) and terminal weight Qhat.  A standalone
    LqgProblem is one on its own state (what "LQG").  The major agent's
    state is (x0; xbar), dimension n + nK; a minor type's is (x_i; x0;
    xbar), dimension 2n + nK.  what names the agent in messages.
    """

    what: str
    A: GridFunction        # dim x dim drift
    B: np.ndarray          # dim x m control channel, [B; 0]
    b: GridFunction        # dim x 1 drift offset
    Qhat: np.ndarray       # terminal weight
    Q: np.ndarray          # running weight
    N: np.ndarray          # dim x m cross weight
    R: np.ndarray          # m x m control weight
    eta: np.ndarray        # dim x 1
    nbar: np.ndarray       # m x 1

    def __post_init__(self):
        d = self.dim
        for name in ("Qhat", "Q"):
            W = getattr(self, name)
            if W.shape != (d, d):
                raise DimensionGuardError("%s %s must be %d x %d" % (self.what, name, d, d))
            if not psd_check(W, _rel_psd_tol(W, PSD_TOL)):
                raise SchemaError("%s %s lost positive semidefiniteness" % (self.what, name))

    @property
    def dim(self) -> int:
        return self.B.shape[0]


def _stage_values(gf: GridFunction) -> np.ndarray:
    """Tabulate a GridFunction at nodes and interval midpoints.

    Index q = 0..2M covers time q*h/2; midpoints of a linearly interpolated
    grid function are averages of the adjacent nodes.
    """
    v = gf.values
    M = v.shape[0] - 1
    out = np.empty((2 * M + 1,) + v.shape[1:])
    out[0::2] = v
    out[1::2] = 0.5 * (v[:-1] + v[1:])
    return out


def _discount_stages(grid: TimeGrid, rho: float) -> np.ndarray:
    return np.exp(-rho * np.arange(2 * grid.num_steps + 1) * (grid.h / 2.0))


def _riccati_sweep(A_st, B, Q, N, Rinv, rho, terminal, grid: TimeGrid,
                   what: str = "Riccati sweep") -> GridFunction:
    """Backward RK4 sweep of the Riccati ODE on half-step stage tables.

    dPi/dt = rho Pi - Pi A - A'Pi + (Pi B + N) R^{-1} (B'Pi + N') - Q with
    A_st[q] = A(q h/2) and Rinv = R^{-1}.  Pi is symmetrized after every
    step; divergence raises RiccatiBlowupError with the last node reached.
    """
    As_st = A_st - 0.5 * rho * np.eye(A_st.shape[1])   # rho Pi enters as -rho/2 I

    def stage_rhs(q, P):
        PA = P @ As_st[q]
        PBN = P @ B + N
        return PBN @ Rinv @ PBN.T - PA - PA.T - Q

    try:
        return rk4_backward_indexed(stage_rhs, terminal, grid, project=symmetrize)
    except IntegrationDivergedError as exc:
        raise RiccatiBlowupError(
            "%s diverged: %s" % (what, exc), node=exc.node, time=exc.time
        ) from exc


def _offset_sweep(A_st, B, N, Rinv, rho, Pi_st, b_st, n_lin, eta, grid: TimeGrid,
                  what: str = "offset sweep") -> GridFunction:
    """Backward RK4 sweep of the offset ODE, s(T) = 0, on stage tables.

    ds/dt = (rho I - Acl') s - f with Acl' = (A - B R^{-1} N')' - Pi B R^{-1} B'
    and f = Pi (b + B R^{-1} n) + N R^{-1} n - eta, both tabulated at every
    stage before the sweep.
    """
    BR = B @ Rinv
    dim = B.shape[0]
    # an overflowing Pi is reported by the sweep's finite check, not here
    with np.errstate(over="ignore", invalid="ignore"):
        Acl_T = np.swapaxes(A_st - BR @ N.T, 1, 2) - Pi_st @ (BR @ B.T)
        L_st = rho * np.eye(dim) - Acl_T
        f_st = Pi_st @ (b_st + BR @ n_lin) + (N @ Rinv @ n_lin - eta)

    def stage_rhs(q, s):
        return L_st[q] @ s - f_st[q]

    try:
        return rk4_backward_indexed(stage_rhs, np.zeros((dim, 1)), grid)
    except IntegrationDivergedError as exc:
        raise RiccatiBlowupError(
            "%s diverged: %s" % (what, exc), node=exc.node, time=exc.time
        ) from exc


def _steady_offset(A, B, N, Rinv, rho, Pi, b, n_lin, eta) -> np.ndarray:
    """Stationary point of the offset ODE: (rho I - Acl') s = f.

    Acl' and f as in _offset_sweep, with constant A, Pi and b.
    """
    BR = B @ Rinv
    Acl_T = (A - BR @ N.T).T - Pi @ (BR @ B.T)
    f = Pi @ (b + BR @ n_lin) + (N @ Rinv @ n_lin - eta)
    return np.linalg.solve(rho * np.eye(A.shape[0]) - Acl_T, f)


def _r_inverse(ext: ExtendedSystem) -> np.ndarray:
    """R^{-1}, formed once per agent solve so sweeps multiply instead of solving."""
    return spd_solver(ext.R, what=ext.what + " R")(np.eye(ext.R.shape[0]))


def _solve_agent_finite(ext: ExtendedSystem, rho: float):
    """Finite horizon: one agent's backward Riccati sweep, then its offset sweep.

    Both run on ext's grid from half-step stage tables; Pi is symmetrized
    after every step.  Returns (Pi, s); divergence raises
    RiccatiBlowupError with the last node reached.
    """
    Rinv = _r_inverse(ext)
    A_st = _stage_values(ext.A)
    grid = ext.A.grid
    Pi = _riccati_sweep(
        A_st, ext.B, ext.Q, ext.N, Rinv, rho, ext.Qhat, grid,
        ext.what + " Riccati sweep",
    )
    s = _offset_sweep(
        A_st, ext.B, ext.N, Rinv, rho, _stage_values(Pi), _stage_values(ext.b),
        ext.nbar, ext.eta, grid, ext.what + " offset sweep",
    )
    return Pi, s


def _gain_tables(ext: ExtendedSystem, Pi: GridFunction, s: GridFunction) -> FeedbackLaw:
    """u = -K X + k at every node: K = R^{-1}(N' + B' Pi), k = R^{-1}(nbar - B' s)."""
    Rinv = _r_inverse(ext)
    RBt = Rinv @ ext.B.T
    K_vals = np.einsum("ab,jbc->jac", RBt, Pi.values) + Rinv @ ext.N.T
    k_vals = Rinv @ ext.nbar - np.einsum("ab,jbc->jac", RBt, s.values)
    return FeedbackLaw(GridFunction(Pi.grid, K_vals), GridFunction(Pi.grid, k_vals))


def solve_finite_horizon(p: LqgProblem) -> LqgSolution:
    """Convexity checks, the finite agent solve, then the gain table."""
    report = validate_convexity(p).require()
    agent = p._agent()
    Pi, s = _solve_agent_finite(agent, p.rho)
    law = _gain_tables(agent, Pi, s)
    return LqgSolution(Pi=Pi, s=s, K=law.K, kff=GridFunction(p.grid, -law.k.values),
                       validation=report)


def closed_loop_cost_moments(grid: TimeGrid, rho: float, x0_mean: np.ndarray,
                             x0_cov: np.ndarray, A_cl: np.ndarray, d: np.ndarray,
                             Sig2: np.ndarray, W: np.ndarray, l_vec: np.ndarray,
                             c: np.ndarray, terminal) -> float:
    """Exact discounted quadratic cost of a linear closed loop.

    Propagates the covariance V and mean mu of dx = (A_cl(t) x + d(t)) dt +
    noise, with Sig2 = sigma sigma', and accumulates the running cost
    J = (1/2) E int e^{-rho t} (x'Wx + 2x'l + c) dt in the same RK4 sweep,
    with (V, mu, J) packed into one flat state.  terminal = (W_T, l_T, c_T)
    adds (1/2) e^{-rho T} E(x'W_T x + 2x'l_T + c_T).  All time-varying
    tables are indexed by half-step stages q = 0..2M at times q*h/2.
    """
    n = x0_mean.shape[0]
    shapes = [(n, n), (n, 1), ()]
    disc = _discount_stages(grid, rho)

    def stage_rhs(q, Y):
        V, mu, _ = unflatten(Y, shapes)
        Aq = A_cl[q]
        AV = Aq @ V
        S = V + mu @ mu.T
        rate = 0.5 * disc[q] * (np.vdot(W[q], S) + 2.0 * (l_vec[q].T @ mu).item() + c[q])
        return flatten(AV + AV.T + Sig2[q], Aq @ mu + d[q], rate)

    start = flatten(symmetrize(np.reshape(x0_cov, (n, n))), x0_mean, 0.0)
    sweep = rk4_forward_indexed(stage_rhs, start, grid, project=symmetrize_leading(n))
    V, mu, J = unflatten(sweep.values[-1], shapes)
    W_T, l_T, c_T = terminal
    S = V + mu @ mu.T
    term = np.vdot(W_T, S) + 2.0 * (mu.T @ l_T).item() + c_T
    return float(J + 0.5 * disc[-1] * term)


def _law_stage_tables(p: LqgProblem, law) -> tuple:
    """Half-step tables (K[q], k[q]) for u = -Kx + k from any accepted law.

    Accepts FeedbackLaw, LqgSolution, an open-loop GridFunction (treated as
    u(t) with linear interpolation), or a callable t -> u sampled at step
    midpoints and held constant over each step (exact for piecewise,
    constant controls aligned with the grid).
    """
    M = p.grid.num_steps
    nq = 2 * M + 1
    if isinstance(law, LqgSolution):
        law = law.law()
    if isinstance(law, FeedbackLaw):
        return _stage_values(law.K), _stage_values(law.k)
    if isinstance(law, GridFunction):
        if law.shape != (p.m, 1):
            raise SchemaError("open-loop control must be m x 1 on the grid")
        return np.zeros((nq, p.m, p.n)), _stage_values(law)
    if callable(law):
        k_tab = np.empty((nq, p.m, 1))
        h = p.grid.h
        for j in range(M):
            uj = np.asarray(law((j + 0.5) * h), dtype=float).reshape(p.m, 1)
            k_tab[2 * j] = uj
            k_tab[2 * j + 1] = uj
            k_tab[2 * j + 2] = uj
        return np.zeros((nq, p.m, p.n)), k_tab
    raise SchemaError("unsupported control law type %r" % type(law).__name__)


def _policy_quadratic(Q, N, R, eta, nbar, c0, L, uc):
    """Running cost of one agent under the affine law u = L X + uc.

    Returns (W, l, c) with X'WX + 2X'l + c = X'QX + 2X'Nu + u'Ru - 2X'eta
    - 2u'nbar + c0 for every X.  L and uc may be stage tables, with a
    leading stage axis, and W, l and c are then tables too.  Every exact
    cost in the package, of one agent or of a finite-N deviator, passes
    its weights and law through here.
    """
    NL = N @ L
    Lt = np.swapaxes(L, -1, -2)
    W = symmetrize(Q + NL + np.swapaxes(NL, -1, -2) + Lt @ R @ L)
    l = N @ uc - eta + Lt @ (R @ uc - nbar)
    c = c0 - 2.0 * nbar.T @ uc + np.swapaxes(uc, -1, -2) @ R @ uc
    return W, l, c[..., 0, 0]


def expected_cost(p: LqgProblem, law) -> float:
    """Exact J under a linear law u = -Kx + k: no sampling.

    Mean and covariance of the closed loop are propagated and the quadratic
    running cost is integrated through trace identities.
    """
    K_tab, k_tab = _law_stage_tables(p, law)
    sig_tab = _stage_values(p.sigma)
    Sig2 = np.einsum("qir,qjr->qij", sig_tab, sig_tab)
    W, l, c = _policy_quadratic(p.Q, p.N_cross, p.R, p.eta, p.n_lin, 0.0,
                                -K_tab, k_tab)
    return closed_loop_cost_moments(
        p.grid, p.rho, p.x0, np.zeros((p.n, p.n)), p.A - p.B @ K_tab,
        p.B @ k_tab + _stage_values(p.b), Sig2, W, l, c,
        (p.Qhat, np.zeros((p.n, 1)), 0.0),
    )


def _open_loop_trajectory(p: LqgProblem, u: GridFunction) -> GridFunction:
    """Forward x under dx = Ax + Bu(t) + b(t), x(0) = x0 (deterministic)."""
    u_tab = _stage_values(u)
    b_tab = _stage_values(p.b)

    def rhs(q, x):
        return p.A @ x + p.B @ u_tab[q] + b_tab[q]

    return rk4_forward_indexed(rhs, p.x0, p.grid)


def costate_oracle(p: LqgProblem, u: GridFunction) -> CostateOracle:
    """Deterministic costate along the trajectory driven by u (sigma = 0).

    p(t) = e^{-rho T} e^{A'(T-t)} Qhat x_T + e^{-A' t} I(t) with
    I(t) = int_t^T e^{-rho s} e^{A' s} (Q x + N u - eta) ds, evaluated by
    cumulative quadrature and incremental matrix-exponential powers.
    """
    if not np.allclose(p.sigma.values, 0.0):
        raise UnsupportedOracleError(
            "costate oracle is defined only for sigma = 0"
        )
    if u.shape != (p.m, 1):
        raise SchemaError("control must be m x 1 on the grid")
    x = _open_loop_trajectory(p, u)
    grid = p.grid
    M = grid.num_steps
    h = grid.h
    T = grid.t_end
    disc = np.exp(-p.rho * grid.nodes)

    E_fwd = expm(p.A.T * h)
    E_bwd = expm(-p.A.T * h)
    P_fwd = np.empty((M + 1, p.n, p.n))   # e^{A' t_j}
    P_bwd = np.empty((M + 1, p.n, p.n))   # e^{-A' t_j}
    P_fwd[0] = np.eye(p.n)
    P_bwd[0] = np.eye(p.n)
    for j in range(1, M + 1):
        P_fwd[j] = P_fwd[j - 1] @ E_fwd
        P_bwd[j] = P_bwd[j - 1] @ E_bwd

    integrand = disc[:, None, None] * np.einsum(
        "jab,jbc->jac",
        P_fwd,
        np.einsum("ab,jbc->jac", p.Q, x.values)
        + np.einsum("ab,jbc->jac", p.N_cross, u.values)
        - p.eta[None, :, :],
    )
    C = cumulative_simpson(integrand, h)
    I_tail = C[-1][None, :, :] - C

    QxT = p.Qhat @ x.values[-1]
    p_vals = np.exp(-p.rho * T) * np.einsum(
        "jab,bc->jac", P_fwd[::-1], QxT
    ) + np.einsum("jab,jbc->jac", P_bwd, I_tail)
    return CostateOracle(x=x, u=u.copy(), p=GridFunction(grid, p_vals))


def gateaux_derivative_det(p: LqgProblem, u: GridFunction, omega: GridFunction) -> float:
    """Directional derivative of J at control u in direction omega (sigma = 0).

    <DJ(u), omega> = int omega' [ e^{-rho t}(N'x + Ru - n) + B'p(t) ] dt
    with the costate p from costate_oracle; the time integral uses the
    trapezoid rule on the grid nodes.
    """
    oracle = costate_oracle(p, u)
    if omega.shape != (p.m, 1):
        raise SchemaError("direction must be m x 1 on the grid")
    grid = p.grid
    disc = np.exp(-p.rho * grid.nodes)
    g = disc[:, None, None] * (
        np.einsum("ab,jbc->jac", p.N_cross.T, oracle.x.values)
        + np.einsum("ab,jbc->jac", p.R, u.values)
        - p.n_lin[None, :, :]
    ) + np.einsum("ab,jbc->jac", p.B.T, oracle.p.values)
    w = trapezoid_weights(grid)
    vals = np.einsum("jac,jac->j", omega.values, g)
    return float(np.dot(w, vals))


@dataclass
class ModeTest:
    eigenvalue: complex
    rank: int
    full_rank: bool


@dataclass
class DetectStabReport:
    detectable: bool
    stabilizable: bool
    detect_modes: List[ModeTest] = field(default_factory=list)
    stab_modes: List[ModeTest] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.detectable and self.stabilizable


def hautus_report(A_shift: np.ndarray, B: np.ndarray, L: np.ndarray, tol: float) -> DetectStabReport:
    """Hautus rank tests on the shifted drift.

    Stabilizability: rank [lambda I - A, B] = n for every eigenvalue with
    Re lambda >= -tol.  Detectability: rank [lambda I - A; L] = n likewise.
    """
    n = A_shift.shape[0]
    eigs = np.linalg.eigvals(A_shift)
    detect_modes, stab_modes = [], []
    for lam in eigs:
        if lam.real < -tol:
            continue
        lamI_A = lam * np.eye(n) - A_shift
        r_s = np.linalg.matrix_rank(np.hstack([lamI_A, B.astype(complex)]))
        stab_modes.append(ModeTest(complex(lam), int(r_s), r_s == n))
        r_d = np.linalg.matrix_rank(np.vstack([lamI_A, L.astype(complex)]))
        detect_modes.append(ModeTest(complex(lam), int(r_d), r_d == n))
    return DetectStabReport(
        detectable=all(m.full_rank for m in detect_modes),
        stabilizable=all(m.full_rank for m in stab_modes),
        detect_modes=detect_modes,
        stab_modes=stab_modes,
    )


def _require_hautus(rep: DetectStabReport, what: str) -> DetectStabReport:
    """Raise AssumptionViolationError naming the Hautus conditions rep fails;
    return rep when both hold."""
    missing = [name for name, ok in (("detectability", rep.detectable),
                                     ("stabilizability", rep.stabilizable)) if not ok]
    if missing:
        raise AssumptionViolationError(
            "%s fails %s for the shifted drift" % (what, " and ".join(missing)),
            report=rep,
        )
    return rep


def psd_sqrt(Q: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix (negative rounding clipped)."""
    w, V = np.linalg.eigh(symmetrize(Q))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def _are_residual(Pi, A, B, Q, N, R_solve, rho):
    PBN = Pi @ B + N
    return Pi @ A + A.T @ Pi - PBN @ R_solve(PBN.T) + Q - rho * Pi


def _matrix_sign(Z: np.ndarray) -> np.ndarray:
    """sign(Z) by the Newton iteration Z <- (Z + Z^{-1}) / 2.

    Each step first scales Z to |det Z| = 1 (Byers 1987), until the
    relative change falls below 1e-8; one unscaled step then ends the
    quadratic convergence.  A singular or non-finite iterate, or no
    convergence in 100 steps, raises AreSolveError.
    """
    n = Z.shape[0]
    scale = True
    for _ in range(100):
        if scale:   # a singular Z turns non-finite here
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                Z = Z * np.exp(-np.linalg.slogdet(Z)[1] / n)
        try:
            Z_next = 0.5 * (Z + np.linalg.inv(Z))
        except np.linalg.LinAlgError as exc:
            raise AreSolveError("matrix sign iteration met a singular matrix") from exc
        if not np.all(np.isfinite(Z_next)):
            raise AreSolveError("matrix sign iteration met a singular matrix")
        if not scale:
            return Z_next
        scale = np.linalg.norm(Z_next - Z, 1) > 1e-8 * np.linalg.norm(Z_next, 1)
        Z = Z_next
    raise AreSolveError("matrix sign iteration did not converge in 100 steps")


def solve_discounted_are(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    N: np.ndarray,
    R: np.ndarray,
    rho: float,
    residual_tol: float = 1e-9,
    what: str = "R",
) -> np.ndarray:
    """Stabilizing solution of rho Pi = Pi A + A'Pi - (Pi B+N)R^{-1}(B'Pi+N') + Q.

    The cross term and the discount are folded into the drift A - (rho/2) I
    - B R^{-1} N' and the weight Q - N R^{-1} N'; Pi spans the stable
    invariant subspace of that problem's Hamiltonian, read off its matrix
    sign function (Byers 1987).  Up to three Newton-Kleinman steps (Kleinman
    1968) then polish Pi, each Lyapunov equation A_c'X + X A_c + F = 0
    solved by sign([[A_c', F], [0, -A_c]]) = [[-I, 2X], [0, I]] (Roberts
    1980).  Raises AreSolveError when no stabilizing solution emerges.
    """
    n = A.shape[0]
    rinv = spd_solver(R, what=what)
    RiNt = rinv(N.T)
    A_sh = A - 0.5 * rho * np.eye(n) - B @ RiNt
    H = np.block([[A_sh, -symmetrize(B @ rinv(B.T))],
                  [-symmetrize(Q - N @ RiNt), -A_sh.T]])
    if not np.all(np.isfinite(H)):
        raise AreSolveError("Hamiltonian of the Riccati equation is not finite")
    W = _matrix_sign(H)
    try:
        Pi = np.linalg.lstsq(
            np.vstack([W[:n, n:], W[n:, n:] + np.eye(n)]),
            -np.vstack([W[:n, :n] + np.eye(n), W[n:, :n]]), rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise AreSolveError("stable subspace of the Hamiltonian: %s" % exc) from exc
    Pi = symmetrize(Pi)

    for _ in range(3):
        F = _are_residual(Pi, A, B, Q, N, rinv, rho)
        if float(np.linalg.norm(F)) < 1e-13:
            break
        A_c = A - B @ rinv(B.T @ Pi + N.T) - 0.5 * rho * np.eye(n)
        if np.max(np.linalg.eigvals(A_c).real) >= 0:
            break  # Newton step not defined off the stabilizing branch
        S = _matrix_sign(np.block([[A_c.T, F], [np.zeros((n, n)), -A_c]]))
        Pi = symmetrize(Pi + 0.5 * S[:n, n:])

    F = _are_residual(Pi, A, B, Q, N, rinv, rho)
    res = float(np.linalg.norm(F))
    A_c = A - B @ rinv(B.T @ Pi + N.T) - 0.5 * rho * np.eye(n)
    stable = bool(np.max(np.linalg.eigvals(A_c).real) < 0)
    if res >= residual_tol or not stable:
        raise AreSolveError(
            "no stabilizing Riccati solution found (residual %.3e, closed loop %s)"
            % (res, "stable" if stable else "unstable")
        )
    return Pi


def _solve_agent_stationary(ext: ExtendedSystem, rho: float, L: np.ndarray,
                            residual_tol: float = 1e-9):
    """Infinite horizon: one agent's discounted ARE and steady offset at node 0.

    The drift shifted by -rho/2 must first pass the Hautus tests with the
    weight factor L (L'L the state weight).  Returns (Pi, s, Hautus report).
    """
    A = ext.A.values[0]
    shifted = A - 0.5 * rho * np.eye(ext.dim)
    rep = _require_hautus(hautus_report(shifted, ext.B, L, tol=1e-9),
                          "%s system" % ext.what)
    Pi = solve_discounted_are(A, ext.B, ext.Q, ext.N, ext.R, rho,
                              residual_tol=residual_tol, what=ext.what + " R")
    s = _steady_offset(A, ext.B, ext.N, _r_inverse(ext), rho, Pi,
                       ext.b.values[0], ext.nbar, ext.eta)
    return Pi, s, rep


@dataclass
class StationarySolution:
    Pi: np.ndarray
    s: np.ndarray
    K: np.ndarray
    kff: np.ndarray
    are_residual: float
    report: DetectStabReport


def solve_infinite_horizon(p: LqgProblem, tol: float = 1e-9) -> StationarySolution:
    """Discounted ARE and steady offset for constant coefficients.

    Requires constant b; detectability and stabilizability of the shifted
    pair are checked first and violations are rejected.
    """
    if not np.all(p.b.values == p.b.values[0]):
        raise SchemaError("infinite-horizon solver requires a constant drift offset b")
    validate_convexity(p).require()
    agent = p._agent(stationary=True)
    Pi, s, ds = _solve_agent_stationary(agent, p.rho, psd_sqrt(p.Q), tol)
    res = float(np.linalg.norm(_are_residual(Pi, p.A, p.B, p.Q, p.N_cross,
                                             spd_solver(p.R), p.rho)))
    law = _gain_tables(agent, GridFunction.constant(agent.A.grid, Pi),
                       GridFunction.constant(agent.A.grid, s))
    return StationarySolution(
        Pi=Pi, s=s, K=law.K.values[0], kff=-law.k.values[0], are_residual=res,
        report=ds,
    )
