"""Single-agent discounted LQG control on a finite or infinite horizon.

Every LQG agent, a standalone LqgProblem or a game agent on its extended
state, is one ExtendedSystem, and this module is the one place that
checks, solves and tabulates it: the convexity checks on its primitive
weights, one agent solve per horizon and one gain table.  Each agent
solve takes a stack of agents and returns their (Pi, s) tables, for the
game's consistency map and the standalone front ends alike, which solve a
one-member stack.  Finite horizon (_solve_agent_finite): backward
Riccati and offset sweeps yielding the optimal linear feedback
u* = -R^{-1}(N'x - n + B'(Pi x + s)).  Infinite horizon
(_solve_agent_stationary): the discounted algebraic Riccati equation
solved with numpy alone, by the matrix sign function of its Hamiltonian
(Byers) plus Newton-Kleinman polish through sign-function Lyapunov
solves (Roberts), after Hautus tests of the shifted drift, and the
steady offset.  Also provides exact closed-loop costs on z = (y; 1), one
weight and one second moment per affine law, and a deterministic
Gateaux-derivative oracle used to certify optimality.
"""

from __future__ import annotations

import dataclasses
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
    _as_array,
    _as_real,
    psd_margin,
    rk4_affine_backward,
    rk4_backward_indexed,
    rk4_forward_indexed,
    symmetrize,
    trapezoid_weights,
)

PSD_TOL = 1e-9  # relative to the largest eigenvalue magnitude


def _as_matrix(name: str, value, rows: int, cols: int) -> np.ndarray:
    """value as a finite rows x cols array; None is zeros.

    A scalar is 1 x 1, and a flat list is a row, or a column when cols
    is 1.
    """
    if value is None:
        return np.zeros((rows, cols))
    m = _as_array(name, value)
    if m.ndim == 1 and cols == 1:
        m = m[:, None]
    m = np.atleast_2d(m)
    if m.shape != (rows, cols):
        raise SchemaError("expected shape (%d, %d), got %s" % (rows, cols, m.shape),
                          field=name)
    return m


def _as_rate(rho) -> float:
    """A discount rate: finite and nonnegative."""
    rho = _as_real(rho, "rho")
    if not 0.0 <= rho < np.inf:
        raise SchemaError("must be finite and nonnegative", field="rho")
    return rho


def _as_grid_function(name: str, value, grid: TimeGrid, rows: int, cols: int,
                      samples: bool = False) -> GridFunction:
    """value as a finite rows x cols GridFunction on grid.

    A GridFunction must share the grid; anything else is a constant
    matrix (see _as_matrix) or, with samples, a (nodes, rows) array of
    one column per grid node.
    """
    if isinstance(value, GridFunction):
        if value.grid.num_steps != grid.num_steps or value.grid.t_end != grid.t_end:
            raise SchemaError("is sampled on a different grid", field=name)
        if value.shape != (rows, cols):
            raise SchemaError("expected value shape (%d, %d), got %s"
                              % (rows, cols, value.shape), field=name)
        _as_array(name, value.values)
        return value
    if value is not None and samples:
        v = _as_array(name, value)
        if v.shape == (grid.num_nodes, rows) and v.shape != (rows, 1):
            return GridFunction(grid, v[:, :, None])
    return GridFunction.constant(grid, _as_matrix(name, value, rows, cols))


def _shaped(rows, cols, required: bool = False):
    """A record field of shape (rows, cols), each in the dimensions n, m,
    r or the literal 1; omitted (None) it is zeros of that shape."""
    return field(default=None, metadata={"shape": (rows, cols), "required": required})


def field_table(record) -> tuple:
    """(name, rows, cols, required) of each shaped field of a record, in
    declaration order.  The config layer reads its JSON keys here."""
    return tuple((f.name, *f.metadata["shape"], f.metadata["required"])
                 for f in dataclasses.fields(record) if "shape" in f.metadata)


def _as_fields(record, grid: TimeGrid, prefix: str = "", dims=None) -> dict:
    """Coerce the shaped fields of record in place; return the dimensions.

    A dimension not in dims is read off the first field that has it (A
    gives n, B gives m, sigma gives r), and is 1 when that field is
    omitted.  Fields annotated GridFunction become grid functions on
    grid, and those of literal width 1 (the drifts) may be given as
    per-node samples; the others become arrays.  Errors name prefix +
    field.
    """
    dims = dict(dims or {1: 1})
    time_varying = {f.name for f in dataclasses.fields(record) if f.type == "GridFunction"}
    for name, rows, cols, required in field_table(record):
        path, value = prefix + name, getattr(record, name)
        if value is None and required:
            raise SchemaError("missing required field", field=path)
        if rows not in dims or cols not in dims:
            if value is None:
                shape = (1, 1)
            elif isinstance(value, GridFunction):
                shape = value.shape
            else:
                shape = np.atleast_2d(_as_array(path, value)).shape
            dims.setdefault(rows, shape[0])
            dims.setdefault(cols, shape[1])
        if name in time_varying:
            value = _as_grid_function(path, value, grid, dims[rows], dims[cols],
                                      samples=cols == 1)
        else:
            value = _as_matrix(path, value, dims[rows], dims[cols])
        setattr(record, name, value)
    return dims


@dataclass
class LqgProblem:
    """Data of the control problem.

    dx = (A x + B u + b(t)) dt + sigma(t) dw, with discounted quadratic
    running cost weights (Q, N_cross, R), linear terms (eta, n_lin),
    terminal weight Qhat, discount rate rho, and fixed initial state x0.
    Shapes are in n = dim x, m = dim u and r = dim w; b may be given as
    per-node samples.
    """

    A: np.ndarray = _shaped("n", "n", required=True)
    B: np.ndarray = _shaped("n", "m", required=True)
    b: GridFunction = _shaped("n", 1)
    sigma: GridFunction = _shaped("n", "r")
    Qhat: np.ndarray = _shaped("n", "n", required=True)
    Q: np.ndarray = _shaped("n", "n", required=True)
    N_cross: np.ndarray = _shaped("n", "m")
    R: np.ndarray = _shaped("m", "m", required=True)
    eta: np.ndarray = _shaped("n", 1)
    n_lin: np.ndarray = _shaped("m", 1)
    rho: float = 0.0
    grid: TimeGrid = None
    x0: np.ndarray = _shaped("n", 1)

    def __post_init__(self):
        if not isinstance(self.grid, TimeGrid):
            raise SchemaError("expected a TimeGrid", field="grid")
        self.rho = _as_rate(self.rho)
        _as_fields(self, self.grid)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def _agent(self) -> "ExtendedSystem":
        """This problem as the agent record every solver reads."""
        return ExtendedSystem(
            what="LQG", A=GridFunction.constant(self.grid, self.A), B=self.B,
            b=self.b, Qhat=self.Qhat, Q=self.Q, N=self.N_cross, R=self.R,
            eta=self.eta, nbar=self.n_lin, Q_factor=psd_sqrt(self.Q),
        )


@dataclass
class FeedbackLaw:
    """Time-varying linear law u(t, x) = -K(t) x + k(t); x is read as a column."""

    K: GridFunction
    k: GridFunction

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        x, n = _as_array("x", x), self.K.shape[1]
        if x.size != n:
            raise SchemaError("expected %d entries, got %d" % (n, x.size), field="x")
        return -self.K.interp(t) @ x.reshape(n, 1) + self.k.interp(t)


@dataclass
class LqgSolution:
    """Finite-horizon optimum: value Pi, offset s and the law u = -K x + k."""

    Pi: GridFunction
    s: GridFunction
    law: FeedbackLaw
    validation: Optional[ValidationReport] = None   # the checks the solver ran


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
    r_min, r_tol = psd_margin(R, tol)
    r_asym = float(np.max(np.abs(R - R.T))) if R.size else 0.0
    r_ok = r_asym <= r_tol and r_min > r_tol
    rep.add(label + "R positive definite", r_ok, "" if r_ok else
            "min eigenvalue %.3e, asymmetry %.3e" % (r_min, r_asym))
    if r_ok:
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite S fails
            S = Q - N @ spd_solver(R)(N.T)
        s_min, s_tol = psd_margin(S, tol)
        rep.add(label + "Q - N R^{-1} N' PSD", s_min >= -s_tol,
                "min eigenvalue %.3e" % s_min)
    else:
        rep.add(label + "Q - N R^{-1} N' PSD", False,
                "skipped: R not positive definite")
    q_min, q_tol = psd_margin(Qhat, tol)
    rep.add(label + "Qhat PSD", q_min >= -q_tol, "min eigenvalue %.3e" % q_min)


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

    The builder forms the Hautus factor Q_factor from the primitive weight
    (psd_sqrt(Q0) [I, -H0^pi] for the major): a square root of Q itself
    turns a rounding eigenvalue of 1e-17 into 3e-9, which blurs the
    kernel the rank test reads.  Rinv = R^{-1} is formed here, once.
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
    Q_factor: np.ndarray   # Q_factor' Q_factor = Q
    Rinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.dim
        for name in ("Qhat", "Q"):
            W = getattr(self, name)
            if W.shape != (d, d):
                raise DimensionGuardError("%s %s must be %d x %d" % (self.what, name, d, d))
            if not np.isfinite(W).all():
                raise SchemaError("%s %s is not finite" % (self.what, name))
            w_min, w_tol = psd_margin(W, PSD_TOL)
            if not w_min >= -w_tol:
                raise SchemaError("%s %s lost positive semidefiniteness" % (self.what, name))
        self.Rinv = spd_solver(self.R, what=self.what + " R")(np.eye(self.R.shape[0]))

    @property
    def dim(self) -> int:
        return self.B.shape[0]


def _stage_values(nodes) -> np.ndarray:
    """Tabulate a GridFunction, or a table over its M + 1 nodes, at nodes
    and interval midpoints: the package's one midpoint rule.

    Index q = 0..2M covers time q*h/2; midpoints of a linearly interpolated
    grid function are averages of the adjacent nodes.
    """
    v = nodes.values if isinstance(nodes, GridFunction) else nodes
    M = v.shape[0] - 1
    out = np.empty((2 * M + 1,) + v.shape[1:])
    out[0::2] = v
    mid = np.add(v[:-1], v[1:], out=out[1::2])
    mid *= 0.5
    return out


def _discount_stages(grid: TimeGrid, rho: float) -> np.ndarray:
    return np.exp(-rho * np.arange(2 * grid.num_steps + 1) * (grid.h / 2.0))


def _riccati_sweep(A_st, B, Q, N, Rinv, rho, terminal, grid: TimeGrid,
                   whats) -> List[GridFunction]:
    """Backward RK4 sweep of the Riccati ODE for a stack of agents on stage tables.

    dPi/dt = rho Pi - Pi A - A'Pi + (Pi B + N) R^{-1} (B'Pi + N') - Q with
    A_st[q] = A(q h/2), as W + W' + M22: W = Pi (B R^{-1} B' Pi / 2 + C(q)),
    C = B R^{-1} N' - A + rho/2 I formed in A_st's memory and M22 = N R^{-1}
    N' - Q symmetrized.  W + W' and every RK4 combination of symmetric
    arrays are exactly symmetric, so Pi is.  Every array carries the agent
    axis in front of its matrix axes (after the stage axis of A_st), and
    whats[k] names agent k's sweep.  Divergence raises RiccatiBlowupError
    naming the lowest-index agent that diverged and its first non-finite
    node.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # the sweep reports overflow
        BR = B @ Rinv
        BRB_2 = 0.5 * (BR @ B.swapaxes(-1, -2))
        C = BR @ N.swapaxes(-1, -2) + 0.5 * rho * np.eye(A_st.shape[-1])
        C_st = np.subtract(C, A_st, out=A_st)
        M22 = symmetrize(N @ Rinv @ N.swapaxes(-1, -2) - Q)

    def stage_rhs(q, P):
        X = BRB_2 @ P
        X += C_st[q]
        W = P @ X
        return W + W.swapaxes(-1, -2) + M22

    return _swept(whats, rk4_backward_indexed, stage_rhs, symmetrize(terminal), grid)


def _offset_sweep(A_st, B, N, Rinv, rho, Pis, b_st, n_lin, eta, grid: TimeGrid,
                  whats) -> List[GridFunction]:
    """Backward RK4 sweep of the offset ODE, s(T) = 0, for a stack of agents
    on stage tables (agent axes as in _riccati_sweep), by step maps.

    The generator and forcing of every stage come from _offset_terms and
    are written into A_st's memory and one forcing table, one agent at a
    time, so only one agent's Pi stage table exists at once.
    """
    f_st = np.empty(b_st.shape)
    # an overflowing Pi is reported by the sweep's finite check, not here
    with np.errstate(over="ignore", invalid="ignore"):
        for k, Pi in enumerate(Pis):
            A_st[:, k], f_st[:, k] = _offset_terms(
                A_st[:, k], B[k], N[k], Rinv[k], rho, _stage_values(Pi), b_st[:, k],
                n_lin[k], eta[k])
    return _swept(whats, rk4_affine_backward, A_st, f_st, grid)


def _swept(whats, sweep, *args) -> List[GridFunction]:
    """sweep(*args), a stacked backward sweep; its divergence is a
    RiccatiBlowupError that names the diverged member's sweep."""
    try:
        return sweep(*args)
    except IntegrationDivergedError as exc:
        raise RiccatiBlowupError(
            "%s diverged: %s" % (whats[exc.member], exc), node=exc.node, time=exc.time
        ) from exc


def _offset_terms(A, B, N, Rinv, rho, Pi, b, n_lin, eta) -> tuple:
    """Generator rho I - Acl' and forcing f of the offset ODE ds/dt =
    (rho I - Acl') s - f, with Acl' = (A - B R^{-1} N')' - Pi B R^{-1} B' and
    f = Pi (b + B R^{-1} n) + N R^{-1} n - eta; A, Pi and b may be tables."""
    BR = B @ Rinv
    f = Pi @ (b + BR @ n_lin) + (N @ Rinv @ n_lin - eta)
    Acl_T = np.swapaxes(A - BR @ N.T, -1, -2) - Pi @ (BR @ B.T)
    return rho * np.eye(A.shape[-1]) - Acl_T, f


def _steady_offset(A, B, N, Rinv, rho, Pi, b, n_lin, eta) -> np.ndarray:
    """Stationary point of the offset ODE: (rho I - Acl') s = f (see
    _offset_terms), with constant A, Pi and b."""
    return np.linalg.solve(*_offset_terms(A, B, N, Rinv, rho, Pi, b, n_lin, eta))


def _solve_agent_finite(exts: List[ExtendedSystem], rho: float):
    """Finite horizon: a stack of agents of one dimension on one grid, as
    one backward Riccati sweep, then one offset sweep.

    Both run from half-step stage tables with the agent axis after the
    stage axis; each sweep gets its own stage table of A and forms its
    coefficients in place there, so a stack holds no whole-stack
    temporaries.  Pi is exactly symmetric by construction.  numpy's stacked @
    forms one product per agent, so each agent rounds exactly as it does
    in a one-element stack.  Returns (Pis, ss), one GridFunction of each
    per agent; divergence raises RiccatiBlowupError naming the
    lowest-index agent that diverged, at its first non-finite node.
    """
    def stacked(name):
        return np.stack([getattr(ext, name) for ext in exts])

    def stages(name):   # (2M + 1, agents, rows, cols)
        return _stage_values(np.stack([getattr(ext, name).values for ext in exts], axis=1))

    B, N, Rinv = stacked("B"), stacked("N"), stacked("Rinv")
    grid = exts[0].A.grid
    Pis = _riccati_sweep(
        stages("A"), B, stacked("Q"), N, Rinv, rho, stacked("Qhat"), grid,
        [ext.what + " Riccati sweep" for ext in exts],
    )
    ss = _offset_sweep(
        stages("A"), B, N, Rinv, rho, Pis, stages("b"), stacked("nbar"), stacked("eta"),
        grid, [ext.what + " offset sweep" for ext in exts],
    )
    return Pis, ss


def _gains(Rinv, B, N, nbar, Pi: np.ndarray, s: np.ndarray) -> tuple:
    """Node tables of u = -K X + k: K = R^{-1}(N' + B' Pi), k = R^{-1}(nbar - B' s)."""
    RBt = Rinv @ B.T
    return (np.einsum("ab,jbc->jac", RBt, Pi) + Rinv @ N.T,
            Rinv @ nbar - np.einsum("ab,jbc->jac", RBt, s))


def _gain_tables(ext: ExtendedSystem, Pi: GridFunction, s: GridFunction) -> FeedbackLaw:
    """The agent's optimal law u = -K X + k at every node (see _gains)."""
    K_vals, k_vals = _gains(ext.Rinv, ext.B, ext.N, ext.nbar, Pi.values, s.values)
    return FeedbackLaw(GridFunction(Pi.grid, K_vals), GridFunction(Pi.grid, k_vals))


def solve_finite_horizon(p: LqgProblem) -> LqgSolution:
    """Convexity checks, the finite agent solve, then the gain table."""
    report = validate_convexity(p).require()
    agent = p._agent()
    (Pi,), (s,) = _solve_agent_finite([agent], p.rho)
    return LqgSolution(Pi=Pi, s=s, law=_gain_tables(agent, Pi, s), validation=report)


def _dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum(X * Y) over the last two axes of two stacks of matrices, one
    BLAS dot per matrix: what np.vdot forms for one matrix, bit for bit."""
    return (X.reshape(X.shape[:-2] + (1, -1)) @ Y.reshape(Y.shape[:-2] + (-1, 1)))[..., 0, 0]


def _homogeneous(A, b) -> np.ndarray:
    """[[A, b], [0, 0]]: A acting on y and b on the constant of the
    homogeneous state z = (y; 1), over the broadcast leading axes of A and
    b (b may be a scalar): a drift, noise or weight of an exact cost."""
    A, b = np.asarray(A), np.asarray(b)
    r, c = A.shape[-2:]
    out = np.zeros(np.broadcast_shapes(A.shape[:-2], b.shape[:-2]) + (r + 1, c + 1))
    out[..., :r, :c] = A
    out[..., :r, c:] = b
    return out


def closed_loop_cost_moments(grid: TimeGrid, rho: float, Z0: np.ndarray, F: np.ndarray,
                             S: np.ndarray, costs: list):
    """Exact discounted quadratic costs of a linear closed loop dz = F(t) z
    dt + noise on z = (y; 1), F = [[A_cl, d], [0, 0]], noise S = [[sigma
    sigma', 0], [0, 0]] per unit time, one per entry (W, W_T) of costs.

    One RK4 sweep carries the second moment Z = E zz', Z' = F Z + Z F' + S
    from Z0, and each J_i = (1/2) int e^{-rho t} tr(W_i Z) dt on the
    diagonal of [[Z, 0], [0, diag(J_1, ...)]], exactly symmetric if S is; no
    J feeds back, so each rounds as it does alone.  W_T_i adds (1/2)
    e^{-rho T} tr(W_T_i Z(T)).  Tables are indexed by half-step stages.

    Z0 (L, D + 1, D + 1) stacks L loops, each rounded as alone: tables carry
    a member axis after the stage axis, W_T one in front, and the result is
    (L, len(costs)).  One loop is a one-member stack.
    """
    L, E, _ = Z0.shape
    J = np.arange(E, E + len(costs))       # the J entries on the diagonal
    half_disc = 0.5 * _discount_stages(grid, rho)

    def stage_rhs(q, Y):
        Z = Y[:, :E, :E]
        FZ = F[q] @ Z
        dY = np.zeros(Y.shape)
        dY[:, :E, :E] = FZ + FZ.swapaxes(-1, -2) + S[q]
        for i, (W, _) in enumerate(costs, E):
            dY[:, i, i] = half_disc[q] * _dots(W[q], Z)
        return dY

    start = np.zeros((L, E + len(costs), E + len(costs)))
    start[:, :E, :E] = Z0
    Y = np.stack([member.values[-1] for member in rk4_forward_indexed(
        stage_rhs, start, grid)])
    return Y[:, J, J] + half_disc[-1] * np.stack(
        [_dots(W_T, Y[:, :E, :E]) for _, W_T in costs], 1)


def _law_stage_table(p: LqgProblem, law) -> np.ndarray:
    """Half-step table Kz[q] = [K, -k] of u = -Kx + k from any accepted law.

    Accepts FeedbackLaw, LqgSolution or an open-loop GridFunction
    (treated as u(t) with linear interpolation), each sampled on p's grid.
    """
    if isinstance(law, LqgSolution):
        law = law.law
    if isinstance(law, FeedbackLaw):
        K = _as_grid_function("law.K", law.K, p.grid, p.m, p.n).values
        k = _as_grid_function("law.k", law.k, p.grid, p.m, 1).values
    elif isinstance(law, GridFunction):
        k = _as_grid_function("law", law, p.grid, p.m, 1).values
        K = np.zeros(k.shape[:2] + (p.n,))
    else:
        raise SchemaError("unsupported control law type %r" % type(law).__name__)
    return _stage_values(np.concatenate([K, -k], -1))


def _policy_quadratic(Q, N, R, eta, nbar, c0, Kz):
    """Running cost weight W of one agent under u = -K X + k = -Kz z on
    z = (X; 1), Kz = [K, -k]: W = Qz - Nz Kz - Kz'Nz' + Kz'R Kz, symmetrized,
    Qz = [[Q, -eta], [-eta', c0]] and Nz = [N; -nbar'], so z'Wz = X'QX +
    2X'Nu + u'Ru - 2X'eta - 2u'nbar + c0.  Kz may be a stage table and W is
    then one too (a stack's weights and c0 carry a member axis in front,
    tables after).  Every exact cost in the package passes through here.
    """
    Qz = _homogeneous(Q, -eta)
    Qz[..., -1, :-1] = Qz[..., :-1, -1]
    Qz[..., -1:, -1:] = c0
    Nz = np.concatenate([N, -np.swapaxes(nbar, -1, -2)], -2)
    with np.errstate(over="ignore", invalid="ignore"):   # the cost sweep reports overflow
        NK = Nz @ Kz
        W = Qz - NK        # summed in place, in the order Qz - NK - NK' + Kz'RKz
        W -= np.swapaxes(NK, -1, -2)
        del NK
        W += np.swapaxes(Kz, -1, -2) @ R @ Kz
        return symmetrize(W)


def expected_cost(p: LqgProblem, law) -> float:
    """Exact J under a linear law u = -Kx + k, from the second moment of
    z = (x; 1) under the closed loop: no sampling."""
    Kz = _law_stage_table(p, law)
    sig = _stage_values(p.sigma)
    S = _homogeneous(symmetrize(np.einsum("qir,qjr->qij", sig, sig)), 0.0)
    F = _homogeneous(p.A, _stage_values(p.b)) - np.vstack([p.B, np.zeros((1, p.m))]) @ Kz
    z0 = np.vstack([p.x0, [[1.0]]])
    W = _policy_quadratic(p.Q, p.N_cross, p.R, p.eta, p.n_lin, 0.0, Kz)
    # the closed loop as a one-member stack
    return float(closed_loop_cost_moments(
        p.grid, p.rho, (z0 @ z0.T)[None], F[:, None], S[:, None],
        [(W[:, None], _homogeneous(p.Qhat, 0.0)[None])])[0, 0])


def _open_loop_trajectory(p: LqgProblem, u: GridFunction) -> GridFunction:
    """Forward x under dx = Ax + Bu(t) + b(t), x(0) = x0 (deterministic)."""
    u_tab = _stage_values(u)
    b_tab = _stage_values(p.b)

    def rhs(q, x):
        return p.A @ x + p.B @ u_tab[q] + b_tab[q]

    return rk4_forward_indexed(rhs, p.x0, p.grid)


def costate_oracle(p: LqgProblem, u: GridFunction) -> tuple:
    """Deterministic state and costate (x, p) along the trajectory driven
    by u (sigma = 0), as GridFunctions.

    p solves the adjoint equation p' = -A'p - e^{-rho t}(Q x + N u - eta),
    p(T) = e^{-rho T} Qhat x_T, swept backward by RK4 with x and u read at
    the stages through _stage_values.
    """
    if not np.allclose(p.sigma.values, 0.0):
        raise UnsupportedOracleError(
            "costate oracle is defined only for sigma = 0"
        )
    if u.shape != (p.m, 1):
        raise SchemaError("control must be m x 1 on the grid")
    x = _open_loop_trajectory(p, u)
    disc = _discount_stages(p.grid, p.rho)[:, None, None]
    forcing = disc * (p.Q @ _stage_values(x) + p.N_cross @ _stage_values(u) - p.eta)
    At = p.A.T

    def rhs(q, costate):
        return -(At @ costate) - forcing[q]

    return x, rk4_backward_indexed(rhs, disc[-1] * (p.Qhat @ x.values[-1]), p.grid)


def gateaux_derivative_det(p: LqgProblem, u: GridFunction, omega: GridFunction) -> float:
    """Directional derivative of J at control u in direction omega (sigma = 0).

    <DJ(u), omega> = int omega' [ e^{-rho t}(N'x + Ru - n) + B'p(t) ] dt
    with the costate p from costate_oracle; the time integral uses the
    trapezoid rule on the grid nodes.
    """
    x, costate = costate_oracle(p, u)
    if omega.shape != (p.m, 1):
        raise SchemaError("direction must be m x 1 on the grid")
    grid = p.grid
    disc = np.exp(-p.rho * grid.nodes)
    g = disc[:, None, None] * (
        np.einsum("ab,jbc->jac", p.N_cross.T, x.values)
        + np.einsum("ab,jbc->jac", p.R, u.values)
        - p.n_lin[None, :, :]
    ) + np.einsum("ab,jbc->jac", p.B.T, costate.values)
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


# The ARE gate's roundoff allowance, in eps times the sum of the norms of
# the residual's terms (a relative backward error of 2.2e-12).  The sign
# route reaches 515 on the random problems of tests/test_are.py (n <= 8,
# ||Pi|| up to 1.5e6), still within 3.3e-10 of scipy's CARE; a wrong root
# leaves a residual of the order of the terms themselves.
ARE_ROUNDOFF = 1e4
ARE_RESIDUAL_TOL = 1e-9   # the ARE gate's absolute residual allowance


def _are_terms(Pi, A, B, Q, N, R_solve, rho) -> tuple:
    """The ARE residual's terms Pi A, A'Pi, (Pi B + N) R^{-1} (B'Pi + N'),
    Q and rho Pi, in the order _are_residual sums them."""
    PBN = Pi @ B + N
    return Pi @ A, A.T @ Pi, PBN @ R_solve(PBN.T), Q, rho * Pi


def _are_residual(Pi, A, B, Q, N, R_solve, rho):
    PA, AtP, gain, Q, rP = _are_terms(Pi, A, B, Q, N, R_solve, rho)
    return PA + AtP - gain + Q - rP


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
    what: str = "R",
) -> np.ndarray:
    """Stabilizing solution of rho Pi = Pi A + A'Pi - (Pi B+N)R^{-1}(B'Pi+N') + Q.

    The cross term and the discount are folded into the drift A - (rho/2) I
    - B R^{-1} N' and the weight Q - N R^{-1} N'; Pi spans the stable
    invariant subspace of that problem's Hamiltonian, read off its matrix
    sign function (Byers 1987).  Up to three Newton-Kleinman steps (Kleinman
    1968) then polish Pi, each Lyapunov equation A_c'X + X A_c + F = 0
    solved by sign([[A_c', F], [0, -A_c]]) = [[-I, 2X], [0, I]] (Roberts
    1980).  Pi is accepted when its residual norm is below ARE_RESIDUAL_TOL or,
    for large weights, below the roundoff bound ARE_ROUNDOFF eps times the
    sum of the terms' norms, and its closed loop is stable; otherwise
    AreSolveError is raised.
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

    for newton in range(4):   # the last pass only gates the third step's Pi
        F = _are_residual(Pi, A, B, Q, N, rinv, rho)
        A_c = A - B @ rinv(B.T @ Pi + N.T) - 0.5 * rho * np.eye(n)
        stable = bool(np.max(np.linalg.eigvals(A_c).real) < 0)
        # a Newton step is not defined off the stabilizing branch
        if newton == 3 or float(np.linalg.norm(F)) < 1e-13 or not stable:
            break
        S = _matrix_sign(np.block([[A_c.T, F], [np.zeros((n, n)), -A_c]]))
        Pi = symmetrize(Pi + 0.5 * S[:n, n:])

    res = float(np.linalg.norm(F))
    roundoff = ARE_ROUNDOFF * np.finfo(float).eps * sum(
        map(np.linalg.norm, _are_terms(Pi, A, B, Q, N, rinv, rho)))
    if res >= max(ARE_RESIDUAL_TOL, roundoff) or not stable:
        raise AreSolveError(
            "no stabilizing Riccati solution found (residual %.3e, closed loop %s)"
            % (res, "stable" if stable else "unstable")
        )
    return Pi


def _constant_value(gf: GridFunction, name: str) -> np.ndarray:
    """gf's one value: a drift of the stationary problem must not vary."""
    if not np.all(gf.values == gf.values[0]):
        raise SchemaError("must be constant for the stationary problem", field=name)
    return gf.values[0]


def _solve_agent_stationary(exts: List[ExtendedSystem], rho: float,
                            reports: Optional[list] = None):
    """Infinite horizon: each agent of a stack's discounted ARE and steady
    offset, from its drift and offset at node 0.

    Each agent's drift shifted by -rho/2 must first pass the Hautus tests
    with the record's weight factor; reports, if given, receives each
    agent's Hautus report.  Returns (Pis, ss) as _solve_agent_finite does,
    each table constant on its agent's grid (one step for every caller, as
    nothing else is read).  Every agent is solved alone, so a stack member
    rounds as a one-member stack does.
    """
    Pis, ss = [], []
    for ext in exts:
        A = ext.A.values[0]
        shifted = A - 0.5 * rho * np.eye(ext.dim)
        rep = _require_hautus(hautus_report(shifted, ext.B, ext.Q_factor, tol=1e-9),
                              "%s system" % ext.what)
        Pi = solve_discounted_are(A, ext.B, ext.Q, ext.N, ext.R, rho, what=ext.what + " R")
        s = _steady_offset(A, ext.B, ext.N, ext.Rinv, rho, Pi,
                           ext.b.values[0], ext.nbar, ext.eta)
        Pis.append(GridFunction.constant(ext.A.grid, Pi))
        ss.append(GridFunction.constant(ext.A.grid, s))
        if reports is not None:
            reports.append(rep)
    return Pis, ss


@dataclass
class StationarySolution:
    """Stationary optimum: value Pi, offset s and the law u = -K x + k."""

    Pi: np.ndarray
    s: np.ndarray
    K: np.ndarray
    k: np.ndarray
    are_residual: float
    report: DetectStabReport


def solve_infinite_horizon(p: LqgProblem) -> StationarySolution:
    """Convexity checks, the stationary agent solve, then the gain table.

    Requires constant b.  The problem is solved on a one-step grid with b
    and sigma frozen at t = 0, since the stationary solve reads node 0
    only; detectability and stabilizability of the shifted pair are
    checked first and violations are rejected.
    """
    q = dataclasses.replace(p, grid=TimeGrid(p.grid.t_end, 1), b=_constant_value(p.b, "b"),
                            sigma=p.sigma.values[0])
    validate_convexity(q).require()
    agent, hautus = q._agent(), []
    (Pi,), (s,) = _solve_agent_stationary([agent], q.rho, hautus)
    law = _gain_tables(agent, Pi, s)
    Pi, s = Pi.values[0], s.values[0]
    res = float(np.linalg.norm(_are_residual(Pi, q.A, q.B, q.Q, q.N_cross,
                                             spd_solver(q.R), q.rho)))
    return StationarySolution(
        Pi=Pi, s=s, K=law.K.values[0], k=law.k.values[0], are_residual=res,
        report=hautus[0],
    )
