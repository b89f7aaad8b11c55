"""Deterministic numerical substrate.

Uniform time grids, the classic fixed-step RK4 sweep for matrix-valued ODEs
in both directions, linear interpolation, and symmetric/PSD utilities.
Every solver in the package shares one discretization, so all grids are
uniform and all sweeps land exactly on the grid nodes.  Every RK4 sweep in
the package steps through the one loop here, _rk4_sweep, with its
coefficients read from half-step stage tables; a state made of several
parts travels packed into one contiguous array (flatten / unflatten).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationDivergedError, OutOfRangeError, SchemaError

# Snap tolerance for node queries, in units of the step fraction u = t/h:
# 64 roundings of u, but at least _NODE_SNAP steps.  Snapping moves a value
# by at most that fraction of its change over one step.
_NODE_SNAP = 1e-12
_SNAP_ULPS = 64 * np.finfo(float).eps


def _as_count(value, name: str, low: int, high=None) -> int:
    """An integer in [low, high): an int, or a float with an integral value.

    inf, NaN and 2.5 raise SchemaError rather than meet int().
    """
    if not (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and math.isfinite(value)
            and value == int(value))) \
            or value < low or (high is not None and value >= high):
        raise SchemaError("%s must be an integer >= %d%s, got %r" % (
            name, low, "" if high is None else " and < %d" % high, value))
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with num_steps intervals.

    Nodes are t_j = j * h for j = 0..num_steps with h = t_end / num_steps.
    """

    t_end: float
    num_steps: int

    def __post_init__(self):
        if not 0.0 < float(self.t_end) < math.inf:
            raise SchemaError("TimeGrid.t_end must be positive and finite")
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "num_steps",
                           _as_count(self.num_steps, "TimeGrid.num_steps", 1))

    @property
    def h(self) -> float:
        return self.t_end / self.num_steps

    @property
    def num_nodes(self) -> int:
        return self.num_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.num_steps + 1)


@dataclass
class GridFunction:
    """Matrix-valued function sampled on a TimeGrid.

    values has shape (num_steps + 1, rows, cols): one matrix per node.
    Between nodes the function is defined by linear interpolation.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None, None]
        elif v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3:
            raise SchemaError("GridFunction values must be (nodes, rows, cols)")
        if v.shape[0] != self.grid.num_nodes:
            raise SchemaError(
                "GridFunction has %d value rows, grid has %d nodes"
                % (v.shape[0], self.grid.num_nodes)
            )
        self.values = np.ascontiguousarray(v)

    @property
    def shape(self):
        return self.values.shape[1:]

    @classmethod
    def constant(cls, grid: TimeGrid, matrix) -> "GridFunction":
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        vals = np.broadcast_to(m, (grid.num_nodes,) + m.shape).copy()
        return cls(grid, vals)

    @classmethod
    def zeros(cls, grid: TimeGrid, rows: int, cols: int = 1) -> "GridFunction":
        return cls(grid, np.zeros((grid.num_nodes, rows, cols)))

    def interp(self, t: float) -> np.ndarray:
        return interp(self, t)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


def interp(gf: GridFunction, t: float) -> np.ndarray:
    """Linear interpolation of a GridFunction; exact at grid nodes."""
    grid = gf.grid
    h = grid.h
    u = t / h
    snap = max(_NODE_SNAP, _SNAP_ULPS * abs(u))
    if u < -snap or u > grid.num_steps + snap:
        raise OutOfRangeError(
            "time %g outside grid [0, %g]" % (t, grid.t_end)
        )
    j_near = int(round(u))
    if abs(u - j_near) <= snap:
        return gf.values[j_near].copy()
    j = int(np.floor(u))
    frac = u - j
    return (1.0 - frac) * gf.values[j] + frac * gf.values[j + 1]


def symmetrize(P: np.ndarray) -> np.ndarray:
    """Return (P + P^T) / 2, matrix by matrix for a stack."""
    P = np.asarray(P, dtype=float)
    return 0.5 * (P + P.swapaxes(-1, -2))


# Pade [13/13] coefficients of exp and the 1-norm up to which the
# approximant is accurate to double precision (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005).

    A is scaled by 2^-s until its 1-norm is at most _THETA13, the [13/13]
    Pade approximant is formed there and squared s times.
    """
    norm = float(np.linalg.norm(A, 1))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = A / 2.0 ** s
    b = _PADE13
    I = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def matvec_rows(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for each row x of a stack (..., L), summed row by row: a BLAS
    product of the stack may round a row unlike that row alone."""
    return (x[..., None, :] * A).sum(-1)


def psd_check(P: np.ndarray, tol: float) -> bool:
    """True iff the minimum eigenvalue of the symmetrized input is >= -tol."""
    P = symmetrize(np.asarray(P, dtype=float))
    if P.size == 0:
        return True
    w = np.linalg.eigvalsh(P)
    return bool(w[0] >= -tol)


def flatten(*parts) -> np.ndarray:
    """One flat array of every part's elements, in order (C order within)."""
    return np.concatenate(parts, axis=None)


def unflatten(x: np.ndarray, shapes) -> list:
    """Views of consecutive blocks of x's elements, one per shape.

    Inverse of flatten for a contiguous x.  A scalar part, shape (), comes
    back as a number, not a view: 0-d array arithmetic is slow.
    """
    flat = x.reshape(-1)
    parts, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        parts.append(flat[start:start + size].reshape(shape) if shape else flat[start])
        start += size
    return parts


def symmetrize_leading(n: int):
    """Projection that symmetrizes the leading n x n block of a packed state.

    For sweeps of a matrix ODE packed with other parts (see flatten): the
    state is changed in place and returned.
    """

    def project(Y):
        P = unflatten(Y, [(n, n)])[0]
        P[...] = symmetrize(P)
        return Y

    return project


def _check_finite(Y: np.ndarray, node: int, t: float, what: str):
    if not np.all(np.isfinite(Y)):
        raise IntegrationDivergedError(
            "%s produced a non-finite value at node %d (t = %.12g)"
            % (what, node, t),
            node=node,
            time=t,
        )


def _rk4_sweep(stage_rhs, start, grid: TimeGrid, sign: int, project) -> GridFunction:
    """The package's one RK4 stepping loop: forward for sign +1, backward for -1.

    stage_rhs(q, Y) is the derivative at time q * h / 2.  start is stored
    exactly at the first node; project, if given, is applied to the state
    after every completed step.  A non-finite value raises
    IntegrationDivergedError naming the node.
    """
    Y = np.atleast_2d(np.asarray(start, dtype=float)).copy()
    M = grid.num_steps
    h = sign * grid.h
    first = 0 if sign > 0 else M
    what = "forward integration" if sign > 0 else "backward integration"
    out = np.empty((M + 1,) + Y.shape)
    out[first] = Y
    # overflow in a diverging sweep is expected; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(M):
            a = first + sign * i
            b = a + sign
            k1 = stage_rhs(2 * a, Y)
            k2 = stage_rhs(a + b, Y + 0.5 * h * k1)
            k3 = stage_rhs(a + b, Y + 0.5 * h * k2)
            k4 = stage_rhs(2 * b, Y + h * k3)
            Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if project is not None:
                Y = project(Y)
            _check_finite(Y, b, b * grid.h, what)
            out[b] = Y
    return GridFunction(grid, out)


def rk4_backward_indexed(stage_rhs, terminal, grid: TimeGrid, project=None) -> GridFunction:
    """RK4 sweep from t_end down to 0 whose right-hand side is queried by
    half-step index.

    stage_rhs(q, Y) evaluates the derivative at time q * h / 2, so nodes are
    even q and interval midpoints odd q.  Lets callers with tabulated
    time-varying coefficients avoid interpolation in the hot loop.
    terminal is stored at the last node exactly; project (used to
    symmetrize Riccati iterates) follows every step.
    """
    return _rk4_sweep(stage_rhs, terminal, grid, -1, project)


def rk4_forward_indexed(stage_rhs, initial, grid: TimeGrid, project=None) -> GridFunction:
    """Forward mirror of rk4_backward_indexed; initial is stored at node 0."""
    return _rk4_sweep(stage_rhs, initial, grid, 1, project)


def integrate_backward(rhs, terminal, grid: TimeGrid, project=None) -> GridFunction:
    """rk4_backward_indexed with the right-hand side rhs(t, Y) given by time.

    Nothing in the package calls it; the benchmark tracer
    (perfbench/spans.py) still wraps this name.
    """
    h = grid.h
    return _rk4_sweep(lambda q, Y: rhs(0.5 * q * h, Y), terminal, grid, -1, project)


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of equally spaced samples by local parabola fits.

    values has shape (M+1, ...); returns the running integral at every node
    with out[0] = 0.  Each increment integrates the quadratic through three
    consecutive samples, which keeps node-wise accuracy at O(h^3) where the
    trapezoid rule gives O(h^2).
    """
    v = np.asarray(values, dtype=float)
    M = v.shape[0] - 1
    out = np.zeros_like(v)
    if M == 0:
        return out
    if M == 1:
        out[1] = 0.5 * h * (v[0] + v[1])
        return out
    # Increment over [t_{j-1}, t_j] from the parabola through nodes
    # (j-2, j-1, j); the first interval uses the parabola through (0, 1, 2).
    out[1] = h * ((5.0 / 12.0) * v[0] + (2.0 / 3.0) * v[1] - (1.0 / 12.0) * v[2])
    inc = h * (-(1.0 / 12.0) * v[:-2] + (2.0 / 3.0) * v[1:-1] + (5.0 / 12.0) * v[2:])
    out[2:] = out[1] + np.cumsum(inc, axis=0)
    return out


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    """Composite trapezoid quadrature weights on the grid nodes."""
    w = np.full(grid.num_nodes, grid.h)
    w[0] = 0.5 * grid.h
    w[-1] = 0.5 * grid.h
    return w
