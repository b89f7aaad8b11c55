"""Deterministic numerical substrate.

Uniform time grids, the classic fixed-step RK4 sweep for matrix-valued ODEs
in both directions, linear interpolation, and symmetric/PSD utilities.
Every solver in the package shares one discretization, so all grids are
uniform and all sweeps land exactly on the grid nodes.  Every RK4 sweep
reads half-step stage tables and steps through the one loop here,
_rk4_sweep, but the affine offset sweep, which applies each RK4 step as
one affine map (rk4_affine_backward).  Every sweep state is a matrix, or
a stack of independent matrices (such as the minor types' Riccati
matrices) with a leading member axis.  Finiteness is checked once per
sweep, on the node table, at the first non-finite node in sweep order.
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

    inf, NaN, 2.5 and a bool raise SchemaError rather than meet int().
    """
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and math.isfinite(value)
            and value == int(value))) \
            or value < low or (high is not None and value >= high):
        raise SchemaError("must be an integer >= %d%s, got %r" % (
            low, "" if high is None else " and < %d" % high, value), field=name)
    return int(value)


def _as_seed(value, name: str) -> int:
    """A master seed: an integer in [0, 2^64), one Philox key word."""
    return _as_count(value, name, 0, 2 ** 64)


def _as_real(value, name: str) -> float:
    """A real number; a bool, a non-numeric string, a list or None raise SchemaError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError("expected a real number, got %r" % (value,), field=name)


def _as_floats(name: str, value) -> np.ndarray:
    """value as a float array of its own shape; non-numeric or ragged input
    raises SchemaError rather than meet np.asarray's untyped errors."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError("expected a rectangular numeric array", field=name)


def _as_array(name: str, value) -> np.ndarray:
    """value as a finite float array of its own shape (see _as_floats)."""
    v = _as_floats(name, value)
    if not np.all(np.isfinite(v)):
        raise SchemaError("has a non-finite entry", field=name)
    return v


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with num_steps intervals.

    Nodes are t_j = j * h for j = 0..num_steps with h = t_end / num_steps.
    """

    t_end: float
    num_steps: int

    def __post_init__(self):
        t_end = _as_real(self.t_end, "t_end")
        if not 0.0 < t_end < math.inf:
            raise SchemaError("must be positive and finite", field="t_end")
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "num_steps",
                           _as_count(self.num_steps, "num_steps", 1))

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
        # no finiteness check: a diverged table is a numerical failure
        v = _as_floats("values", self.values)
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
    if not math.isfinite(u) or u < -snap or u > grid.num_steps + snap:
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
    S = np.add(P, np.swapaxes(P, -1, -2), dtype=float)
    S *= 0.5
    return S


def matvec_rows(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for each row x of a stack (..., L), summed row by row: a BLAS
    product of the stack may round a row unlike that row alone."""
    return (x[..., None, :] * A).sum(-1)


def psd_margin(P: np.ndarray, tol: float) -> tuple:
    """(minimum eigenvalue, allowance) of the symmetrized P, from one
    eigvalsh: P is PSD within tol when the first is >= -allowance, with
    allowance = tol * max(1, largest eigenvalue magnitude).  An empty P
    gives (0.0, tol)."""
    if P.size == 0:
        return 0.0, tol
    w = np.linalg.eigvalsh(symmetrize(P))
    return float(w[0]), tol * max(1.0, float(np.max(np.abs(w))))


def flatten(*parts) -> np.ndarray:
    """One flat array of every part's elements, in order (C order within)."""
    return np.concatenate(parts, axis=None)


def unflatten(x: np.ndarray, shapes) -> list:
    """Views of consecutive blocks of x's elements, one per shape.

    Inverse of flatten for a contiguous x.
    """
    flat = x.reshape(-1)
    parts, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        parts.append(flat[start:start + size].reshape(shape))
        start += size
    return parts


def _rk4_sweep(stage_rhs, start, grid: TimeGrid, sign: int):
    """The package's one RK4 stepping loop: forward for sign +1, backward for -1.

    stage_rhs(q, Y) is the derivative at time q * h / 2.  start is stored
    exactly at the first node.  A state of shape (L, rows, cols) is a
    stack of L independent members stepped together, and the sweep returns
    one GridFunction per member; any other state returns one GridFunction.
    Finiteness is checked as _finite_tables says.
    """
    Y = np.atleast_2d(np.asarray(start, dtype=float)).copy()
    M = grid.num_steps
    h = sign * grid.h
    first = 0 if sign > 0 else M
    # one contiguous node table per member, member axis first
    out = np.empty((Y.shape[0] if Y.ndim == 3 else 1, M + 1) + Y.shape[-2:])
    out[:, first] = Y
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
            out[:, b] = Y
    tables = _finite_tables(out, grid, sign)
    return tables if Y.ndim == 3 else tables[0]


def _finite_tables(out, grid: TimeGrid, sign: int) -> list:
    """The members of a sweep's node table out (members, nodes, rows, cols)
    as GridFunctions, once finite.  Else IntegrationDivergedError names the
    lowest-index member that left the finite range (member) at its first
    non-finite node value in sweep order (direction sign), as a check after
    every step would; if the last RK4 stage overflows, that node can come up
    to 5 steps before the exact solution leaves the float range."""
    first = 0 if sign > 0 else grid.num_steps
    stepped = out[:, 1:] if sign > 0 else out[:, -2::-1]   # the stepped nodes, in sweep order
    finite = np.isfinite(stepped).reshape(stepped.shape[:2] + (-1,)).all(-1)
    if not finite.all():
        member = int(np.argmin(finite.all(1)))
        b = first + sign * (int(np.argmin(finite[member])) + 1)
        raise IntegrationDivergedError(
            "%s integration produced a non-finite value at node %d (t = %.12g)"
            % ("forward" if sign > 0 else "backward", b, b * grid.h),
            node=b, time=b * grid.h, member=member,
        )
    return [GridFunction(grid, values) for values in out]


def rk4_backward_indexed(stage_rhs, terminal, grid: TimeGrid):
    """RK4 sweep from t_end down to 0 whose right-hand side is queried by
    half-step index.

    stage_rhs(q, Y) evaluates the derivative at time q * h / 2, so nodes are
    even q and interval midpoints odd q.  Lets callers with tabulated
    time-varying coefficients avoid interpolation in the hot loop.
    terminal is stored at the last node exactly.  A terminal of shape
    (L, rows, cols) sweeps a stack of L members and returns a list of L
    GridFunctions (see _rk4_sweep).
    """
    return _rk4_sweep(stage_rhs, terminal, grid, -1)


def rk4_forward_indexed(stage_rhs, initial, grid: TimeGrid) -> GridFunction:
    """Forward mirror of rk4_backward_indexed; initial is stored at node 0."""
    return _rk4_sweep(stage_rhs, initial, grid, 1)


def integrate_backward(rhs, terminal, grid: TimeGrid) -> GridFunction:
    """rk4_backward_indexed with the right-hand side rhs(t, Y) given by time.

    Nothing in the package calls it; the benchmark tracer
    (perfbench/spans.py) still wraps this name.
    """
    h = grid.h
    return _rk4_sweep(lambda q, Y: rhs(0.5 * q * h, Y), terminal, grid, -1)


# Step maps, steps times members, that rk4_affine_backward forms at once
MAP_BLOCK = 32


def rk4_affine_backward(L_st: np.ndarray, f_st: np.ndarray, grid: TimeGrid) -> list:
    """RK4 sweep of y' = L(t) y - f(t), y(t_end) = 0, down to 0 for a stack
    on stage tables L_st (2M + 1, members, d, d) and f_st (2M + 1, members,
    d, 1), as step maps y_j = Phi_j y_{j+1} + c_j, formed by stacked products
    for MAP_BLOCK // members steps at a time, then applied node by node.
    With G = [L | -f] and h = -grid.h, P1 = G_a, P2 = G_m + (h/2) L_m P1,
    P3 = G_m + (h/2) L_m P2 and P4 = G_b + h L_b P3 at the step's upper
    node, midpoint and lower node, and [Phi | c] = [I | 0] + (h/6)(P1 +
    2 P2 + 2 P3 + P4).  Members round as alone; finiteness as in _rk4_sweep."""
    M, h = grid.num_steps, -grid.h
    _, members, d, _ = L_st.shape
    out = np.empty((members, M + 1, d, 1))
    out[:, M] = y = np.zeros((members, d, 1))
    nb = min(M, max(1, MAP_BLOCK // members))
    # overflow in a diverging sweep is expected; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(M, 0, -nb):
            lo = max(hi - nb, 0)
            G = np.concatenate([L_st[2 * lo:2 * hi + 1], -f_st[2 * lo:2 * hi + 1]], -1)
            Gm, Gb = G[1::2], G[:-1:2]
            P2 = Gm + 0.5 * h * (Gm[..., :d] @ G[2::2])
            P3 = Gm + 0.5 * h * (Gm[..., :d] @ P2)
            S = (h / 6.0) * (G[2::2] + 2.0 * P2 + 2.0 * P3 + Gb + h * (Gb[..., :d] @ P3))
            Phi, c = S[..., :d] + np.eye(d), S[..., d:]
            for i in range(hi - lo - 1, -1, -1):
                out[:, lo + i] = y = Phi[i] @ y + c[i]
    return _finite_tables(out, grid, -1)


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    """Composite trapezoid quadrature weights on the grid nodes."""
    w = np.full(grid.num_nodes, grid.h)
    w[0] = 0.5 * grid.h
    w[-1] = 0.5 * grid.h
    return w
