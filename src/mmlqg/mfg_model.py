"""Data model for the major-minor game and the one assembly of its agents.

Minor agents of K types couple to one major agent through the average
minor state; in the infinite-population limit that average is the
stacked per-type mean field, whose dynamics are a MeanFieldLaw: the open
loop of the primitive coefficients, or the closed loop of the minors'
laws.  Each agent is built here as lqg_single's ExtendedSystem, with its
Hautus weight factor and R^{-1}: the major on (x0; xbar) against a law,
each minor type on (x_i; x0; xbar) against that major record, so the
major is built once per law.  Each agent's cost tracks C X - eta, and
lift_tracking alone turns C and the primitive weights into its weights,
the finite-N deviator's included.  Their primitive weights pass
lqg_single's convexity check, as a standalone LQG problem's do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import DimensionGuardError, SchemaError
from .lqg_single import (
    PSD_TOL,
    ExtendedSystem,
    ValidationReport,
    _as_fields,
    _as_rate,
    _shaped,
    add_convexity_checks,
    psd_sqrt,
)
from .numerics import GridFunction, TimeGrid, _as_array, psd_margin, symmetrize


@dataclass
class MajorParams:
    """The major agent's coefficients, shaped in n = dim x, m = dim u and
    r = dim w."""

    A0: np.ndarray = _shaped("n", "n", required=True)
    F0: np.ndarray = _shaped("n", "n")
    B0: np.ndarray = _shaped("n", "m", required=True)
    b0: GridFunction = _shaped("n", 1)
    sigma0: np.ndarray = _shaped("n", "r")
    Qhat0: np.ndarray = _shaped("n", "n", required=True)
    Q0: np.ndarray = _shaped("n", "n", required=True)
    N0: np.ndarray = _shaped("n", "m")
    R0: np.ndarray = _shaped("m", "m", required=True)
    H0: np.ndarray = _shaped("n", "n")
    eta0: np.ndarray = _shaped("n", 1)


@dataclass
class MinorTypeParams:
    """One minor type's coefficients, shaped as the major's."""

    Ak: np.ndarray = _shaped("n", "n", required=True)
    Fk: np.ndarray = _shaped("n", "n")
    Gk: np.ndarray = _shaped("n", "n")
    Bk: np.ndarray = _shaped("n", "m", required=True)
    bk: GridFunction = _shaped("n", 1)
    sigmak: np.ndarray = _shaped("n", "r")
    Qhatk: np.ndarray = _shaped("n", "n", required=True)
    Qk: np.ndarray = _shaped("n", "n", required=True)
    Nk: np.ndarray = _shaped("n", "m")
    Rk: np.ndarray = _shaped("m", "m", required=True)
    Hk: np.ndarray = _shaped("n", "n")
    Hhatk: np.ndarray = _shaped("n", "n")
    etak: np.ndarray = _shaped("n", 1)


@dataclass
class MmMfgProblem:
    """Game data: one major agent, K minor types with fractions pi.

    Initial states have mean zero and the given covariances;
    rho = 0 on the finite horizon, rho > 0 for the stationary problem.
    Every record is coerced to its fields' shapes, with zeros for an
    omitted optional field; errors name the attribute path, like
    major.A0 or minors[1].Rk.
    """

    major: MajorParams
    minors: List[MinorTypeParams]
    pi: np.ndarray
    grid: TimeGrid
    rho: float = 0.0
    init_cov_major: Optional[np.ndarray] = _shaped("n", "n")
    init_cov_minor: Optional[np.ndarray] = _shaped("n", "n")

    def __post_init__(self):
        dims = _as_fields(self.major, self.grid, "major.")
        if not self.minors:
            raise SchemaError("at least one minor type is required", field="minors")
        for k, mn in enumerate(self.minors):
            _as_fields(mn, self.grid, "minors[%d]." % k, dims)
        _as_fields(self, self.grid, dims=dims)
        self.pi = _as_array("pi", self.pi).reshape(-1)
        if self.pi.size != len(self.minors):
            raise SchemaError("expected one entry per minor type, got %d for %d types"
                              % (self.pi.size, len(self.minors)), field="pi")
        self.rho = _as_rate(self.rho)

    @property
    def n(self) -> int:
        return self.major.A0.shape[0]

    @property
    def m(self) -> int:
        return self.major.B0.shape[1]

    @property
    def r(self) -> int:
        return self.major.sigma0.shape[1]

    @property
    def K(self) -> int:
        return len(self.minors)


def selector(k: int, n: int, K: int) -> np.ndarray:
    """e_k: n x nK with the identity at block k (0-based)."""
    e = np.zeros((n, n * K))
    e[:, k * n:(k + 1) * n] = np.eye(n)
    return e


def replicate_pi(M: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """[pi_1 M, ..., pi_K M]: the population-fraction expansion."""
    return np.hstack([float(w) * M for w in pi])


@dataclass
class MeanFieldLaw:
    """Mean-field dynamics dxbar = (Abar xbar + Gbar x0 + mbar) dt."""

    Abar: GridFunction     # nK x nK
    Gbar: GridFunction     # nK x n
    mbar: GridFunction     # nK x 1


def validate_problem(p: MmMfgProblem) -> ValidationReport:
    """Distribution, convexity, and structural checks for the game data,
    each within PSD_TOL."""
    rep = ValidationReport()

    pi_ok = np.all(p.pi >= -PSD_TOL) and abs(float(p.pi.sum()) - 1.0) <= PSD_TOL
    rep.add("pi is a distribution", bool(pi_ok), "sum %.6g" % float(p.pi.sum()))

    margins = [psd_margin(V, PSD_TOL) for V in (p.init_cov_major, p.init_cov_minor)]
    rep.add("initial covariances PSD", all(w_min >= -w_tol for w_min, w_tol in margins),
            "min eigenvalue %.3e" % min(w_min for w_min, _ in margins))

    add_convexity_checks(rep, "major ", p.major.Qhat0, p.major.Q0, p.major.N0,
                         p.major.R0, PSD_TOL)
    for k, mn in enumerate(p.minors):
        add_convexity_checks(rep, "minor[%d] " % k, mn.Qhatk, mn.Qk, mn.Nk, mn.Rk, PSD_TOL)
    return rep


def build_mean_field_matrices(p: MmMfgProblem) -> MeanFieldLaw:
    """The open-loop law: row block k is A_k e_k + F_k^pi, G_k and b_k."""
    n, K = p.n, p.K
    Abreve = np.vstack(
        [mn.Ak @ selector(k, n, K) + replicate_pi(mn.Fk, p.pi)
         for k, mn in enumerate(p.minors)]
    )
    Gbreve = np.vstack([mn.Gk for mn in p.minors])
    mvals = np.concatenate([mn.bk.values for mn in p.minors], axis=1)
    return MeanFieldLaw(GridFunction.constant(p.grid, Abreve),
                        GridFunction.constant(p.grid, Gbreve),
                        GridFunction(p.grid, mvals))


def lift_tracking(C, Qhat, Q, N, R, eta) -> dict:
    """The weights of an agent whose running cost tracks C X - eta.

    From the tracking map C and the primitive weights, the ExtendedSystem
    keywords Qhat = C'Qhat C, Q = C'QC, N = C'N, R, eta = C'Q eta, nbar =
    N'eta and the Hautus factor psd_sqrt(Q) C.  The terminal weight hits
    C X alone: eta is a running-cost target, so the terminal cost has no
    linear part.  A finite C or Q can overflow here: ExtendedSystem reports
    the non-finite weight as a config error, so numpy's warning is muted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return dict(Qhat=symmetrize(C.T @ Qhat @ C), Q=symmetrize(C.T @ Q @ C),
                    N=C.T @ N, R=R, eta=C.T @ Q @ eta, nbar=N.T @ eta,
                    Q_factor=psd_sqrt(Q) @ C)


def build_extended_major(p: MmMfgProblem, law: MeanFieldLaw) -> ExtendedSystem:
    """Major dynamics and cost on the state (x0; xbar) against law.

    Dynamics blocks [[A0, F0^pi], [Gbar, Abar]] and offset (b0; mbar);
    the weights are the lift of the tracking map T = [I, -H0^pi].
    """
    n, m, K = p.n, p.m, p.K
    d = n + n * K
    mj = p.major
    A = np.empty((p.grid.num_nodes, d, d))
    A[:, :n] = np.hstack([mj.A0, replicate_pi(mj.F0, p.pi)])
    A[:, n:, :n] = law.Gbar.values
    A[:, n:, n:] = law.Abar.values
    b = np.concatenate([mj.b0.values, law.mbar.values], axis=1)
    T = np.hstack([np.eye(n), -replicate_pi(mj.H0, p.pi)])
    return ExtendedSystem(
        what="major", A=GridFunction(p.grid, A),
        B=np.vstack([mj.B0, np.zeros((n * K, m))]), b=GridFunction(p.grid, b),
        **lift_tracking(T, mj.Qhat0, mj.Q0, mj.N0, mj.R0, mj.eta0),
    )


def build_extended_minor(
    p: MmMfgProblem,
    k: int,
    major: ExtendedSystem,
    Pi0: GridFunction,
    s0: GridFunction,
) -> ExtendedSystem:
    """Minor type k's dynamics and cost on the state (x_i; x0; xbar).

    major is the major's record for the same law and (Pi0, s0) its
    Riccati solution.  The lower-right block is the major's extended
    closed loop A0ext(t) - Bb0 R0^{-1} N0ext' - Bb0 R0^{-1} Bb0' Pi0(t),
    and the drift offset picks up -Bb0 R0^{-1} Bb0' s0(t).  The weights
    are the lift of the tracking map S = [I, -Hk, -Hhatk^pi].
    """
    n, m = p.n, p.m
    d0 = major.dim
    d = n + d0
    if Pi0.shape != (d0, d0):
        raise DimensionGuardError("Pi0 must be %d x %d on the grid" % (d0, d0))
    if s0.shape != (d0, 1):
        raise DimensionGuardError("s0 must be %d x 1 on the grid" % d0)
    mn = p.minors[k]
    BRN = major.B @ (major.Rinv @ major.N.T)     # Bb0 R0^{-1} N0ext'
    BRB = major.B @ (major.Rinv @ major.B.T)     # Bb0 R0^{-1} Bb0'

    A = np.zeros((p.grid.num_nodes, d, d))
    A[:, :n] = np.hstack([mn.Ak, mn.Gk, replicate_pi(mn.Fk, p.pi)])
    A[:, n:, n:] = major.A.values - BRN \
        - np.einsum("ab,jbc->jac", BRB, Pi0.values)

    # b(t) = [b_k; Mtilde0(t) - Bb0 R0^{-1} Bb0' s0(t)]
    shift = np.einsum("ab,jbc->jac", BRB, s0.values)
    b = np.concatenate([mn.bk.values, major.b.values - shift], axis=1)

    S = np.hstack([np.eye(n), -mn.Hk, -replicate_pi(mn.Hhatk, p.pi)])
    return ExtendedSystem(
        what="minor[%d]" % k, A=GridFunction(p.grid, A),
        B=np.vstack([mn.Bk, np.zeros((d0, m))]), b=GridFunction(p.grid, b),
        **lift_tracking(S, mn.Qhatk, mn.Qk, mn.Nk, mn.Rk, mn.etak),
    )
