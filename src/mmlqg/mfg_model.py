"""Data model for the major-minor game and its derived block matrices.

A population of minor agents split into K types couples to one major agent
through the empirical average of the minor states.  In the infinite-
population limit the average is replaced by the stacked per-type mean
field; everything the solvers need is an exact block assembly from the
primitive coefficients: mean-field dynamics matrices, the major agent's
state extended by the mean field, and each minor type's state extended by
(major state, mean field).  Each agent is built as lqg_single's
ExtendedSystem and its weights are validated by lqg_single's convexity
check, the same record and check as a standalone LQG problem.
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
    _as_column,
    _as_grid_function,
    _as_matrix,
    _as_rate,
    _finite,
    _rel_psd_tol,
    add_convexity_checks,
    spd_solver,
)
from .numerics import GridFunction, TimeGrid, psd_check, symmetrize


@dataclass
class MajorParams:
    A0: np.ndarray
    F0: np.ndarray
    B0: np.ndarray
    b0: GridFunction
    sigma0: np.ndarray
    Qhat0: np.ndarray
    Q0: np.ndarray
    N0: np.ndarray
    R0: np.ndarray
    H0: np.ndarray
    eta0: np.ndarray


@dataclass
class MinorTypeParams:
    Ak: np.ndarray
    Fk: np.ndarray
    Gk: np.ndarray
    Bk: np.ndarray
    bk: GridFunction
    sigmak: np.ndarray
    Qhatk: np.ndarray
    Qk: np.ndarray
    Nk: np.ndarray
    Rk: np.ndarray
    Hk: np.ndarray
    Hhatk: np.ndarray
    etak: np.ndarray


@dataclass
class MmMfgProblem:
    """Game data: one major agent, K minor types with fractions pi.

    Initial states have mean zero and the given covariances;
    rho = 0 on the finite horizon, rho > 0 for the stationary problem.
    """

    major: MajorParams
    minors: List[MinorTypeParams]
    pi: np.ndarray
    grid: TimeGrid
    rho: float = 0.0
    init_cov_major: Optional[np.ndarray] = None
    init_cov_minor: Optional[np.ndarray] = None

    def __post_init__(self):
        mj = self.major
        A0 = np.atleast_2d(np.asarray(mj.A0, dtype=float))
        n = A0.shape[0]
        B0 = np.atleast_2d(np.asarray(mj.B0, dtype=float))
        m = B0.shape[1]
        sig0 = np.atleast_2d(np.asarray(mj.sigma0, dtype=float))
        r = sig0.shape[1]
        mj.A0 = _as_matrix("A0", A0, n, n)
        mj.F0 = _as_matrix("F0", mj.F0, n, n)
        mj.B0 = _as_matrix("B0", B0, n, m)
        mj.sigma0 = _as_matrix("sigma0", sig0, n, r)
        mj.Qhat0 = _as_matrix("Qhat0", mj.Qhat0, n, n)
        mj.Q0 = _as_matrix("Q0", mj.Q0, n, n)
        mj.N0 = _as_matrix("N0", mj.N0, n, m)
        mj.R0 = _as_matrix("R0", mj.R0, m, m)
        mj.H0 = _as_matrix("H0", mj.H0, n, n)
        mj.eta0 = _as_column("eta0", mj.eta0, n)
        mj.b0 = _as_grid_function("b0", mj.b0, self.grid, n, 1)

        if not self.minors:
            raise SchemaError("at least one minor type is required")
        for k, mn in enumerate(self.minors):
            tag = "minor[%d]." % k
            mn.Ak = _as_matrix(tag + "Ak", mn.Ak, n, n)
            mn.Fk = _as_matrix(tag + "Fk", mn.Fk, n, n)
            mn.Gk = _as_matrix(tag + "Gk", mn.Gk, n, n)
            mn.Bk = _as_matrix(tag + "Bk", mn.Bk, n, m)
            mn.sigmak = _as_matrix(tag + "sigmak", mn.sigmak, n, r)
            mn.Qhatk = _as_matrix(tag + "Qhatk", mn.Qhatk, n, n)
            mn.Qk = _as_matrix(tag + "Qk", mn.Qk, n, n)
            mn.Nk = _as_matrix(tag + "Nk", mn.Nk, n, m)
            mn.Rk = _as_matrix(tag + "Rk", mn.Rk, m, m)
            mn.Hk = _as_matrix(tag + "Hk", mn.Hk, n, n)
            mn.Hhatk = _as_matrix(tag + "Hhatk", mn.Hhatk, n, n)
            mn.etak = _as_column(tag + "etak", mn.etak, n)
            mn.bk = _as_grid_function(tag + "bk", mn.bk, self.grid, n, 1)

        self.pi = _finite("pi", np.asarray(self.pi, dtype=float).reshape(-1))
        if self.pi.size != len(self.minors):
            raise SchemaError("pi must have one entry per minor type")
        self.rho = _as_rate(self.rho)

        self.init_cov_major = _as_matrix(
            "init_cov_major",
            np.zeros((n, n)) if self.init_cov_major is None else self.init_cov_major,
            n, n,
        )
        self.init_cov_minor = _as_matrix(
            "init_cov_minor",
            np.zeros((n, n)) if self.init_cov_minor is None else self.init_cov_minor,
            n, n,
        )

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
class MeanFieldMatrices:
    """Open-loop stacked minor dynamics driving the mean field."""

    Abreve: np.ndarray     # nK x nK, row block k = A_k e_k + F_k^pi
    Gbreve: np.ndarray     # nK x n, stacked G_k
    mbreve: GridFunction   # nK x 1, stacked b_k


def validate_problem(p: MmMfgProblem, tol: float = PSD_TOL) -> ValidationReport:
    """Distribution, convexity, and structural checks for the game data."""
    rep = ValidationReport()

    pi_ok = np.all(p.pi >= -tol) and abs(float(p.pi.sum()) - 1.0) <= max(tol, 1e-12)
    rep.add("pi is a distribution", bool(pi_ok), "sum %.6g" % float(p.pi.sum()))

    rep.add(
        "initial covariances PSD",
        psd_check(p.init_cov_major, _rel_psd_tol(p.init_cov_major, tol))
        and psd_check(p.init_cov_minor, _rel_psd_tol(p.init_cov_minor, tol)),
    )

    add_convexity_checks(rep, "major ", p.major.Qhat0, p.major.Q0, p.major.N0,
                         p.major.R0, tol)
    for k, mn in enumerate(p.minors):
        add_convexity_checks(rep, "minor[%d] " % k, mn.Qhatk, mn.Qk, mn.Nk, mn.Rk, tol)
    return rep


def build_mean_field_matrices(p: MmMfgProblem) -> MeanFieldMatrices:
    """Stacked open-loop minor dynamics: row block k is A_k e_k + F_k^pi."""
    n, K = p.n, p.K
    sels = [selector(k, n, K) for k in range(K)]
    Abreve = np.vstack(
        [p.minors[k].Ak @ sels[k] + replicate_pi(p.minors[k].Fk, p.pi) for k in range(K)]
    )
    Gbreve = np.vstack([p.minors[k].Gk for k in range(K)])
    mvals = np.concatenate([p.minors[k].bk.values for k in range(K)], axis=1)
    mbreve = GridFunction(p.grid, mvals.reshape(p.grid.num_nodes, n * K, 1))
    return MeanFieldMatrices(Abreve=Abreve, Gbreve=Gbreve, mbreve=mbreve)


def _mean_field_blocks(p: MmMfgProblem, mf) -> tuple:
    """(A block, G block, m GridFunction) from raw matrices or a solved law.

    The A and G blocks are constant matrices or (nodes, rows, cols) tables.
    """
    if isinstance(mf, MeanFieldMatrices):
        return mf.Abreve, mf.Gbreve, mf.mbreve
    if hasattr(mf, "Abar") and hasattr(mf, "Gbar") and hasattr(mf, "mbar"):
        return mf.Abar.values, mf.Gbar.values, mf.mbar
    raise SchemaError(
        "mean field must be MeanFieldMatrices or carry (Abar, Gbar, mbar)"
    )


def build_extended_major(p: MmMfgProblem, mf) -> ExtendedSystem:
    """Major dynamics and cost on the state (x0; xbar).

    Dynamics blocks [[A0, F0^pi], [G, A]] with (A, G, m) taken from the
    mean field; weights are congruences by [I, -H0^pi].
    """
    n, m, K = p.n, p.m, p.K
    d = n + n * K
    mj = p.major
    A_mf, G_mf, m_gf = _mean_field_blocks(p, mf)
    A = np.empty((p.grid.num_nodes, d, d))
    A[:, :n] = np.hstack([mj.A0, replicate_pi(mj.F0, p.pi)])
    A[:, n:, :n] = G_mf
    A[:, n:, n:] = A_mf
    b = np.concatenate([mj.b0.values, m_gf.values], axis=1)
    T = np.hstack([np.eye(n), -replicate_pi(mj.H0, p.pi)])
    return ExtendedSystem(
        what="major",
        A=GridFunction(p.grid, A),
        B=np.vstack([mj.B0, np.zeros((n * K, m))]),
        b=GridFunction(p.grid, b),
        Qhat=symmetrize(T.T @ mj.Qhat0 @ T),
        Q=symmetrize(T.T @ mj.Q0 @ T),
        N=T.T @ mj.N0,
        R=mj.R0,
        eta=T.T @ mj.Q0 @ mj.eta0,
        nbar=mj.N0.T @ mj.eta0,
    )


def build_extended_minor(
    p: MmMfgProblem,
    k: int,
    Pi0: GridFunction,
    s0: GridFunction,
    mf,
) -> ExtendedSystem:
    """Minor type k's dynamics and cost on the state (x_i; x0; xbar).

    The lower-right block is the major's extended closed loop
    A0ext(t) - Bb0 R0^{-1} N0ext' - Bb0 R0^{-1} Bb0' Pi0(t), and the drift
    offset picks up -Bb0 R0^{-1} Bb0' s0(t).
    """
    n, m, K = p.n, p.m, p.K
    d0 = n + n * K
    d = 2 * n + n * K
    if Pi0.shape != (d0, d0):
        raise DimensionGuardError("Pi0 must be %d x %d on the grid" % (d0, d0))
    if s0.shape != (d0, 1):
        raise DimensionGuardError("s0 must be %d x 1 on the grid" % d0)
    mn = p.minors[k]
    major = build_extended_major(p, mf)
    r0inv = spd_solver(p.major.R0, what="R0")
    BRN = major.B @ r0inv(major.N.T)     # Bb0 R0^{-1} N0ext'
    BRB = major.B @ r0inv(major.B.T)     # Bb0 R0^{-1} Bb0'

    A = np.zeros((p.grid.num_nodes, d, d))
    A[:, :n] = np.hstack([mn.Ak, mn.Gk, replicate_pi(mn.Fk, p.pi)])
    A[:, n:, n:] = major.A.values - BRN \
        - np.einsum("ab,jbc->jac", BRB, Pi0.values)

    # b(t) = [b_k; Mtilde0(t) - Bb0 R0^{-1} Bb0' s0(t)]
    shift = np.einsum("ab,jbc->jac", BRB, s0.values)
    b = np.concatenate([mn.bk.values, major.b.values - shift], axis=1)

    S = np.hstack([np.eye(n), -mn.Hk, -replicate_pi(mn.Hhatk, p.pi)])
    return ExtendedSystem(
        what="minor[%d]" % k,
        A=GridFunction(p.grid, A),
        B=np.vstack([mn.Bk, np.zeros((d0, m))]),
        b=GridFunction(p.grid, b),
        Qhat=symmetrize(S.T @ mn.Qhatk @ S),
        Q=symmetrize(S.T @ mn.Qk @ S),
        N=S.T @ mn.Nk,
        R=mn.Rk,
        eta=S.T @ mn.Qk @ mn.etak,
        nbar=mn.Nk.T @ mn.etak,
    )
