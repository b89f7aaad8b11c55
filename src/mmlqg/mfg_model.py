"""Data model for the major-minor game and its derived block matrices.

A population of minor agents split into K types couples to one major agent
through the empirical average of the minor states.  In the infinite-
population limit the average is replaced by the stacked per-type mean
field; everything the solvers need is an exact block assembly from the
primitive coefficients: mean-field dynamics matrices, the major agent's
state extended by the mean field, and each minor type's state extended by
(major state, mean field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import DimensionGuardError, SchemaError
from .lqg_single import (
    ValidationReport,
    _as_column,
    _as_grid_function,
    _as_matrix,
    _min_eig,
    _rel_psd_tol,
    spd_solver,
)
from .numerics import GridFunction, TimeGrid, psd_check, symmetrize

PSD_BUILD_TOL = 1e-9


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

    Initial states are mean zero (enforced) with the given covariances;
    rho = 0 on the finite horizon, rho > 0 for the stationary problem.
    """

    major: MajorParams
    minors: List[MinorTypeParams]
    pi: np.ndarray
    grid: TimeGrid
    rho: float = 0.0
    init_cov_major: Optional[np.ndarray] = None
    init_cov_minor: Optional[np.ndarray] = None
    init_mean_major: Optional[np.ndarray] = None
    init_mean_minor: Optional[np.ndarray] = None

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

        self.pi = np.asarray(self.pi, dtype=float).reshape(-1)
        if self.pi.size != len(self.minors):
            raise SchemaError("pi must have one entry per minor type")
        self.rho = float(self.rho)
        if self.rho < 0.0:
            raise SchemaError("rho must be nonnegative")

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
        self.init_mean_major = _as_column(
            "init_mean_major",
            np.zeros((n, 1)) if self.init_mean_major is None else self.init_mean_major,
            n,
        )
        self.init_mean_minor = _as_column(
            "init_mean_minor",
            np.zeros((n, 1)) if self.init_mean_minor is None else self.init_mean_minor,
            n,
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
    Bbreve: np.ndarray     # nK x mK, block-diagonal B_k
    mbreve: GridFunction   # nK x 1, stacked b_k


@dataclass
class ExtendedMajorSystem:
    """Major state extended by the mean field (dimension n + nK)."""

    Atilde0: GridFunction  # (n+nK) x (n+nK) drift
    Bb0: np.ndarray        # (n+nK) x m, control channel [B0; 0]
    Mtilde0: GridFunction  # (n+nK) x 1 drift offset
    Sigma0: np.ndarray     # (n+nK) x (n+nK), sigma0 embedded top-left
    G0ext: np.ndarray      # terminal weight
    Q0ext: np.ndarray      # running weight
    N0ext: np.ndarray      # (n+nK) x m cross weight
    etabar0: np.ndarray    # (n+nK) x 1
    nbar0: np.ndarray      # m x 1
    dim: int = 0

    def __post_init__(self):
        self.dim = self.Bb0.shape[0]
        for name in ("G0ext", "Q0ext"):
            W = getattr(self, name)
            if W.shape != (self.dim, self.dim):
                raise DimensionGuardError("%s must be %d x %d" % (name, self.dim, self.dim))
            if not psd_check(W, _rel_psd_tol(W, PSD_BUILD_TOL)):
                raise SchemaError("%s lost positive semidefiniteness" % name)


@dataclass
class ExtendedMinorSystem:
    """Minor state extended by (major state, mean field): dim 2n + nK."""

    k: int
    Atildek: GridFunction  # (2n+nK) x (2n+nK) drift
    Bbk: np.ndarray        # (2n+nK) x m, [Bk; 0]
    Mtildek: GridFunction  # (2n+nK) x 1
    Sigmak: np.ndarray     # (2n+nK) x (2n+nK)
    Gkext: np.ndarray
    Qkext: np.ndarray
    Nkext: np.ndarray      # (2n+nK) x m
    etabark: np.ndarray    # (2n+nK) x 1
    nbark: np.ndarray      # m x 1
    dim: int = 0

    def __post_init__(self):
        self.dim = self.Bbk.shape[0]
        for name in ("Gkext", "Qkext"):
            W = getattr(self, name)
            if W.shape != (self.dim, self.dim):
                raise DimensionGuardError("%s must be %d x %d" % (name, self.dim, self.dim))
            if not psd_check(W, _rel_psd_tol(W, PSD_BUILD_TOL)):
                raise SchemaError("%s lost positive semidefiniteness" % name)


def validate_problem(p: MmMfgProblem, tol: float = PSD_BUILD_TOL) -> ValidationReport:
    """Distribution, convexity, and structural checks for the game data."""
    rep = ValidationReport()

    pi_ok = np.all(p.pi >= -tol) and abs(float(p.pi.sum()) - 1.0) <= max(tol, 1e-12)
    rep.add("pi is a distribution", bool(pi_ok), "sum %.6g" % float(p.pi.sum()))

    means_zero = not np.any(p.init_mean_major) and not np.any(p.init_mean_minor)
    rep.add("initial means are zero", means_zero,
            "" if means_zero else "nonzero initial mean")
    rep.add(
        "initial covariances PSD",
        psd_check(p.init_cov_major, _rel_psd_tol(p.init_cov_major, tol))
        and psd_check(p.init_cov_minor, _rel_psd_tol(p.init_cov_minor, tol)),
    )

    def convexity(label, Qhat, Q, N, R):
        r_min = _min_eig(R)
        if r_min <= _rel_psd_tol(R, tol):
            rep.add(label + " R positive definite", False, "min eigenvalue %.3e" % r_min)
            rep.add(label + " Q - N R^{-1} N' PSD", False, "skipped")
        else:
            rep.add(label + " R positive definite", True)
            S = Q - N @ np.linalg.solve(symmetrize(R), N.T)
            s_min = _min_eig(S)
            rep.add(
                label + " Q - N R^{-1} N' PSD",
                s_min >= -_rel_psd_tol(S, tol),
                "min eigenvalue %.3e" % s_min,
            )
        q_min = _min_eig(Qhat)
        rep.add(
            label + " Qhat PSD", q_min >= -_rel_psd_tol(Qhat, tol),
            "min eigenvalue %.3e" % q_min,
        )

    convexity("major", p.major.Qhat0, p.major.Q0, p.major.N0, p.major.R0)
    for k, mn in enumerate(p.minors):
        convexity("minor[%d]" % k, mn.Qhatk, mn.Qk, mn.Nk, mn.Rk)
    return rep


def build_mean_field_matrices(p: MmMfgProblem) -> MeanFieldMatrices:
    """Stacked open-loop minor dynamics: row block k is A_k e_k + F_k^pi."""
    n, K = p.n, p.K
    sels = [selector(k, n, K) for k in range(K)]
    Abreve = np.vstack(
        [p.minors[k].Ak @ sels[k] + replicate_pi(p.minors[k].Fk, p.pi) for k in range(K)]
    )
    Gbreve = np.vstack([p.minors[k].Gk for k in range(K)])
    Bbreve = np.zeros((n * K, p.m * K))
    for k in range(K):
        Bbreve[k * n:(k + 1) * n, k * p.m:(k + 1) * p.m] = p.minors[k].Bk
    mvals = np.concatenate([p.minors[k].bk.values for k in range(K)], axis=1)
    mbreve = GridFunction(p.grid, mvals.reshape(p.grid.num_nodes, n * K, 1))
    return MeanFieldMatrices(
        Abreve=Abreve, Gbreve=Gbreve, Bbreve=Bbreve, mbreve=mbreve
    )


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


def build_extended_major(p: MmMfgProblem, mf) -> ExtendedMajorSystem:
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
    Atilde0 = GridFunction(p.grid, A)

    Bb0 = np.vstack([mj.B0, np.zeros((n * K, m))])

    Mvals = np.concatenate([mj.b0.values, m_gf.values], axis=1)
    Mtilde0 = GridFunction(p.grid, Mvals)

    Sigma0 = np.zeros((d, d))
    Sigma0[:n, :p.r] = mj.sigma0

    T = np.hstack([np.eye(n), -replicate_pi(mj.H0, p.pi)])
    G0ext = symmetrize(T.T @ mj.Qhat0 @ T)
    Q0ext = symmetrize(T.T @ mj.Q0 @ T)
    N0ext = T.T @ mj.N0
    etabar0 = T.T @ mj.Q0 @ mj.eta0
    nbar0 = mj.N0.T @ mj.eta0
    return ExtendedMajorSystem(
        Atilde0=Atilde0, Bb0=Bb0, Mtilde0=Mtilde0,
        Sigma0=Sigma0, G0ext=G0ext, Q0ext=Q0ext, N0ext=N0ext,
        etabar0=etabar0, nbar0=nbar0,
    )


def build_extended_minor(
    p: MmMfgProblem,
    k: int,
    Pi0: GridFunction,
    s0: GridFunction,
    mf,
) -> ExtendedMinorSystem:
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
    major_ext = build_extended_major(p, mf)
    r0inv = spd_solver(p.major.R0, what="R0")
    Bb0 = major_ext.Bb0
    BRN = Bb0 @ r0inv(major_ext.N0ext.T)     # Bb0 R0^{-1} N0ext'
    BRB = Bb0 @ r0inv(Bb0.T)                 # Bb0 R0^{-1} Bb0'

    A = np.zeros((p.grid.num_nodes, d, d))
    A[:, :n] = np.hstack([mn.Ak, mn.Gk, replicate_pi(mn.Fk, p.pi)])
    A[:, n:, n:] = major_ext.Atilde0.values - BRN \
        - np.einsum("ab,jbc->jac", BRB, Pi0.values)
    Atildek = GridFunction(p.grid, A)

    Bbk = np.vstack([mn.Bk, np.zeros((d0, m))])

    # Mtildek(t) = [b_k; Mtilde0(t) - Bb0 R0^{-1} Bb0' s0(t)]
    shift = np.einsum("ab,jbc->jac", BRB, s0.values)
    Mvals = np.concatenate(
        [mn.bk.values, major_ext.Mtilde0.values - shift], axis=1
    )
    Mtildek = GridFunction(p.grid, Mvals)

    Sigmak = np.zeros((d, d))
    Sigmak[:n, :p.r] = mn.sigmak
    Sigmak[n:, n:] = major_ext.Sigma0

    S = np.hstack([np.eye(n), -mn.Hk, -replicate_pi(mn.Hhatk, p.pi)])
    Gkext = symmetrize(S.T @ mn.Qhatk @ S)
    Qkext = symmetrize(S.T @ mn.Qk @ S)
    Nkext = S.T @ mn.Nk
    etabark = S.T @ mn.Qk @ mn.etak
    nbark = mn.Nk.T @ mn.etak
    return ExtendedMinorSystem(
        k=k, Atildek=Atildek, Bbk=Bbk, Mtildek=Mtildek,
        Sigmak=Sigmak, Gkext=Gkext, Qkext=Qkext, Nkext=Nkext,
        etabark=etabark, nbark=nbark,
    )

