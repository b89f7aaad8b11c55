"""Consistency fixed point of the major-minor game.

The iteration variable is the closed-loop mean-field triple (Abar, Gbar,
mbar): given a triple x, the major solves its extended LQG problem, each
minor type solves its extended problem against the major's solution, and
the minors' equilibrium feedback closes the loop into a new triple F(x).
The resulting Riccati/offset functions define the equilibrium feedback
laws.

One iteration serves the finite-horizon and the stationary problem: Anderson
acceleration (Walker & Ni 2011) with a memory of ANDERSON_MEMORY past
iterates on the flattened triple.  Each step is the affine combination
sum_i alpha_i ((1 - theta) x_i + theta F(x_i)) whose weights (sum 1)
minimise the combined residual sum_i alpha_i (F(x_i) - x_i) in the least-
squares sense, with a rank cutoff.  theta is the mixing weight of each
damped image: with an empty memory the step is the damped Picard step
(1 - theta) x + theta F(x), which is also what the iteration falls back to,
after clearing its memory, whenever the residual grows.  The iteration
stops on the undamped residual max|F(x) - x| < tol, so the returned law x
and its Riccati data come from the same evaluation and the reported
residual is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .errors import (
    AssumptionViolationError,
    FixedPointError,
    SchemaError,
)
from .lqg_single import (
    FeedbackLaw,
    _offset_sweep,
    _riccati_sweep,
    _stage_values,
    _steady_offset,
    hautus_report,
    psd_sqrt,
    solve_discounted_are,
    spd_solver,
)
from .mfg_model import (
    ExtendedMajorSystem,
    ExtendedMinorSystem,
    MeanFieldMatrices,
    MmMfgProblem,
    build_extended_major,
    build_extended_minor,
    build_mean_field_matrices,
    replicate_pi,
    selector,
    validate_problem,
)
from .numerics import (
    GridFunction,
    TimeGrid,
    flatten,
    rk4_forward_indexed,
    unflatten,
)

ANDERSON_MEMORY = 5    # past iterates each Anderson step combines
RANK_CUTOFF = 1e-10    # relative singular-value cutoff of the weight fit


@dataclass
class MeanFieldLaw:
    """Closed-loop mean-field dynamics dxbar = (Abar xbar + Gbar x0 + mbar) dt."""

    Abar: GridFunction
    Gbar: GridFunction
    mbar: GridFunction

    def copy(self) -> "MeanFieldLaw":
        return MeanFieldLaw(self.Abar.copy(), self.Gbar.copy(), self.mbar.copy())


@dataclass
class FixedPointConfig:
    theta: float = 0.5
    tol: float = 1e-8
    max_iters: int = 500
    initial_law: Optional[MeanFieldLaw] = None

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise SchemaError("damping theta must lie in (0, 1]")
        if self.tol <= 0.0:
            raise SchemaError("tol must be positive")
        if int(self.max_iters) < 1:
            raise SchemaError("max_iters must be a positive integer")
        self.max_iters = int(self.max_iters)


@dataclass
class FixedPointReport:
    iterations: int
    residual_history: List[float]
    residual: float
    converged: bool


@dataclass
class MfgSolution:
    Pi0: GridFunction
    s0: GridFunction
    Pik: List[GridFunction]
    sk: List[GridFunction]
    mf_law: MeanFieldLaw
    major_law: FeedbackLaw
    minor_laws: List[FeedbackLaw]
    report: FixedPointReport
    problem: MmMfgProblem
    ext_major: ExtendedMajorSystem
    ext_minors: List[ExtendedMinorSystem]


def _inverse(R: np.ndarray, what: str) -> np.ndarray:
    """R^{-1}, formed once per solve so sweeps multiply instead of solving."""
    return spd_solver(R, what=what)(np.eye(R.shape[0]))


def _solve_major(p: MmMfgProblem, ext: ExtendedMajorSystem):
    Rinv = _inverse(p.major.R0, "R0")
    A_st = _stage_values(ext.Atilde0)
    Pi0 = _riccati_sweep(
        A_st, ext.Bb0, ext.Q0ext, ext.N0ext, Rinv, p.rho, ext.G0ext,
        p.grid, "major Riccati sweep",
    )
    s0 = _offset_sweep(
        A_st, ext.Bb0, ext.N0ext, Rinv, p.rho, _stage_values(Pi0),
        _stage_values(ext.Mtilde0), ext.nbar0, ext.etabar0, p.grid,
        "major offset sweep",
    )
    return Pi0, s0


def _solve_minor(p: MmMfgProblem, ext: ExtendedMinorSystem):
    Rinv = _inverse(p.minors[ext.k].Rk, "R%d" % (ext.k + 1))
    A_st = _stage_values(ext.Atildek)
    what = "minor[%d]" % ext.k
    Pik = _riccati_sweep(
        A_st, ext.Bbk, ext.Qkext, ext.Nkext, Rinv, p.rho, ext.Gkext,
        p.grid, what + " Riccati sweep",
    )
    sk = _offset_sweep(
        A_st, ext.Bbk, ext.Nkext, Rinv, p.rho, _stage_values(Pik),
        _stage_values(ext.Mtildek), ext.nbark, ext.etabark, p.grid,
        what + " offset sweep",
    )
    return Pik, sk


def _closure_law(p: MmMfgProblem, ext_minors, P_rows, s_rows, mbreve):
    """New (Abar, Gbar, mbar) tables from the minors' equilibrium feedback.

    P_rows[k] = Pik[:, :n, :] and s_rows[k] = sk[:, :n] are the first block
    rows of type k's Riccati and offset data, and mbreve the stacked minor
    drift offsets, all with the same leading node axis (one node for the
    stationary problem).  With [c1 c2 c3] = Nkext' + B_k' Pik[:n, :], row
    block k is
      Abar_k = [A_k - B_k R_k^{-1} c1] e_k + F_k^pi - B_k R_k^{-1} c3
      Gbar_k = G_k - B_k R_k^{-1} c2
      mbar_k = b_k + B_k R_k^{-1} nbar_k - B_k R_k^{-1} B_k' sk[:n]
    """
    n, K = p.n, p.K
    nodes = P_rows[0].shape[0]
    Abar = np.empty((nodes, n * K, n * K))
    Gbar = np.empty((nodes, n * K, n))
    mbar = np.empty((nodes, n * K, 1))
    for k, (mn, ext) in enumerate(zip(p.minors, ext_minors)):
        BR = mn.Bk @ _inverse(mn.Rk, "R%d" % (k + 1))
        C = BR @ (ext.Nkext.T + mn.Bk.T @ P_rows[k])     # B_k R_k^{-1} [c1 c2 c3]
        rows = slice(k * n, (k + 1) * n)
        Abar[:, rows] = (mn.Ak - C[:, :, :n]) @ selector(k, n, K) \
            + replicate_pi(mn.Fk, p.pi) - C[:, :, 2 * n:]
        Gbar[:, rows] = mn.Gk - C[:, :, n:2 * n]
        mbar[:, rows] = mbreve[:, rows] + BR @ ext.nbark - (BR @ mn.Bk.T) @ s_rows[k]
    return Abar, Gbar, mbar


def _one_step(p: MmMfgProblem) -> MmMfgProblem:
    """p on a one-step grid, drifts frozen at t = 0.

    For blocks read at node 0 only, or not at the nodes at all: every
    table built on it has two nodes instead of M + 1.
    """
    return replace(
        p, grid=TimeGrid(p.grid.t_end, 1),
        major=replace(p.major, b0=p.major.b0.values[0]),
        minors=[replace(mn, bk=mn.bk.values[0]) for mn in p.minors],
    )


def _initial_law(p: MmMfgProblem) -> MeanFieldLaw:
    """Closure at Pi_k = 0, s_k = 0 (extended weights still contribute)."""
    n, K, nodes = p.n, p.K, p.grid.num_nodes
    d0 = n + n * K
    # the closure reads only the constant weights Nkext and nbark
    q = _one_step(p)
    zero_Pi0 = GridFunction.zeros(q.grid, d0, d0)
    zero_s0 = GridFunction.zeros(q.grid, d0)
    mfq = build_mean_field_matrices(q)
    ext_minors = [build_extended_minor(q, k, zero_Pi0, zero_s0, mfq) for k in range(K)]
    zero_P = [np.zeros((nodes, n, 2 * n + n * K))] * K
    zero_s = [np.zeros((nodes, n, 1))] * K
    tables = _closure_law(p, ext_minors, zero_P, zero_s,
                          build_mean_field_matrices(p).mbreve.values)
    return MeanFieldLaw(*(GridFunction(p.grid, v) for v in tables))


def _anderson(evaluate, x: np.ndarray, cfg: FixedPointConfig, what: str):
    """Anderson-accelerated solution of x = F(x) on a flat vector.

    evaluate(x) returns (F(x), payload).  Returns (payload, history) of
    the first iterate whose undamped residual max|F(x) - x| is below
    cfg.tol; history holds that residual for every evaluation.
    """
    theta = cfg.theta
    resids, images = [], []   # F(x_i) - x_i and (1 - theta) x_i + theta F(x_i)
    history: List[float] = []
    for _ in range(cfg.max_iters):
        fx, payload = evaluate(x)
        f = fx - x
        res = float(np.max(np.abs(f)))
        history.append(res)
        if res < cfg.tol:
            return payload, history
        if not np.isfinite(res):
            break
        if len(history) > 1 and res > history[-2]:
            resids, images = [], []   # restart from a plain damped step
        resids = (resids + [f])[-(ANDERSON_MEMORY + 1):]
        images = (images + [(1.0 - theta) * x + theta * fx])[-(ANDERSON_MEMORY + 1):]
        x = images[-1]
        if len(resids) > 1:
            # weights alpha = (gamma, 1 - sum gamma) minimise |sum alpha_i f_i|
            dF = np.stack([r - f for r in resids[:-1]], axis=1)
            gamma = np.linalg.lstsq(dF, -f, rcond=RANK_CUTOFF)[0]
            x = x + np.stack([g - x for g in images[:-1]], axis=1) @ gamma
    raise FixedPointError(
        "%s did not converge in %d iterations (last residual %.3e)"
        % (what, len(history), history[-1]),
        residual_history=history,
    )


def _gain_tables(Rinv, Nx, Bb, Pi: GridFunction, s: GridFunction, nbar, grid):
    """u = -K x + k at every node: K = R^{-1}(Nx' + Bb' Pi), k = R^{-1}(nbar - Bb' s)."""
    RBt = Rinv @ Bb.T
    K_vals = np.einsum("ab,jbc->jac", RBt, Pi.values) + Rinv @ Nx.T
    k_vals = Rinv @ nbar - np.einsum("ab,jbc->jac", RBt, s.values)
    return FeedbackLaw(GridFunction(grid, K_vals), GridFunction(grid, k_vals))


def _finite_map(p: MmMfgProblem, law0: MeanFieldLaw):
    """Consistency map of the finite-horizon problem on flat node tables.

    Returns (x0, evaluate): x0 flattens law0 and evaluate(x) returns
    (F(x), (law, ext_major, Pi0, s0, ext_minors, Piks, sks)) with law the
    MeanFieldLaw that x encodes.
    """
    shapes = [gf.values.shape for gf in (law0.Abar, law0.Gbar, law0.mbar)]
    mbreve = build_mean_field_matrices(p).mbreve.values

    def evaluate(x):
        law = MeanFieldLaw(*(GridFunction(p.grid, v) for v in unflatten(x, shapes)))
        ext_major = build_extended_major(p, law)
        Pi0, s0 = _solve_major(p, ext_major)
        ext_minors = [build_extended_minor(p, k, Pi0, s0, law) for k in range(p.K)]
        Piks, sks = map(list, zip(*(_solve_minor(p, ext) for ext in ext_minors)))
        fx = flatten(*_closure_law(
            p, ext_minors, [P.values[:, :p.n] for P in Piks],
            [s.values[:, :p.n] for s in sks], mbreve,
        ))
        return fx, (law, ext_major, Pi0, s0, ext_minors, Piks, sks)

    return flatten(law0.Abar.values, law0.Gbar.values, law0.mbar.values), evaluate


def solve_consistency_finite(p: MmMfgProblem, cfg: Optional[FixedPointConfig] = None) -> MfgSolution:
    """Anderson-accelerated fixed point of (Abar, Gbar, mbar) on the grid.

    Each evaluation backward-solves the major's extended Riccati/offset
    pair, then every minor type's, then closes the loop through the minor
    feedback.  Stops when the undamped residual max|F(law) - law| drops
    below tol; the returned Riccati data come from that last evaluation,
    so they and the returned law are mutually consistent.
    """
    cfg = cfg or FixedPointConfig()
    rep = validate_problem(p)
    if not rep.ok:
        raise AssumptionViolationError(
            "problem validation failed: " + rep.summary(), report=rep
        )

    law0 = cfg.initial_law if cfg.initial_law is not None else _initial_law(p)
    x0, evaluate = _finite_map(p, law0)
    payload, history = _anderson(evaluate, x0, cfg, "consistency iteration")
    law, ext_major, Pi0, s0, ext_minors, Piks, sks = payload

    major_law = _gain_tables(
        _inverse(p.major.R0, "R0"), ext_major.N0ext, ext_major.Bb0, Pi0, s0,
        ext_major.nbar0, p.grid,
    )
    minor_laws = [
        _gain_tables(_inverse(p.minors[k].Rk, "R%d" % (k + 1)), ext.Nkext,
                     ext.Bbk, Piks[k], sks[k], ext.nbark, p.grid)
        for k, ext in enumerate(ext_minors)
    ]

    return MfgSolution(
        Pi0=Pi0, s0=s0, Pik=Piks, sk=sks, mf_law=law,
        major_law=major_law, minor_laws=minor_laws,
        report=FixedPointReport(
            iterations=len(history), residual_history=history,
            residual=history[-1], converged=True,
        ),
        problem=p, ext_major=ext_major, ext_minors=ext_minors,
    )


def equilibrium_feedback_major(sol: MfgSolution, t: float, X0: np.ndarray) -> np.ndarray:
    """u0*(t) = -R0^{-1}[N0ext' X0 - nbar0 + Bb0'(Pi0 X0 + s0)]."""
    X0 = np.asarray(X0, dtype=float).reshape(-1, 1)
    return sol.major_law(t, X0)


def equilibrium_feedback_minor(sol: MfgSolution, k: int, t: float, Xi: np.ndarray) -> np.ndarray:
    """ui*(t) for type k on the extended state (x_i; x0; xbar)."""
    Xi = np.asarray(Xi, dtype=float).reshape(-1, 1)
    return sol.minor_laws[k](t, Xi)


def mean_field_step_euler(Ab_st, Gb_st, mb_st, j: int, h: float, xbar, x0_now):
    """One explicit Euler step; the step the population simulator takes.

    Node-j coefficients only, so the update matches the Euler-Maruyama
    drift of the simulated agents term for term.  1-D xbar and x0.
    """
    q = 2 * j
    return xbar + h * (Ab_st[q] @ xbar + Gb_st[q] @ x0_now + mb_st[q][:, 0])


def mean_field_trajectory(sol: MfgSolution, x0_path: GridFunction,
                          xbar0: Optional[np.ndarray] = None,
                          method: str = "rk4") -> GridFunction:
    """Forward mean field driven by a given major-state path.

    method "rk4" is the accurate default; "euler" reproduces, bit for
    bit, the internal mean-field state of simulate_population when fed
    the simulated major path.
    """
    p = sol.problem
    nK = p.n * p.K
    if x0_path.shape != (p.n, 1):
        raise SchemaError("x0_path must be n x 1 on the grid")
    if method not in ("rk4", "euler"):
        raise SchemaError("method must be 'rk4' or 'euler'")
    xb = np.zeros(nK) if xbar0 is None else np.asarray(xbar0, dtype=float).reshape(nK)
    Ab_st = _stage_values(sol.mf_law.Abar)
    Gb_st = _stage_values(sol.mf_law.Gbar)
    mb_st = _stage_values(sol.mf_law.mbar)
    if method == "euler":
        x0 = x0_path.values[:, :, 0]
        out = np.empty((p.grid.num_nodes, nK, 1))
        out[0] = xb[:, None]
        for j in range(p.grid.num_steps):
            xb = mean_field_step_euler(Ab_st, Gb_st, mb_st, j, p.grid.h, xb, x0[j])
            out[j + 1] = xb[:, None]
        return GridFunction(p.grid, out)
    # the x0 path is linear between nodes, so its midpoints are node averages
    x0_st = _stage_values(x0_path)

    def stage_rhs(q, y):
        return Ab_st[q] @ y + Gb_st[q] @ x0_st[q] + mb_st[q]

    return rk4_forward_indexed(stage_rhs, xb[:, None], p.grid)


# ----------------------------------------------------------------- infinite


@dataclass
class StationaryMfgSolution:
    Pi0: np.ndarray
    s0: np.ndarray
    Pik: List[np.ndarray]
    sk: List[np.ndarray]
    Abar: np.ndarray
    Gbar: np.ndarray
    mbar: np.ndarray
    major_gain: np.ndarray       # K0 with u0 = -K0 X0 + k0
    major_feedforward: np.ndarray
    minor_gains: List[np.ndarray]
    minor_feedforwards: List[np.ndarray]
    report: FixedPointReport
    problem: MmMfgProblem


def _require_constant(gf: GridFunction, name: str) -> np.ndarray:
    if not np.all(gf.values == gf.values[0]):
        raise SchemaError("%s must be constant for the stationary problem" % name)
    return gf.values[0]


def _carrier(p: MmMfgProblem, Abar, Gbar, mbar, Bbreve) -> MeanFieldMatrices:
    return MeanFieldMatrices(
        Abreve=Abar, Gbreve=Gbar, Bbreve=Bbreve,
        mbreve=GridFunction.constant(p.grid, mbar),
    )


def _check_hautus(A: np.ndarray, Bb: np.ndarray, L: np.ndarray, rho: float, what: str):
    shifted = A - 0.5 * rho * np.eye(A.shape[0])
    rep = hautus_report(shifted, Bb, L, tol=1e-9)
    if not rep.ok:
        missing = []
        if not rep.detectable:
            missing.append("detectability")
        if not rep.stabilizable:
            missing.append("stabilizability")
        raise AssumptionViolationError(
            "%s system fails %s for the shifted drift" % (what, " and ".join(missing)),
            report=rep,
        )
    return rep


def _stationary_map(p: MmMfgProblem):
    """Consistency map of the stationary problem on flat constant triples.

    Returns (x0, evaluate): x0 is the closure at Pi_k = 0, s_k = 0 and
    evaluate(x) returns (F(x), ((Abar, Gbar, mbar), ext0, Pi0, s0,
    ext_minors, Piks, sks)) with (Abar, Gbar, mbar) the triple x encodes.
    """
    n, K = p.n, p.K
    _require_constant(p.major.b0, "b0")
    for k in range(K):
        _require_constant(p.minors[k].bk, "minor[%d].bk" % k)
    # every table below is read at node 0 only
    p = _one_step(p)

    mfm = build_mean_field_matrices(p)
    mbreve = mfm.mbreve.values[:1]
    R0inv = _inverse(p.major.R0, "R0")
    Rkinvs = [_inverse(p.minors[k].Rk, "R%d" % (k + 1)) for k in range(K)]

    L0 = psd_sqrt(p.major.Q0) @ np.hstack([np.eye(n), -replicate_pi(p.major.H0, p.pi)])
    Lks = [
        psd_sqrt(p.minors[k].Qk) @ np.hstack(
            [np.eye(n), -p.minors[k].Hk, -replicate_pi(p.minors[k].Hhatk, p.pi)]
        )
        for k in range(K)
    ]
    shapes = [(n * K, n * K), (n * K, n), (n * K, 1)]

    def evaluate(x):
        law = Abar, Gbar, mbar = unflatten(x, shapes)
        carrier = _carrier(p, Abar, Gbar, mbar, mfm.Bbreve)
        ext0 = build_extended_major(p, carrier)
        A0 = ext0.Atilde0.values[0]
        _check_hautus(A0, ext0.Bb0, L0, p.rho, "extended major")
        Pi0 = solve_discounted_are(
            A0, ext0.Bb0, ext0.Q0ext, ext0.N0ext, p.major.R0, p.rho, what="R0",
        )
        s0 = _steady_offset(
            A0, ext0.Bb0, ext0.N0ext, R0inv, p.rho, Pi0,
            ext0.Mtilde0.values[0], ext0.nbar0, ext0.etabar0,
        )
        Pi0_gf = GridFunction.constant(p.grid, Pi0)
        s0_gf = GridFunction.constant(p.grid, s0)
        ext_minors, Piks, sks = [], [], []
        for k in range(K):
            ext = build_extended_minor(p, k, Pi0_gf, s0_gf, carrier)
            Ak = ext.Atildek.values[0]
            _check_hautus(Ak, ext.Bbk, Lks[k], p.rho, "extended minor[%d]" % k)
            Pik = solve_discounted_are(
                Ak, ext.Bbk, ext.Qkext, ext.Nkext, p.minors[k].Rk, p.rho,
                what="R%d" % (k + 1),
            )
            sk = _steady_offset(
                Ak, ext.Bbk, ext.Nkext, Rkinvs[k], p.rho, Pik,
                ext.Mtildek.values[0], ext.nbark, ext.etabark,
            )
            ext_minors.append(ext)
            Piks.append(Pik)
            sks.append(sk)
        fx = flatten(*_closure_law(
            p, ext_minors, [P[None, :n] for P in Piks], [s[None, :n] for s in sks],
            mbreve,
        ))
        return fx, (law, ext0, Pi0, s0, ext_minors, Piks, sks)

    law0 = _initial_law(p)
    x0 = flatten(law0.Abar.values[0], law0.Gbar.values[0], law0.mbar.values[0])
    return x0, evaluate


def solve_consistency_infinite(p: MmMfgProblem, cfg: Optional[FixedPointConfig] = None) -> StationaryMfgSolution:
    """Stationary fixed point: discounted AREs and steady offsets.

    The same Anderson iteration runs on constant (Abar, Gbar, mbar).  Each
    extended system must satisfy the Hautus detectability and
    stabilizability conditions of the shifted drift, and the solved closed
    loops A - Bb R^{-1} Bb' Pi - (rho/2) I must be asymptotically stable;
    violations raise assumption errors.
    """
    cfg = cfg or FixedPointConfig()
    if p.rho <= 0.0:
        raise SchemaError("stationary problem requires rho > 0")
    vrep = validate_problem(p)
    if not vrep.ok:
        raise AssumptionViolationError(
            "problem validation failed: " + vrep.summary(), report=vrep
        )
    n, K = p.n, p.K
    d0 = n + n * K
    d = 2 * n + n * K
    x0, evaluate = _stationary_map(p)
    payload, history = _anderson(
        evaluate, x0, cfg, "stationary consistency iteration"
    )
    (Abar, Gbar, mbar), ext0, Pi0, s0, ext_minors, Piks, sks = payload
    r0_solve = spd_solver(p.major.R0, what="R0")
    rk_solves = [spd_solver(p.minors[k].Rk, what="R%d" % (k + 1)) for k in range(K)]

    # closed-loop stability as stated: A - Bb R^{-1} Bb' Pi - (rho/2) I
    A0 = ext0.Atilde0.values[0]
    C0 = A0 - ext0.Bb0 @ r0_solve(ext0.Bb0.T) @ Pi0 - 0.5 * p.rho * np.eye(d0)
    if np.max(np.linalg.eigvals(C0).real) >= 0:
        raise AssumptionViolationError(
            "extended major closed loop is not asymptotically stable"
        )
    for k in range(K):
        Ak = ext_minors[k].Atildek.values[0]
        Ck = Ak - ext_minors[k].Bbk @ rk_solves[k](ext_minors[k].Bbk.T) @ Piks[k] \
            - 0.5 * p.rho * np.eye(d)
        if np.max(np.linalg.eigvals(Ck).real) >= 0:
            raise AssumptionViolationError(
                "extended minor[%d] closed loop is not asymptotically stable" % k
            )

    K0 = r0_solve(ext0.N0ext.T + ext0.Bb0.T @ Pi0)
    k0 = r0_solve(ext0.nbar0 - ext0.Bb0.T @ s0)
    Kks = [
        rk_solves[k](ext_minors[k].Nkext.T + ext_minors[k].Bbk.T @ Piks[k])
        for k in range(K)
    ]
    kks = [
        rk_solves[k](ext_minors[k].nbark - ext_minors[k].Bbk.T @ sks[k])
        for k in range(K)
    ]
    return StationaryMfgSolution(
        Pi0=Pi0, s0=s0, Pik=Piks, sk=sks,
        Abar=Abar, Gbar=Gbar, mbar=mbar,
        major_gain=K0, major_feedforward=k0,
        minor_gains=Kks, minor_feedforwards=kks,
        report=FixedPointReport(
            iterations=len(history), residual_history=history,
            residual=history[-1], converged=True,
        ),
        problem=p,
    )
