"""Best-response gaps of the mean-field equilibrium in finite populations.

One agent (the deviator) is granted full information about the joint
state z = (x^1..x^N, x0, xbar) while everyone else keeps the equilibrium
feedback.  The deviator's best response solves a joint LQG problem by a
backward Riccati/offset sweep, and both the equilibrium cost and the
best-response cost are evaluated by exact moment propagation, so the
reported gap carries no sampling noise.  In the uncoupled case the
equilibrium law is already optimal and the gap collapses to integration
roundoff.

Two independent cross-checks guard the assembly.  A matched-noise joint
simulation must reproduce simulate_population trajectories, and the
un-deviated joint cost evaluated on the simulated Euler-Maruyama chain
must agree with population_sim's expected_cost_exact.  The chain best
response (exact dynamic programming on the simulated chain) is kept
alongside the continuous sweep: it can only undercut the equilibrium
chain cost, which pins the sign of the gap machinery independently of
any ODE integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    AssumptionViolationError,
    DimensionGuardError,
    IntegrationDivergedError,
    RiccatiBlowupError,
    SchemaError,
)
from .lqg_single import _stage_values, psd_sqrt, spd_solver
from .mfg_model import MmMfgProblem
from .mfg_solver import MfgSolution
from .numerics import symmetrize, trapezoid_weights
from .population_sim import (
    JOINT_DIM_LIMIT,
    PopulationConfig,
    _deviation_quadratic,
    _stream,
    assign_types,
    discrete_chain_cost,
    expected_cost_exact,
    simulate_population,
)

# cache joint drift tables only while they stay comfortably in memory
_CACHE_BYTES_LIMIT = 256 * 1024 * 1024


@dataclass
class JointSystem:
    """Finite-N joint dynamics with every agent but the deviator closed.

    Agent ids follow the simulator: 0 is the major, 1..N the minors.
    The deviator's rows stay uncontrolled; its input enters through
    B_full, which is zero outside the deviator's own block rows.  Drift
    tables are indexed by half-step stages q = 0..2M and the returned
    arrays are cached: treat them as read-only.
    """

    p: MmMfgProblem
    sol: MfgSolution
    cfg: PopulationConfig
    deviator: int

    def __post_init__(self):
        p, cfg = self.p, self.cfg
        if self.sol.problem.grid != p.grid:
            raise SchemaError("solution grid does not match the problem grid")
        if not (0 <= self.deviator <= cfg.N):
            raise SchemaError("deviator id out of range")
        n, K, N = p.n, p.K, cfg.N
        self.n, self.m, self.K, self.N = n, p.m, K, N
        self.D = n * (N + 1) + n * K
        if self.D > JOINT_DIM_LIMIT:
            raise DimensionGuardError(
                "joint state dimension %d exceeds the limit %d"
                % (self.D, JOINT_DIM_LIMIT)
            )
        self.type_of = cfg.type_assignment if cfg.type_assignment is not None \
            else assign_types(p.pi, N)
        self.x0_off = n * N
        self.xb_off = n * (N + 1)

        self._K0 = _stage_values(self.sol.major_law.K)
        self._k0 = _stage_values(self.sol.major_law.k)
        self._Kk = [_stage_values(self.sol.minor_laws[k].K) for k in range(K)]
        self._kk = [_stage_values(self.sol.minor_laws[k].k) for k in range(K)]
        self._Ab = _stage_values(self.sol.mf_law.Abar)
        self._Gb = _stage_values(self.sol.mf_law.Gbar)
        self._mb = _stage_values(self.sol.mf_law.mbar)
        self._b0 = _stage_values(p.major.b0)
        self._bk = [_stage_values(p.minors[k].bk) for k in range(K)]
        nq = 2 * p.grid.num_steps + 1
        self._cache_tables = nq * self.D * self.D * 8 <= _CACHE_BYTES_LIMIT
        self._A_cache: Dict[int, np.ndarray] = {}
        self._d_cache: Dict[int, np.ndarray] = {}

        # deviator's input matrix: zero outside its own block rows
        B_full = np.zeros((self.D, self.m))
        if self.deviator == 0:
            B_full[self.x0_off:self.x0_off + n] = p.major.B0
            mj = p.major
            self.Cdev = self._own(self.x0_off) - mj.H0 @ self._avg()
            self.eta, self.Q = mj.eta0, mj.Q0
            self.Ncr, self.R, self.Qhat = mj.N0, mj.R0, mj.Qhat0
            self.U = np.vstack([self._own(self.x0_off),
                                self._own(self.xb_off, n * K)])
        else:
            row = (self.deviator - 1) * n
            mn = p.minors[int(self.type_of[self.deviator - 1])]
            B_full[row:row + n] = mn.Bk
            self.Cdev = self._own(row) - mn.Hk @ self._own(self.x0_off) \
                - mn.Hhatk @ self._avg()
            self.eta, self.Q = mn.etak, mn.Qk
            self.Ncr, self.R, self.Qhat = mn.Nk, mn.Rk, mn.Qhatk
            self.U = np.vstack([self._own(row), self._own(self.x0_off),
                                self._own(self.xb_off, n * K)])
        self.B_full = B_full

        Sig2 = np.zeros((self.D, self.D))
        for a in range(N):
            blk = p.minors[int(self.type_of[a])].sigmak
            r = slice(a * n, (a + 1) * n)
            Sig2[r, r] = blk @ blk.T
        x0r = slice(self.x0_off, self.x0_off + n)
        Sig2[x0r, x0r] = p.major.sigma0 @ p.major.sigma0.T
        self.Sig2 = Sig2

        cov0 = cfg.init_cov_major if cfg.init_cov_major is not None \
            else p.init_cov_major
        covm = cfg.init_cov_minor if cfg.init_cov_minor is not None \
            else p.init_cov_minor
        V0 = np.zeros((self.D, self.D))
        for a in range(N):
            r = slice(a * n, (a + 1) * n)
            V0[r, r] = covm
        V0[x0r, x0r] = cov0
        self.V0 = V0
        mu0 = np.zeros((self.D, 1))
        if cfg.xbar0 is not None:
            mu0[self.xb_off:, 0] = cfg.xbar0
        self.mu0 = mu0

        # z-space quadratic of the deviator's cost, control left free
        C = self.Cdev
        self.W = symmetrize(C.T @ self.Q @ C)
        self.S = C.T @ self.Ncr
        self.lvec = -C.T @ (self.Q @ self.eta)
        self.rvec = -self.Ncr.T @ self.eta
        self.cconst = (self.eta.T @ self.Q @ self.eta).item()
        # terminal weight applies to the coupled tracking error C z; the
        # constant target eta is a running-cost object (the backward offset
        # vanishes at T), so the terminal form carries no linear piece
        self.W_term = symmetrize(C.T @ self.Qhat @ C)
        self.l_term = np.zeros((self.D, 1))
        self.c_term = 0.0

    def _own(self, off: int, width: Optional[int] = None) -> np.ndarray:
        width = self.n if width is None else width
        S = np.zeros((width, self.D))
        S[:, off:off + width] = np.eye(width)
        return S

    def _avg(self) -> np.ndarray:
        # every minor, deviator included, carries weight 1/N in x^(N)
        A = np.zeros((self.n, self.D))
        for a in range(self.N):
            A[:, a * self.n:(a + 1) * self.n] = np.eye(self.n) / self.N
        return A

    def _minor_closed_rows(self, A, a: int, q: int):
        n, p = self.n, self.p
        k = int(self.type_of[a])
        mn = p.minors[k]
        rows = slice(a * n, (a + 1) * n)
        Kq = self._Kk[k][q]
        A[rows, :n * self.N] += np.tile(mn.Fk / self.N, (1, self.N))
        A[rows, rows] += mn.Ak - mn.Bk @ Kq[:, :n]
        A[rows, self.x0_off:self.x0_off + n] += mn.Gk - mn.Bk @ Kq[:, n:2 * n]
        A[rows, self.xb_off:] += -mn.Bk @ Kq[:, 2 * n:]

    def _minor_open_rows(self, A, a: int):
        n, p = self.n, self.p
        mn = p.minors[int(self.type_of[a])]
        rows = slice(a * n, (a + 1) * n)
        A[rows, :n * self.N] += np.tile(mn.Fk / self.N, (1, self.N))
        A[rows, rows] += mn.Ak
        A[rows, self.x0_off:self.x0_off + n] += mn.Gk

    def A_open(self, q: int) -> np.ndarray:
        """Joint drift matrix with the deviator's rows uncontrolled."""
        cached = self._A_cache.get(q)
        if cached is not None:
            return cached
        n, p = self.n, self.p
        A = np.zeros((self.D, self.D))
        for a in range(self.N):
            if self.deviator == a + 1:
                self._minor_open_rows(A, a)
            else:
                self._minor_closed_rows(A, a, q)
        x0r = slice(self.x0_off, self.x0_off + n)
        A[x0r, :n * self.N] += np.tile(p.major.F0 / self.N, (1, self.N))
        A[x0r, x0r] += p.major.A0
        if self.deviator != 0:
            K0q = self._K0[q]
            A[x0r, x0r] += -p.major.B0 @ K0q[:, :n]
            A[x0r, self.xb_off:] += -p.major.B0 @ K0q[:, n:]
        A[self.xb_off:, x0r] = self._Gb[q]
        A[self.xb_off:, self.xb_off:] = self._Ab[q]
        if self._cache_tables:
            self._A_cache[q] = A
        return A

    def d_open(self, q: int) -> np.ndarray:
        cached = self._d_cache.get(q)
        if cached is not None:
            return cached
        n = self.n
        d = np.zeros((self.D, 1))
        for a in range(self.N):
            k = int(self.type_of[a])
            d[a * n:(a + 1) * n] = self._bk[k][q]
            if self.deviator != a + 1:
                d[a * n:(a + 1) * n] += self.p.minors[k].Bk @ self._kk[k][q]
        d[self.x0_off:self.x0_off + n] = self._b0[q]
        if self.deviator != 0:
            d[self.x0_off:self.x0_off + n] += self.p.major.B0 @ self._k0[q]
        d[self.xb_off:] = self._mb[q]
        if self._cache_tables:
            self._d_cache[q] = d
        return d

    def eq_gain(self, q: int):
        """Deviator's own equilibrium law lifted to z: u = -Kz @ z + kq."""
        if self.deviator == 0:
            return self._K0[q] @ self.U, self._k0[q]
        k = int(self.type_of[self.deviator - 1])
        return self._Kk[k][q] @ self.U, self._kk[k][q]

    def A_closed(self, q: int) -> np.ndarray:
        Kz, _ = self.eq_gain(q)
        return self.A_open(q) - self.B_full @ Kz

    def d_closed(self, q: int) -> np.ndarray:
        _, kq = self.eq_gain(q)
        return self.d_open(q) + self.B_full @ kq

    def undeviated_cost(self) -> float:
        """Equilibrium cost of the simulated chain through this assembly.

        Must reproduce population_sim.expected_cost_exact; any daylight
        between the two means the block placement is wrong.
        """

        def node_cost(j):
            Kz, kq = self.eq_gain(2 * j)
            return _deviation_quadratic(self.Cdev, self.eta, self.Q, self.Ncr,
                                        self.R, -Kz, kq)

        return discrete_chain_cost(
            self.p.grid, self.p.rho, self.mu0, self.V0,
            self.A_closed, self.d_closed, self.Sig2, node_cost,
            (self.W_term, self.l_term, self.c_term),
        )

    def validation_gap(self, num_paths: int = 1) -> float:
        """Sup-norm distance between this assembly, simulated with all
        agents closed, and simulate_population on the same noise."""
        p, cfg = self.p, self.cfg
        n, N, M = self.n, self.N, p.grid.num_steps
        h = p.grid.h
        sqh = math.sqrt(h)
        rcfg = PopulationConfig(
            N=N, master_seed=cfg.master_seed, num_paths=num_paths,
            type_assignment=np.array(self.type_of),
            xbar0=cfg.xbar0, init_cov_major=cfg.init_cov_major,
            init_cov_minor=cfg.init_cov_minor, record_states=True,
        )
        bundle = simulate_population(p, self.sol, rcfg)
        cov0 = cfg.init_cov_major if cfg.init_cov_major is not None \
            else p.init_cov_major
        covm = cfg.init_cov_minor if cfg.init_cov_minor is not None \
            else p.init_cov_minor
        sqrt0, sqrtm = psd_sqrt(cov0), psd_sqrt(covm)
        gap = 0.0
        eye = np.eye(self.D)
        for path in range(num_paths):
            z = np.zeros((self.D, 1))
            for a in range(N):
                xi = _stream(cfg.master_seed, 1, path, a + 1).standard_normal(n)
                z[a * n:(a + 1) * n, 0] = sqrtm @ xi
            xi0 = _stream(cfg.master_seed, 1, path, 0).standard_normal(n)
            z[self.x0_off:self.x0_off + n, 0] = sqrt0 @ xi0
            if cfg.xbar0 is not None:
                z[self.xb_off:, 0] = cfg.xbar0
            dW0 = _stream(cfg.master_seed, 0, path, 0).standard_normal((M, p.r))
            dWm = [_stream(cfg.master_seed, 0, path, a + 1).standard_normal((M, p.r))
                   for a in range(N)]
            for j in range(M + 1):
                ref = np.concatenate([
                    bundle.states[path, j, 1:].reshape(-1),
                    bundle.states[path, j, 0],
                    bundle.xbar[path, j],
                ])
                gap = max(gap, float(np.max(np.abs(z[:, 0] - ref))))
                if j == M:
                    break
                P = eye + h * self.A_closed(2 * j)
                z = P @ z + h * self.d_closed(2 * j)
                for a in range(N):
                    sig = self.p.minors[int(self.type_of[a])].sigmak
                    z[a * n:(a + 1) * n, 0] += sqh * (sig @ dWm[a][j])
                z[self.x0_off:self.x0_off + n, 0] += \
                    sqh * (self.p.major.sigma0 @ dW0[j])
        return gap


def build_joint_closed_loop(p: MmMfgProblem, sol: MfgSolution,
                            cfg: PopulationConfig, deviator: int) -> JointSystem:
    return JointSystem(p=p, sol=sol, cfg=cfg, deviator=deviator)


def _check_convexity(js: JointSystem):
    try:
        np.linalg.cholesky(js.R)
    except np.linalg.LinAlgError:
        raise AssumptionViolationError(
            "deviator convexity violated: control weight R is not positive definite"
        )
    Seff = js.Q - js.Ncr @ np.linalg.solve(js.R, js.Ncr.T)
    if float(np.min(np.linalg.eigvalsh(symmetrize(Seff)))) < -1e-10:
        raise AssumptionViolationError(
            "deviator convexity violated: Q - N R^-1 N' has a negative eigenvalue"
        )
    if float(np.min(np.linalg.eigvalsh(symmetrize(js.Qhat)))) < -1e-10:
        raise AssumptionViolationError(
            "deviator convexity violated: terminal weight has a negative eigenvalue"
        )


def _propagate_cost(js: JointSystem, A_of: Callable[[int], np.ndarray],
                    d_of: Callable[[int], np.ndarray],
                    L_of: Callable[[int], np.ndarray],
                    uc_of: Callable[[int], np.ndarray]) -> float:
    """Exact deviator cost of the policy u = L(q) z + uc(q) by moment
    propagation of the closed loop dz = (A z + d) dt + noise."""
    p = js.p
    grid = p.grid
    M, h = grid.num_steps, grid.h
    disc = np.exp(-p.rho * np.arange(2 * M + 1) * (h / 2.0))
    mu = js.mu0.copy()
    V = js.V0.copy()
    jc = 0.0

    def derivs(q, mu_, V_):
        Aq = A_of(q)
        dmu = Aq @ mu_ + d_of(q)
        AV = Aq @ V_
        dV = AV + AV.T + js.Sig2
        W, l, c = _deviation_quadratic(js.Cdev, js.eta, js.Q, js.Ncr, js.R,
                                       L_of(q), uc_of(q))
        S2 = V_ + mu_ @ mu_.T
        rate = 0.5 * disc[q] * (np.tensordot(W, S2) + 2.0 * (l.T @ mu_).item() + c)
        return dmu, dV, rate

    for j in range(M):
        q0, qm, q1 = 2 * j, 2 * j + 1, 2 * j + 2
        k1 = derivs(q0, mu, V)
        k2 = derivs(qm, mu + 0.5 * h * k1[0], V + 0.5 * h * k1[1])
        k3 = derivs(qm, mu + 0.5 * h * k2[0], V + 0.5 * h * k2[1])
        k4 = derivs(q1, mu + h * k3[0], V + h * k3[1])
        mu = mu + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        V = symmetrize(V + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))
        jc = jc + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if not (np.all(np.isfinite(mu)) and np.isfinite(jc)):
            raise IntegrationDivergedError(
                "joint moment propagation produced a non-finite value at node %d"
                % (j + 1), node=j + 1, time=(j + 1) * h,
            )

    S2 = V + mu @ mu.T
    term = np.tensordot(js.W_term, S2) + 2.0 * (mu.T @ js.l_term).item() + js.c_term
    return jc + 0.5 * disc[-1] * term


def equilibrium_cost_ode(js: JointSystem) -> float:
    """Deviator's cost with everyone, deviator included, on the MFG law."""

    def L_of(q):
        return -js.eq_gain(q)[0]

    def uc_of(q):
        return js.eq_gain(q)[1]

    return _propagate_cost(js, js.A_closed, js.d_closed, L_of, uc_of)


@dataclass
class BestResponse:
    """Affine best-response law u = -gains[q] z - feedforwards[q].

    Gain tables are indexed by half-step stages q = 0..2M like every
    other stage table in the package; Pi and s are node tables from the
    backward sweep, with Pi[-1] the untouched terminal weight.
    """

    gains: np.ndarray            # (2M+1, m, D)
    feedforwards: np.ndarray     # (2M+1, m, 1)
    Pi: np.ndarray               # (M+1, D, D)
    s: np.ndarray                # (M+1, D, 1)
    cost: float                  # exact cost by forward moment propagation
    cost_value_fn: float         # same value read off the value function at 0
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def Pi_terminal(self) -> np.ndarray:
        return self.Pi[-1]


def solve_best_response(js: JointSystem) -> BestResponse:
    """Exact full-information best response in the joint closed loop.

    Backward Riccati/offset/value sweep with terminal condition given by
    the joint terminal weight, then the optimal affine law is evaluated
    forward by moment propagation.  The value-function route and the
    moment route must agree; their difference is reported as a
    diagnostic.
    """
    _check_convexity(js)
    p = js.p
    grid = p.grid
    M, h = grid.num_steps, grid.h
    rho = p.rho
    D, m = js.D, js.m
    Rinv = spd_solver(js.R, "deviator control weight")(np.eye(m))
    W, S, lvec, rvec, cconst = js.W, js.S, js.lvec, js.rvec, js.cconst
    B = js.B_full
    Bt = B.T

    def rhs(q, Pi, s, v):
        Aq = js.A_open(q)
        dq = js.d_open(q)
        PB_S = Pi @ B + S
        G = Rinv @ PB_S.T                # R^{-1}(B'Pi + S')
        dPi = rho * Pi - Aq.T @ Pi - Pi @ Aq - W + PB_S @ G
        Bs_r = Bt @ s + rvec
        RBs_r = Rinv @ Bs_r
        ds = rho * s - Aq.T @ s - Pi @ dq - lvec + PB_S @ RBs_r
        dv = rho * v - (s.T @ dq).item() - 0.5 * cconst \
            - 0.5 * np.tensordot(Pi, js.Sig2) \
            + 0.5 * (Bs_r.T @ RBs_r).item()
        return dPi, ds, dv

    Pi_nodes = np.empty((M + 1, D, D))
    s_nodes = np.empty((M + 1, D, 1))
    dPi_nodes = np.empty((M + 1, D, D))
    ds_nodes = np.empty((M + 1, D, 1))
    Pi = js.W_term.copy()
    s = js.l_term.copy()
    v = 0.5 * js.c_term
    Pi_nodes[M], s_nodes[M] = Pi, s

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(M - 1, -1, -1):
            q1, qm, q0 = 2 * j + 2, 2 * j + 1, 2 * j
            k1 = rhs(q1, Pi, s, v)
            dPi_nodes[j + 1], ds_nodes[j + 1] = k1[0], k1[1]
            k2 = rhs(qm, Pi - 0.5 * h * k1[0], s - 0.5 * h * k1[1], v - 0.5 * h * k1[2])
            k3 = rhs(qm, Pi - 0.5 * h * k2[0], s - 0.5 * h * k2[1], v - 0.5 * h * k2[2])
            k4 = rhs(q0, Pi - h * k3[0], s - h * k3[1], v - h * k3[2])
            Pi = symmetrize(Pi - (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]))
            s = s - (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            v = v - (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            if not (np.all(np.isfinite(Pi)) and np.all(np.isfinite(s))
                    and np.isfinite(v)):
                raise RiccatiBlowupError(
                    "joint backward sweep diverged at node %d" % j,
                    node=j, time=grid.nodes[j],
                )
            Pi_nodes[j], s_nodes[j] = Pi, s
        k0 = rhs(0, Pi, s, v)
        dPi_nodes[0], ds_nodes[0] = k0[0], k0[1]

    # stage tables: cubic Hermite midpoints keep the forward pass O(h^4)
    nq = 2 * M + 1
    gains = np.empty((nq, m, D))
    ffs = np.empty((nq, m, 1))
    for j in range(M + 1):
        gains[2 * j] = Rinv @ (Bt @ Pi_nodes[j] + S.T)
        ffs[2 * j] = Rinv @ (Bt @ s_nodes[j] + rvec)
    for j in range(M):
        Pi_mid = 0.5 * (Pi_nodes[j] + Pi_nodes[j + 1]) \
            + (h / 8.0) * (dPi_nodes[j] - dPi_nodes[j + 1])
        s_mid = 0.5 * (s_nodes[j] + s_nodes[j + 1]) \
            + (h / 8.0) * (ds_nodes[j] - ds_nodes[j + 1])
        gains[2 * j + 1] = Rinv @ (Bt @ Pi_mid + S.T)
        ffs[2 * j + 1] = Rinv @ (Bt @ s_mid + rvec)

    mu0, V0 = js.mu0, js.V0
    cost_value_fn = 0.5 * (np.tensordot(Pi_nodes[0], V0)
                           + (mu0.T @ Pi_nodes[0] @ mu0).item()) \
        + (s_nodes[0].T @ mu0).item() + v

    def A_of(q):
        return js.A_open(q) - B @ gains[q]

    def d_of(q):
        return js.d_open(q) - B @ ffs[q]

    cost = _propagate_cost(js, A_of, d_of,
                           lambda q: -gains[q], lambda q: -ffs[q])
    return BestResponse(
        gains=gains, feedforwards=ffs, Pi=Pi_nodes, s=s_nodes,
        cost=cost, cost_value_fn=cost_value_fn,
        diagnostics={"route_mismatch": abs(cost - cost_value_fn)},
    )


def best_response_perturbed_cost(js: JointSystem, br: BestResponse,
                                 eps: float, omega: np.ndarray) -> float:
    """Exact cost of u = u_br + eps * omega (constant direction omega)."""
    omega = np.asarray(omega, dtype=float).reshape(js.m, 1)
    shift = eps * omega
    B = js.B_full

    def A_of(q):
        return js.A_open(q) - B @ br.gains[q]

    def d_of(q):
        return js.d_open(q) + B @ (shift - br.feedforwards[q])

    return _propagate_cost(js, A_of, d_of,
                           lambda q: -br.gains[q],
                           lambda q: shift - br.feedforwards[q])


@dataclass
class BestResponseChain:
    """Exact dynamic-programming optimum of the simulated chain.

    Node-indexed law u_j = -gains[j] z_j - feedforwards[j].  Because the
    optimization and the cost share the very chain the simulator steps,
    cost can never exceed the chain cost of the equilibrium law; this
    pins the gap sign independently of any integrator.
    """

    gains: np.ndarray            # (M+1, m, D)
    feedforwards: np.ndarray     # (M+1, m, 1)
    Pi_terminal: np.ndarray
    cost: float                  # exact chain cost by moment recursion
    cost_dp: float               # same value from the backward recursion
    diagnostics: Dict[str, float] = field(default_factory=dict)


def solve_best_response_chain(js: JointSystem) -> BestResponseChain:
    _check_convexity(js)
    p = js.p
    grid = p.grid
    M, h = grid.num_steps, grid.h
    w = trapezoid_weights(grid)
    disc = np.exp(-p.rho * grid.nodes)
    D, m = js.D, js.m
    W, S, R = js.W, js.S, js.R
    lvec, rvec, cconst = js.lvec, js.rvec, js.cconst

    P = disc[M] * js.W_term
    Pi_terminal = P.copy()
    q_lin = disc[M] * js.l_term
    v = 0.5 * disc[M] * js.c_term

    gains = np.empty((M + 1, m, D))
    ffs = np.empty((M + 1, m, 1))

    # node M: the control there only shapes the final stage cost
    aM = w[M] * disc[M]
    FM = np.linalg.solve(R, S.T)
    fM = np.linalg.solve(R, rvec)
    gains[M], ffs[M] = FM, fM
    P = symmetrize(P + aM * (W - S @ FM))
    q_lin = q_lin + aM * (lvec - S @ fM)
    v = v + 0.5 * aM * (cconst - (rvec.T @ fM).item())

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(M - 1, -1, -1):
            a_j = w[j] * disc[j]
            Ptr = np.eye(D) + h * js.A_open(2 * j)
            cj = h * js.d_open(2 * j)
            Bt = h * js.B_full
            BtP = Bt.T @ P
            H = a_j * R + BtP @ Bt
            try:
                Hc = np.linalg.cholesky(symmetrize(H))
            except np.linalg.LinAlgError:
                raise AssumptionViolationError(
                    "joint control Hessian lost positive definiteness at node "
                    "%d; the deviation problem is not convex" % j
                )

            def hsolve(rhs_):
                return np.linalg.solve(Hc.T, np.linalg.solve(Hc, rhs_))

            Gz = a_j * S.T + BtP @ Ptr
            g = a_j * rvec + Bt.T @ (P @ cj + q_lin)
            Fj = hsolve(Gz)
            fj = hsolve(g)
            gains[j], ffs[j] = Fj, fj

            Pc_q = P @ cj + q_lin
            v = v + 0.5 * a_j * cconst + 0.5 * (cj.T @ P @ cj).item() \
                + (q_lin.T @ cj).item() + 0.5 * h * np.tensordot(P, js.Sig2) \
                - 0.5 * (g.T @ fj).item()
            q_lin = a_j * lvec + Ptr.T @ Pc_q - Gz.T @ fj
            P = symmetrize(a_j * W + Ptr.T @ P @ Ptr - Gz.T @ Fj)
            if not (np.all(np.isfinite(P)) and np.all(np.isfinite(q_lin))):
                raise RiccatiBlowupError(
                    "joint chain recursion diverged at node %d" % j,
                    node=j, time=grid.nodes[j],
                )

    mu0, V0 = js.mu0, js.V0
    cost_dp = 0.5 * (np.tensordot(P, V0) + (mu0.T @ P @ mu0).item()) \
        + (q_lin.T @ mu0).item() + v

    def A_br(q):
        return js.A_open(q) - js.B_full @ gains[q // 2]

    def d_br(q):
        return js.d_open(q) - js.B_full @ ffs[q // 2]

    def node_cost(j):
        return _deviation_quadratic(js.Cdev, js.eta, js.Q, js.Ncr, js.R,
                                    -gains[j], -ffs[j])

    cost = discrete_chain_cost(grid, p.rho, mu0, V0, A_br, d_br, js.Sig2,
                               node_cost, (js.W_term, js.l_term, js.c_term))
    return BestResponseChain(
        gains=gains, feedforwards=ffs, Pi_terminal=Pi_terminal,
        cost=cost, cost_dp=cost_dp,
        diagnostics={"route_mismatch": abs(cost - cost_dp)},
    )


@dataclass
class NashGapReport:
    agent_id: int
    N: int
    J_equilibrium: float
    J_best_response: float
    gap: float
    diagnostics: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.gap < -1e-8:
            raise AssumptionViolationError(
                "best response exceeded the equilibrium cost by more than "
                "roundoff (gap %.3e); the evaluation routes disagree" % self.gap
            )


def epsilon_nash_gap(p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                     deviator: int) -> NashGapReport:
    """How much one full-information agent can gain over the equilibrium.

    Both costs come from exact moment propagation of the same joint
    system, so the gap is free of sampling noise and of discretization
    mismatch between the two sides.  The chain evaluation of the
    un-deviated system is compared against expected_cost_exact and
    reported as an assembly cross-check.
    """
    js = build_joint_closed_loop(p, sol, cfg, deviator)
    J_eq = equilibrium_cost_ode(js)
    br = solve_best_response(js)
    chain_ref = expected_cost_exact(p, sol, cfg, deviator).value
    diag = dict(br.diagnostics)
    diag["assembly_crosscheck"] = abs(js.undeviated_cost() - chain_ref)
    return NashGapReport(
        agent_id=deviator, N=cfg.N,
        J_equilibrium=J_eq, J_best_response=br.cost,
        gap=J_eq - br.cost, diagnostics=diag,
    )


@dataclass
class GapRow:
    N: int
    major_gap: float
    type_gaps: List[float]
    max_gap: float


@dataclass
class GapTable:
    rows: List[GapRow]


def gap_vs_population(p: MmMfgProblem, sol: MfgSolution, Ns: Sequence[int],
                      master_seed: int = 0) -> GapTable:
    """Worst gap over the major and one deviator per type, for each N."""
    rows = []
    for N in Ns:
        cfg = PopulationConfig(N=int(N), master_seed=master_seed)
        type_of = assign_types(p.pi, int(N))
        major = epsilon_nash_gap(p, sol, cfg, 0).gap
        type_gaps = []
        for k in range(p.K):
            members = np.flatnonzero(type_of == k)
            if members.size == 0:
                type_gaps.append(0.0)
                continue
            dev = int(members[0]) + 1
            type_gaps.append(epsilon_nash_gap(p, sol, cfg, dev).gap)
        rows.append(GapRow(N=int(N), major_gap=major, type_gaps=type_gaps,
                           max_gap=max([major] + type_gaps)))
    return GapTable(rows=rows)
