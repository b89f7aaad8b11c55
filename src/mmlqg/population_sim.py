"""Finite populations driven by the equilibrium feedback laws.

The simulator runs N minor agents plus the major agent under Euler,
Maruyama on the solver grid.  Every feedback law reads the deterministic
internal mean-field state, advanced by the matching explicit Euler step
so that the whole population is one discrete-time linear Gaussian chain.
Costs come either from Monte Carlo over paths or exactly, by propagating
the mean and covariance of that same chain, which makes the exact value
the precise expectation of the Monte Carlo estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import DivergedPathError, IntegrationDivergedError, SchemaError
from .lqg_single import _stage_values, psd_sqrt
from .mfg_model import MmMfgProblem
from .mfg_solver import MfgSolution, mean_field_step_euler
from .numerics import GridFunction, symmetrize, trapezoid_weights


@dataclass
class PopulationConfig:
    N: int
    master_seed: int = 0
    num_paths: int = 1
    type_assignment: Optional[Sequence[int]] = None
    xbar0: Optional[np.ndarray] = None
    init_cov_major: Optional[np.ndarray] = None
    init_cov_minor: Optional[np.ndarray] = None
    record_states: bool = True

    def __post_init__(self):
        if int(self.N) < 1:
            raise SchemaError("N must be at least 1")
        self.N = int(self.N)
        if int(self.num_paths) < 1:
            raise SchemaError("num_paths must be at least 1")
        self.num_paths = int(self.num_paths)
        if not (0 <= int(self.master_seed) < 2 ** 64):
            raise SchemaError("master_seed must fit in 64 bits")
        self.master_seed = int(self.master_seed)
        if self.type_assignment is not None:
            ta = np.asarray(self.type_assignment, dtype=np.int64)
            if ta.shape != (self.N,):
                raise SchemaError("type_assignment must list one type per agent")
            self.type_assignment = ta
        if self.xbar0 is not None:
            self.xbar0 = np.asarray(self.xbar0, dtype=float).reshape(-1)


@dataclass
class TrajectoryBundle:
    """States, controls and mean-field tracks of one simulation run.

    Agent axis: index 0 is the major agent, 1..N the minors.  The
    empirical_global average combines per-type means with weights
    counts_k / N, in ascending type order, and is the quantity fed into
    the F-coupling of every drift.  Types without members contribute a
    zero block to empirical_types.
    """

    grid: object
    type_of: np.ndarray
    counts: np.ndarray
    states: Optional[np.ndarray]        # (paths, M+1, N+1, n)
    controls: Optional[np.ndarray]      # (paths, M+1, N+1, m)
    xbar: np.ndarray                    # (paths, M+1, nK)
    empirical_types: np.ndarray         # (paths, M+1, nK)
    empirical_global: np.ndarray        # (paths, M+1, n)
    config: PopulationConfig

    @property
    def num_paths(self) -> int:
        return self.xbar.shape[0]

    @property
    def N(self) -> int:
        return self.type_of.shape[0]


@dataclass
class CostReport:
    agent_id: int
    value: float
    std_error: float
    method: str
    num_paths: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise SchemaError("standard error must be nonnegative")


def assign_types(pi, N: int) -> np.ndarray:
    """Deterministic assignment keeping the prefix fractions closest to pi.

    Agent i gets the type maximizing pi_k * i - count_k, ties to the lowest
    index; prefixes are stable, so agent draws can be reused across N.
    With at most two types the rule hands type 0 its rounded share
    floor(pi_0 i + 1/2) of the first i agents.  That guess is checked
    against the rule for a block of agents at once, and agents are taken
    one by one only where floating point makes the two disagree.
    """
    pi = np.asarray(pi, dtype=float)
    K = pi.shape[0]
    out = np.empty(N, dtype=np.int64)
    counts = np.zeros(K)
    a = 0
    while a < N:
        if K <= 2:
            i = np.arange(a + 1, min(a + 65536, N) + 1, dtype=float)
            guess = (np.floor(pi[0] * i + 0.5)
                     == np.floor(pi[0] * (i - 1.0) + 0.5)).astype(np.int64)
            picked = guess == np.arange(K)[:, None]
            before = counts[:, None] + (np.cumsum(picked, axis=1) - picked)
            ok = np.argmax(pi[:, None] * i - before, axis=0) == guess
            good = ok.size if ok.all() else int(np.argmin(ok))
            out[a:a + good] = guess[:good]
            counts += picked[:, :good].sum(axis=1)
            a += good
            if a == N:
                break
        k = int(np.argmax(pi * (a + 1) - counts))
        out[a] = k
        counts[k] += 1.0
        a += 1
    return out


def _stream(master_seed: int, stream: int, path: int, agent: int) -> np.random.Generator:
    # counter word 0 is the draw counter; (path, agent) words keep streams disjoint
    key = np.array([master_seed, stream], dtype=np.uint64)
    counter = np.array([0, path, agent, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _type_means(Xm: np.ndarray, idx: List[np.ndarray], counts: np.ndarray,
                weights: np.ndarray, n: int):
    K = len(idx)
    stacked = np.zeros(n * K)
    glob = np.zeros(n)
    for k in range(K):
        if counts[k] == 0:
            continue
        mean_k = Xm[idx[k]].sum(axis=0) / counts[k]
        stacked[k * n:(k + 1) * n] = mean_k
        glob = glob + weights[k] * mean_k
    return stacked, glob


def simulate_population(p: MmMfgProblem, sol: MfgSolution,
                        cfg: PopulationConfig) -> TrajectoryBundle:
    """Euler-Maruyama run of the closed-loop population.

    Per step: empirical averages and controls are formed at the current
    node, then agents, major and the internal mean field all move by one
    explicit Euler step on node-j coefficients.  Noise comes from
    counter-based streams keyed by (master_seed, path, agent), so output
    is independent of scheduling and agent draws are shared across
    different N.
    """
    if sol.problem.grid != p.grid:
        raise SchemaError("solution grid does not match the problem grid")
    n, m, r, K = p.n, p.m, p.r, p.K
    N, P = cfg.N, cfg.num_paths
    grid = p.grid
    M = grid.num_steps
    h = grid.h
    sqh = math.sqrt(h)

    type_of = _type_of(p, cfg)
    idx = [np.flatnonzero(type_of == k) for k in range(K)]
    counts = np.array([ix.size for ix in idx], dtype=float)
    weights = counts / float(N)

    cov0 = cfg.init_cov_major if cfg.init_cov_major is not None else p.init_cov_major
    covm = cfg.init_cov_minor if cfg.init_cov_minor is not None else p.init_cov_minor
    sqrt0 = psd_sqrt(np.asarray(cov0, dtype=float))
    sqrtm = psd_sqrt(np.asarray(covm, dtype=float))
    xbar_init = _initial_mean_field(p, cfg)

    # node tables for the laws and drifts
    K0v, k0v = sol.major_law.K.values, sol.major_law.k.values
    Kkv = [sol.minor_laws[k].K.values for k in range(K)]
    kkv = [sol.minor_laws[k].k.values for k in range(K)]
    b0v = p.major.b0.values[:, :, 0]
    bkv = [p.minors[k].bk.values[:, :, 0] for k in range(K)]
    Ab_st = _stage_values(sol.mf_law.Abar)
    Gb_st = _stage_values(sol.mf_law.Gbar)
    mb_st = _stage_values(sol.mf_law.mbar)

    mj = p.major
    Ak = [p.minors[k].Ak for k in range(K)]
    Fk = [p.minors[k].Fk for k in range(K)]
    Gk = [p.minors[k].Gk for k in range(K)]
    Bk = [p.minors[k].Bk for k in range(K)]
    sigk = [p.minors[k].sigmak for k in range(K)]

    states = np.empty((P, M + 1, N + 1, n)) if cfg.record_states else None
    controls = np.empty((P, M + 1, N + 1, m)) if cfg.record_states else None
    xbar_out = np.empty((P, M + 1, n * K))
    emp_types = np.empty((P, M + 1, n * K))
    emp_glob = np.empty((P, M + 1, n))

    def run_path(path, x0, Xm, dW0, dWm, xbar):
        for j in range(M + 1):
            stacked, glob = _type_means(Xm, idx, counts, weights, n)
            emp_types[path, j] = stacked
            emp_glob[path, j] = glob
            xbar_out[path, j] = xbar
            X0ext = np.concatenate([x0, xbar])
            u0 = k0v[j][:, 0] - K0v[j] @ X0ext
            U = np.empty((N, m))
            for k in range(K):
                if counts[k] == 0:
                    continue
                cnt = idx[k].size
                Xe = np.empty((cnt, 2 * n + n * K))
                Xe[:, :n] = Xm[idx[k]]
                Xe[:, n:2 * n] = x0
                Xe[:, 2 * n:] = xbar
                U[idx[k]] = Xe @ (-Kkv[k][j].T) + kkv[k][j][:, 0]
            if cfg.record_states:
                states[path, j, 0] = x0
                states[path, j, 1:] = Xm
                controls[path, j, 0] = u0
                controls[path, j, 1:] = U
            if j == M:
                return

            x0_next = x0 + h * (mj.A0 @ x0 + mj.F0 @ glob + mj.B0 @ u0 + b0v[j]) \
                + sqh * (mj.sigma0 @ dW0[j])
            Xm_next = np.empty_like(Xm)
            for k in range(K):
                if counts[k] == 0:
                    continue
                ik = idx[k]
                drift = Xm[ik] @ Ak[k].T + glob @ Fk[k].T + x0 @ Gk[k].T \
                    + U[ik] @ Bk[k].T + bkv[k][j]
                Xm_next[ik] = Xm[ik] + h * drift + sqh * (dWm[ik, j] @ sigk[k].T)
            xbar = mean_field_step_euler(Ab_st, Gb_st, mb_st, j, h, xbar, x0)
            x0, Xm = x0_next, Xm_next
            if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(Xm))
                    and np.all(np.isfinite(xbar))):
                raise DivergedPathError(
                    "simulation diverged on path %d at node %d" % (path, j + 1),
                    path=path, node=j + 1,
                )

    # overflow in a diverging path is expected; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for path in range(P):
            x0 = sqrt0 @ _stream(cfg.master_seed, 1, path, 0).standard_normal(n)
            Xm = np.empty((N, n))
            for a in range(N):
                Xm[a] = sqrtm @ _stream(cfg.master_seed, 1, path, a + 1).standard_normal(n)
            dW0 = _stream(cfg.master_seed, 0, path, 0).standard_normal((M, r))
            dWm = np.empty((N, M, r))
            for a in range(N):
                dWm[a] = _stream(cfg.master_seed, 0, path, a + 1).standard_normal((M, r))
            run_path(path, x0, Xm, dW0, dWm, xbar_init.copy())

    return TrajectoryBundle(
        grid=grid, type_of=type_of, counts=counts.astype(np.int64),
        states=states, controls=controls, xbar=xbar_out,
        empirical_types=emp_types, empirical_global=emp_glob, config=cfg,
    )


def empirical_mean_field(bundle: TrajectoryBundle) -> List[GridFunction]:
    """Per-path stacked per-type averages as nK x 1 grid functions."""
    P = bundle.num_paths
    nK = bundle.xbar.shape[2]
    K = bundle.counts.shape[0]
    n = nK // K
    out = []
    if bundle.states is None:
        for path in range(P):
            out.append(GridFunction(bundle.grid, bundle.empirical_types[path][:, :, None]))
        return out
    for path in range(P):
        vals = np.zeros((bundle.grid.num_nodes, nK, 1))
        minors = bundle.states[path][:, 1:, :]
        for k in range(K):
            ix = np.flatnonzero(bundle.type_of == k)
            if ix.size == 0:
                continue
            vals[:, k * n:(k + 1) * n, 0] = minors[:, ix, :].sum(axis=1) / ix.size
        out.append(GridFunction(bundle.grid, vals))
    return out


def _deviation_quadratic(C, eta, Q, Ncr, R, L_u, u_c):
    """Quadratic form (W, l, c) of dev'Q dev + 2 dev'N u + u'R u.

    dev = C z - eta and u = L_u z + u_c; the returned pieces satisfy
    z'Wz + 2 z'l + c for every z.  L_u and u_c may be stage tables, with
    a leading stage axis, and W, l and c are then tables too.
    """
    CN = C.T @ Ncr
    cross = CN @ L_u
    L_t = np.swapaxes(L_u, -1, -2)
    W = symmetrize(C.T @ Q @ C + cross + np.swapaxes(cross, -1, -2) + L_t @ R @ L_u)
    l = -C.T @ (Q @ eta) + CN @ u_c + L_t @ (R @ u_c - Ncr.T @ eta)
    c = eta.T @ Q @ eta - 2.0 * eta.T @ Ncr @ u_c + np.swapaxes(u_c, -1, -2) @ R @ u_c
    return W, l, c[..., 0, 0]


def finite_cost_monte_carlo(p: MmMfgProblem, bundle: TrajectoryBundle,
                            agent_id: int) -> CostReport:
    """Pathwise trapezoid cost of one agent, averaged across paths."""
    if bundle.states is None or bundle.controls is None:
        raise SchemaError("bundle was recorded without states; rerun with record_states")
    if not (0 <= agent_id <= bundle.N):
        raise SchemaError("agent_id out of range")
    grid = bundle.grid
    w = trapezoid_weights(grid)
    disc = np.exp(-p.rho * grid.nodes)
    x = bundle.states[:, :, agent_id, :]
    u = bundle.controls[:, :, agent_id, :]
    xN = bundle.empirical_global
    x0 = bundle.states[:, :, 0, :]
    if agent_id == 0:
        mj = p.major
        track = x - xN @ mj.H0.T
        dev = track - mj.eta0[:, 0]
        Q, Ncr, R, Qhat = mj.Q0, mj.N0, mj.R0, mj.Qhat0
    else:
        mn = p.minors[int(bundle.type_of[agent_id - 1])]
        track = x - x0 @ mn.Hk.T - xN @ mn.Hhatk.T
        dev = track - mn.etak[:, 0]
        Q, Ncr, R, Qhat = mn.Qk, mn.Nk, mn.Rk, mn.Qhatk
    quad = np.einsum("pja,ab,pjb->pj", dev, Q, dev) \
        + 2.0 * np.einsum("pja,ab,pjb->pj", dev, Ncr, u) \
        + np.einsum("pja,ab,pjb->pj", u, R, u)
    run = (quad * disc) @ w
    # terminal weight applies to the coupled tracking error only; the
    # constant target eta enters the running cost, matching s(T) = 0
    term = disc[-1] * np.einsum("pa,ab,pb->p", track[:, -1], Qhat, track[:, -1])
    J = 0.5 * (run + term)
    value = float(J.mean())
    if J.size > 1:
        se = float(J.std(ddof=1) / math.sqrt(J.size))
    else:
        se = 0.0
    return CostReport(agent_id=agent_id, value=value, std_error=se,
                      method="monte_carlo", num_paths=bundle.num_paths)


def _type_of(p: MmMfgProblem, cfg: PopulationConfig) -> np.ndarray:
    type_of = cfg.type_assignment if cfg.type_assignment is not None \
        else assign_types(p.pi, cfg.N)
    if np.any(type_of < 0) or np.any(type_of >= p.K):
        raise SchemaError("type_assignment contains an unknown type index")
    return type_of


def _initial_mean_field(p: MmMfgProblem, cfg: PopulationConfig) -> np.ndarray:
    """cfg.xbar0 (zero when unset), checked to have length n*K."""
    xbar0 = np.zeros(p.n * p.K) if cfg.xbar0 is None else cfg.xbar0
    if xbar0.shape != (p.n * p.K,):
        raise SchemaError("xbar0 must have length n*K")
    return xbar0


class ReducedPopulation:
    """The closed-loop population as one agent sees it, in aggregate form.

    Agent ids follow the simulator: 0 is the major, 1..N the minors.  The
    state is y = (x_a, x0, xbar, S_1..S_K), with S_k the average of the
    c_k minors of type k other than agent a.  Those minors share one
    closed-loop law and enter every drift and cost only through
    x^(N) = (x_a + sum_k c_k S_k) / N, so y is Markov on its own: S_k
    carries noise sigma_k sigma_k' / c_k, starts with covariance
    Sigma_minor / c_k, and no block starts correlated with another.
    x_a is left out for the major and S_k when c_k = 0, so D <= 2n + 2nK
    whatever N.  y is a fixed linear image of the full N-agent state, and
    that projection commutes with every moment, Riccati and chain step
    taken on it: costs on y equal costs on the full state up to roundoff,
    discretization included.
    """

    def __init__(self, p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                 agent_id: int):
        if sol.problem.grid != p.grid:
            raise SchemaError("solution grid does not match the problem grid")
        if not (0 <= agent_id <= cfg.N):
            raise SchemaError("agent id out of range")
        n, K, N = p.n, p.K, cfg.N
        self.p, self.sol = p, sol
        self.n, self.m, self.K = n, p.m, K
        self.agent_id = agent_id
        type_of = _type_of(p, cfg)
        self.own_type = None if agent_id == 0 else int(type_of[agent_id - 1])
        counts = np.bincount(type_of, minlength=K)
        if self.own_type is not None:
            counts[self.own_type] -= 1

        # the agent's own block comes first: x0 for the major, x_a otherwise
        self.x0_off = 0 if agent_id == 0 else n
        self.xb_off = self.x0_off + n
        off = self.xb_off + n * K
        self.S_off = []
        for c in counts:
            self.S_off.append(off if c else None)
            off += n if c else 0
        self.D = off

        self._K0 = _stage_values(sol.major_law.K)
        self._k0 = _stage_values(sol.major_law.k)
        self._Kk = [_stage_values(sol.minor_laws[k].K) for k in range(K)]
        self._kk = [_stage_values(sol.minor_laws[k].k) for k in range(K)]

        # x^(N): the agent's own state and c_k S_k, each over N
        avg = np.zeros((n, self.D))
        if agent_id:
            avg[:, :n] = np.eye(n) / N
        for c, o in zip(counts, self.S_off):
            if o is not None:
                avg[:, o:o + n] = np.eye(n) * (c / N)
        self.avg = avg

        x0_sel = self._sel(self.x0_off, n)
        xb_sel = self._sel(self.xb_off, n * K)
        if agent_id == 0:
            mj = p.major
            self.C = x0_sel - mj.H0 @ avg
            self.eta, self.Q = mj.eta0, mj.Q0
            self.Ncr, self.R, self.Qhat = mj.N0, mj.R0, mj.Qhat0
            self.B_own = mj.B0
            self.U = np.vstack([x0_sel, xb_sel])
            self.K_st, self.k_st = self._K0, self._k0
        else:
            mn = p.minors[self.own_type]
            own_sel = self._sel(0, n)
            self.C = own_sel - mn.Hk @ x0_sel - mn.Hhatk @ avg
            self.eta, self.Q = mn.etak, mn.Qk
            self.Ncr, self.R, self.Qhat = mn.Nk, mn.Rk, mn.Qhatk
            self.B_own = mn.Bk
            self.U = np.vstack([own_sel, x0_sel, xb_sel])
            self.K_st = self._Kk[self.own_type]
            self.k_st = self._kk[self.own_type]
        # terminal weight hits the coupled tracking error C y alone: eta is a
        # running-cost target only, so the terminal form has no linear part
        self.terminal = (symmetrize(self.C.T @ self.Qhat @ self.C),
                         np.zeros((self.D, 1)), 0.0)

        cov0 = cfg.init_cov_major if cfg.init_cov_major is not None \
            else p.init_cov_major
        covm = cfg.init_cov_minor if cfg.init_cov_minor is not None \
            else p.init_cov_minor
        noise = [(self.x0_off, p.major.sigma0, cov0, 1)]
        if agent_id:
            noise.append((0, p.minors[self.own_type].sigmak, covm, 1))
        noise += [(o, p.minors[k].sigmak, covm, counts[k])
                  for k, o in enumerate(self.S_off) if o is not None]
        self.Sig2 = np.zeros((self.D, self.D))
        self.V0 = np.zeros((self.D, self.D))
        for o, sig, cov, c in noise:
            r = slice(o, o + n)
            self.Sig2[r, r] = sig @ sig.T / c
            self.V0[r, r] = np.asarray(cov) / c
        self.mu0 = np.zeros((self.D, 1))
        self.mu0[self.xb_off:self.xb_off + n * K, 0] = _initial_mean_field(p, cfg)

    def _sel(self, off: int, width: int) -> np.ndarray:
        S = np.zeros((width, self.D))
        S[:, off:off + width] = np.eye(width)
        return S

    def drift(self, closed: bool):
        """Stage tables (A, d) of dy = (A y + d) dt, q = 0..2M.

        Every minor average, and the major unless it is the agent, runs on
        its equilibrium law.  The agent's own rows run on theirs when
        closed and are left without input otherwise.
        """
        p, n, K = self.p, self.n, self.K
        nq = self._K0.shape[0]
        A = np.zeros((nq, self.D, self.D))
        d = np.zeros((nq, self.D, 1))
        x0 = slice(self.x0_off, self.x0_off + n)
        xb = slice(self.xb_off, self.xb_off + n * K)
        minors = [(o, k, True) for k, o in enumerate(self.S_off) if o is not None]
        if self.agent_id:
            minors.append((0, self.own_type, closed))
        for o, k, on_law in minors:
            mn = p.minors[k]
            r = slice(o, o + n)
            A[:, r] += mn.Fk @ self.avg
            A[:, r, r] += mn.Ak
            A[:, r, x0] += mn.Gk
            d[:, r] = _stage_values(mn.bk)
            if on_law:
                BK = mn.Bk @ self._Kk[k]
                A[:, r, r] -= BK[:, :, :n]
                A[:, r, x0] -= BK[:, :, n:2 * n]
                A[:, r, xb] -= BK[:, :, 2 * n:]
                d[:, r] += mn.Bk @ self._kk[k]
        mj = p.major
        A[:, x0] += mj.F0 @ self.avg
        A[:, x0, x0] += mj.A0
        d[:, x0] = _stage_values(mj.b0)
        if self.agent_id or closed:
            BK = mj.B0 @ self._K0
            A[:, x0, x0] -= BK[:, :, :n]
            A[:, x0, xb] -= BK[:, :, n:]
            d[:, x0] += mj.B0 @ self._k0
        law = self.sol.mf_law
        A[:, xb, x0] = _stage_values(law.Gbar)
        A[:, xb, xb] = _stage_values(law.Abar)
        d[:, xb] = _stage_values(law.mbar)
        return A, d


def discrete_chain_cost(grid, rho, mu0, V0, A_of, d_of, Sig2, node_cost,
                        term_cost) -> float:
    """Expected cost of the Euler-Maruyama chain, by moment recursion.

    The chain is z_{j+1} = (I + h A_j) z_j + h d_j + sqrt(h) noise with
    stationary covariance Sig2 per unit time; the running cost is the
    trapezoid sum of discounted quadratic forms at the nodes.  This is
    the exact expectation of the simulated pathwise cost, so it carries
    the same O(h) discretization bias and no sampling error.
    """
    w = trapezoid_weights(grid)
    disc = np.exp(-rho * grid.nodes)
    M = grid.num_steps
    h = grid.h
    mu = mu0.copy()
    V = V0.copy()
    D = mu.shape[0]
    eye = np.eye(D)
    J = 0.0
    for j in range(M):
        W, l, c = node_cost(j)
        S = V + mu @ mu.T
        J += 0.5 * w[j] * disc[j] * (np.vdot(W, S) + 2.0 * (l.T @ mu).item() + c)
        P = eye + h * A_of(2 * j)
        mu = P @ mu + h * d_of(2 * j)
        V = symmetrize(P @ V @ P.T + h * Sig2)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(V))):
            raise IntegrationDivergedError(
                "moment recursion diverged at node %d" % (j + 1),
                node=j + 1, time=grid.nodes[j + 1],
            )
    W, l, c = node_cost(M)
    S = V + mu @ mu.T
    J += 0.5 * w[M] * disc[M] * (np.vdot(W, S) + 2.0 * (l.T @ mu).item() + c)
    W_T, l_T, c_T = term_cost
    J += 0.5 * disc[M] * (np.vdot(W_T, S) + 2.0 * (l_T.T @ mu).item() + c_T)
    return float(J)


def expected_cost_exact(p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                        agent_id: int) -> CostReport:
    """Exact expected equilibrium cost by moment recursion on the reduced
    state, every block, the agent's own included, closed directly."""
    rs = ReducedPopulation(p, sol, cfg, agent_id)
    A, d = rs.drift(closed=True)

    def node_cost(j):
        q = 2 * j
        return _deviation_quadratic(rs.C, rs.eta, rs.Q, rs.Ncr, rs.R,
                                    -rs.K_st[q] @ rs.U, rs.k_st[q])

    J = discrete_chain_cost(p.grid, p.rho, rs.mu0, rs.V0, A.__getitem__,
                            d.__getitem__, rs.Sig2, node_cost, rs.terminal)
    return CostReport(agent_id=agent_id, value=J, std_error=0.0,
                      method="moment_recursion", num_paths=0)


@dataclass
class ConvergenceStudy:
    rows: List[tuple]
    slope: float


def mean_field_convergence_study(p: MmMfgProblem, sol: MfgSolution,
                                 Ns: Sequence[int],
                                 seeds: Sequence[int]) -> ConvergenceStudy:
    """RMS distance between empirical type averages and the mean field.

    One single-path simulation per (N, seed); the counter-based streams
    make the first N agent draws common across the N sweep.  Returns rows
    (N, rms) and the slope of log rms against log N.
    """
    rows = []
    for N in Ns:
        total = 0.0
        count = 0
        for seed in seeds:
            cfg = PopulationConfig(N=int(N), master_seed=int(seed),
                                   num_paths=1, record_states=False)
            bundle = simulate_population(p, sol, cfg)
            dev = bundle.empirical_types[0] - bundle.xbar[0]
            total += float(np.sum(dev * dev))
            count += dev.shape[0]
        rows.append((int(N), math.sqrt(total / count)))
    logN = np.log([row[0] for row in rows])
    logr = np.log([max(row[1], 1e-300) for row in rows])
    slope = float(np.polyfit(logN, logr, 1)[0]) if len(rows) > 1 else 0.0
    return ConvergenceStudy(rows=rows, slope=slope)
