"""Finite populations driven by the equilibrium feedback laws.

The simulator runs N minor agents plus the major agent under Euler,
Maruyama on the solver grid.  Every feedback law reads the deterministic
internal mean-field state, advanced by the matching explicit Euler step
so that the whole population is one discrete-time linear Gaussian chain.
One stepper, _Population.advance, moves a stack of paths at once, minors
sorted by type with agents on the last axis; DRAW_BUDGET bounds the raw
draws held, and each step's noise is formed when the step is taken.  Each
(master_seed, stream, path) is one Philox stream, and one call draws
every agent's block of it (_draws).  A run keeps the states, the type
means and the mean field; the controls and the population average each
drift reads are functions of those and are not stored.
Expected costs come exactly, by propagating the mean and covariance of
that same chain, so each is the precise expectation of the pathwise cost
of simulated paths.  Like the simulator, which reads the laws' tables at
node j, the exact route reads node tables only: the reduced state's
drift and the agent's law at the nodes, with its running cost formed by
lqg_single's one policy quadratic.  One record, ReducedPopulation, serves
that cost and nash_gap's deviator; its agent's weights come from
mfg_model.lift_tracking, as every agent's.  Every exact cost runs on a
stack of records of one dimension (_stacked), a single one included.
The convergence study runs the same recursion on the population's
aggregate record, so its RMS is exact too and nothing in it is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from .errors import DivergedPathError, IntegrationDivergedError, SchemaError
from .lqg_single import (ExtendedSystem, _as_matrix, _dots, _policy_quadratic,
                          _stage_values, psd_sqrt)
from .mfg_model import MmMfgProblem, lift_tracking
from .mfg_solver import MfgSolution, mean_field_step_euler
from .numerics import (GridFunction, _as_array, _as_count, _as_seed, matvec_rows,
                       symmetrize, trapezoid_weights)


def _type_indices(values, N: int) -> np.ndarray:
    """N type indices as int64: integers, or floats with integral values."""
    try:
        ta = np.asarray(values)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or huge
        raise SchemaError("type_assignment must be a list of integers") from exc
    if ta.shape != (N,):
        raise SchemaError("type_assignment must list one type per agent")
    if not (ta.dtype.kind in "biu" or ta.dtype.kind == "f" and np.all(
            np.isfinite(ta) & (ta == np.floor(ta)))):
        raise SchemaError("type_assignment must list integer type indices")
    return ta.astype(np.int64, copy=False)


@dataclass
class PopulationConfig:
    N: int
    master_seed: int = 0
    num_paths: int = 1
    type_assignment: Optional[Sequence[int]] = None
    xbar0: Optional[np.ndarray] = None
    record_states: bool = True

    def __post_init__(self):
        self.N = _as_count(self.N, "N", 1)
        self.num_paths = _as_count(self.num_paths, "num_paths", 1)
        self.master_seed = _as_seed(self.master_seed, "master_seed")
        if self.type_assignment is not None:
            self.type_assignment = _type_indices(self.type_assignment, self.N)
        if self.xbar0 is not None:
            self.xbar0 = _as_array("xbar0", self.xbar0)
        if not isinstance(self.record_states, (bool, np.bool_)):
            raise SchemaError("expected a boolean, got %r" % (self.record_states,),
                              field="record_states")


@dataclass
class TrajectoryBundle:
    """States and mean-field tracks of one simulation run.

    Agent axis: index 0 is the major agent, 1..N the minors.  Types
    without members contribute a zero block to empirical_types.  The
    average x^(N) fed into the F-coupling of every drift is the sum of
    the type means with weights counts_k / N, and each control is its
    agent's law at the recorded states and xbar; neither is stored.
    """

    grid: object
    type_of: np.ndarray
    counts: np.ndarray
    states: Optional[np.ndarray]        # (paths, M+1, N+1, n)
    xbar: np.ndarray                    # (paths, M+1, nK)
    empirical_types: np.ndarray         # (paths, M+1, nK)

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
            i = np.arange(a, min(a + 16384, N) + 1, dtype=float)
            share = np.floor(pi[0] * i + 0.5)     # type 0's share of the first i agents
            i, guess = i[1:], share[1:] == share[:-1]
            ones = np.cumsum(guess) - guess       # type 1's earlier picks in the block
            # the rule's argmax of the <= 2 scores pi_k i - count_k, ties to type 0
            zero = pi[0] * i - (counts[0] + (i - (a + 1.0) - ones))
            ok = guess == (pi[-1] * i - (counts[-1] + ones) > zero) if K == 2 else ~guess
            good = ok.size if ok.all() else int(np.argmin(ok))
            out[a:a + good] = guess[:good]
            taken = int(np.count_nonzero(guess[:good]))     # by type 1
            counts += [good - taken, taken][:K]
            a += good
            if a == N:
                break
        k = int(np.argmax(pi * (a + 1) - counts))
        out[a] = k
        counts[k] += 1.0
        a += 1
    return out


# Bytes of raw Brownian draws held at once: paths are stepped in stacks
# of as many as fit, one at least.
DRAW_BUDGET = 5 * 2 ** 20


def _draws(master_seed: int, stream: int, path: int, count: int, shape,
           out=None) -> np.ndarray:
    """Standard normals of agents 0..count-1 on one (stream, path), stacked.

    Row a is the a-th consecutive block of shape draws from the one stream
    Generator(Philox(counter=[0, path, 0, 0], key=[master_seed, stream])):
    counter word 0 counts the draws, word 1 keeps paths disjoint and the
    key keeps (seed, stream) pairs apart.  The stream fills in order, so a
    prefix of a longer draw is the draw of fewer agents.  out, if given,
    is a C-contiguous (count,) + shape array filled in place.
    """
    # uint64 arrays: a plain list holding a seed >= 2^63 would be cast to float
    counter = np.array([0, path, 0, 0], dtype=np.uint64)
    key = np.array([master_seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(counter=counter, key=key))
    return gen.standard_normal((count,) + tuple(shape), out=out)


def _cols(A: np.ndarray, X: np.ndarray, out=None) -> np.ndarray:
    """A X on agents-last stacks X (..., L, N), one column of A at a time,
    so every agent's value depends on its own column alone."""
    out = np.multiply(A[:, :1], X[..., :1, :], out=out)
    for col in range(1, A.shape[1]):
        out += A[:, col:col + 1] * X[..., col:col + 1, :]
    return out


def _chunks(p: MmMfgProblem, count: int, total: int):
    """Ranges [a, b) of total paths whose draws dW, count x M x r doubles
    a path for agents 0..count-1, fit DRAW_BUDGET; one path at least."""
    per = max(1, DRAW_BUDGET // (8 * count * p.grid.num_steps * p.r))
    return [(a, min(a + per, total)) for a in range(0, total, per)]


class _Population:
    """Closed-loop node tables of one (problem, solution), shared by every
    path run on them."""

    def __init__(self, p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig):
        _check_solution(p, sol)
        self.p = p
        n, m, K, laws, mns = p.n, p.m, p.K, sol.minor_laws, p.minors
        self.sqrt0 = psd_sqrt(p.init_cov_major)
        self.sqrtm = psd_sqrt(p.init_cov_minor)
        self.xbar0 = _initial_mean_field(p, cfg)
        # rows: the major, then each type; v = ff - gain (x0, xbar) per node
        # is every control but for the minors' own-state part
        self.ff = np.concatenate([sol.major_law.k.values]
                                 + [law.k.values for law in laws], axis=1)[..., 0]
        self.gain = np.concatenate([sol.major_law.K.values]
                                   + [law.K.values[:, :, n:] for law in laws], axis=1)
        # drift rows on x0, the empirical average and those control parts
        self.on_x0 = np.vstack([p.major.A0] + [mn.Gk for mn in mns])
        self.on_glob = np.vstack([p.major.F0] + [mn.Fk for mn in mns])
        self.on_v = np.zeros((n * (K + 1), m * (K + 1)))
        for i, B in enumerate([p.major.B0] + [mn.Bk for mn in mns]):
            self.on_v[i * n:(i + 1) * n, i * m:(i + 1) * m] = B
        self.b = np.concatenate([p.major.b0.values]
                                + [mn.bk.values for mn in mns], axis=1)[..., 0]
        # per type and node: Ak - Bk Kx, Kx the gain on a minor's own state
        self.closed = [mn.Ak - mn.Bk @ law.K.values[:, :, :n] for mn, law in zip(mns, laws)]
        self.law = [f.values for f in (sol.mf_law.Abar, sol.mf_law.Gbar, sol.mf_law.mbar)]

    def sample(self, streams, ids):
        """Initial states and raw Brownian draws of the paths (master_seed,
        path) in streams: x0 (S, n), per type on the columns of agent ids[k]
        X[k] (S, n, C_k), and dW (S, count, M, r) of agents 0..count-1,
        count = 1 + the largest id, filled in place.  Each value reads its
        own agent's draws alone."""
        p = self.p
        S = len(streams)
        count = 1 + max(int(ix.max(initial=0)) for ix in ids)
        x0 = np.empty((S, p.n))
        X = [np.empty((S, p.n, ix.size)) for ix in ids]
        dW = np.empty((S, count, p.grid.num_steps, p.r))
        for s, (seed, path) in enumerate(streams):
            xi = _draws(seed, 1, path, count, (p.n,))
            _draws(seed, 0, path, count, dW.shape[2:], out=dW[s])
            # + 0.0 turns the -0.0 of a zero product into 0.0, and so a state
            # at rest stays 0.0 whatever the sign of its zero terms
            x0[s] = matvec_rows(self.sqrt0, xi[0]) + 0.0
            for k, ix in enumerate(ids):
                X[k][s] = _cols(self.sqrtm, xi[ix].T) + 0.0
        return x0, X, dW

    def noise(self, dW, ids, j):
        """Noise terms sqrt(h) sigma dW of step j, formed when the step is
        taken: the major's (S, n) and, per type on the columns of agent
        ids[k], (S, n, C_k)."""
        sqh = math.sqrt(self.p.grid.h)
        return (sqh * matvec_rows(self.p.major.sigma0, dW[:, 0, j]),
                [sqh * _cols(mn.sigmak, dW[:, :, j].take(ix, 1).swapaxes(-1, -2))
                 for mn, ix in zip(self.p.minors, ids)])

    def advance(self, streams, type_of: np.ndarray, record: bool = False):
        """Euler-Maruyama runs of the paths (master_seed, path) in streams,
        stacked, of the minors type_of.

        Type k's minors sit on its columns, agents last.  Every product is
        a matvec_rows or _cols, so no path depends on the others.  Returns
        node tables (S, M + 1, .) of the type means (zero if a type is
        empty) and the mean field, and if record the states (x0, X[k]).
        Raises DivergedPathError for the first path to leave the finite
        range."""
        p = self.p
        n, K = p.n, p.K
        M, h, S = p.grid.num_steps, p.grid.h, len(streams)
        ids = [1 + np.flatnonzero(type_of == k) for k in range(K)]
        live = [k for k in range(K) if ids[k].size]
        x0, X, dW = self.sample(streams, ids)
        xbar = np.tile(self.xbar0, (S, 1))
        emp_types = np.zeros((S, M + 1, n * K))
        xbar_out = np.empty((S, M + 1, n * K))
        trace = (np.empty((S, M + 1, n)),
                 [np.empty((S, M + 1, n, ix.size)) for ix in ids]) if record else None
        first_bad = np.full(S, M + 1)
        # overflow in a diverging path is expected; the finite check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(M + 1):
                for k in live:
                    emp_types[:, j, k * n:(k + 1) * n] = X[k].sum(-1) / ids[k].size
                glob = sum(ids[k].size / type_of.size * emp_types[:, j, k * n:(k + 1) * n]
                           for k in range(K))
                xbar_out[:, j] = xbar
                v = self.ff[j] - matvec_rows(self.gain[j], np.concatenate([x0, xbar], -1))
                # every drift but the minors' own-state part, major first
                drift = matvec_rows(self.on_x0, x0) + matvec_rows(self.on_glob, glob) \
                    + self.b[j] + matvec_rows(self.on_v, v)
                if record:
                    trace[0][:, j] = x0
                if j < M:
                    noise0, noise = self.noise(dW, ids, j)
                for k in live:
                    if record:
                        trace[1][k][:, j] = X[k]
                    if j < M:
                        cross = drift[:, n * (k + 1):n * (k + 2), None]
                        X[k] = X[k] + h * (_cols(self.closed[k][j], X[k]) + cross) \
                            + noise[k]
                if j == M:
                    break
                x0_next = x0 + h * drift[..., :n] + noise0
                xbar = mean_field_step_euler(*self.law, j, h, xbar, x0)
                x0 = x0_next
                if not (np.isfinite(x0).all() and np.isfinite(xbar).all()
                        and all(np.isfinite(Xk).all() for Xk in X)):
                    fine = np.isfinite(x0).all(-1) & np.isfinite(xbar).all(-1)
                    for Xk in X:
                        fine &= np.isfinite(Xk).all((1, 2))
                    first_bad[~fine] = np.minimum(first_bad[~fine], j + 1)
        if (first_bad <= M).any():
            s = int(np.argmax(first_bad <= M))
            path, node = streams[s][1], int(first_bad[s])
            raise DivergedPathError("simulation diverged on path %d at node %d"
                                    % (path, node), path=path, node=node)
        return emp_types, xbar_out, trace


def simulate_population(p: MmMfgProblem, sol: MfgSolution,
                        cfg: PopulationConfig) -> TrajectoryBundle:
    """Euler-Maruyama run of the closed-loop population.

    Per step: empirical averages and controls are formed at the current
    node, then agents, major and the internal mean field all move by one
    explicit Euler step on node-j coefficients.  Noise comes from one
    counter-based stream per (master_seed, stream, path), agent a taking
    its a-th consecutive block, so output is independent of scheduling
    and the first agents' draws are shared across different N.  Paths
    step together through the one stepper in stacks that fit
    DRAW_BUDGET, minors sorted by type, agents last; no path depends on
    the stacking.
    """
    pop = _Population(p, sol, cfg)
    n, K = p.n, p.K
    N, P = cfg.N, cfg.num_paths
    M = p.grid.num_steps
    type_of = _type_of(p, cfg)
    rows = 1 + np.argsort(type_of, kind="stable")   # agent ids, type by type

    rec = cfg.record_states
    states = np.empty((P, M + 1, N + 1, n)) if rec else None
    xbar_out = np.empty((P, M + 1, n * K))
    emp_types = np.empty((P, M + 1, n * K))

    for a, b in _chunks(p, N + 1, P):
        out = pop.advance([(cfg.master_seed, i) for i in range(a, b)], type_of, rec)
        emp_types[a:b], xbar_out[a:b] = out[:2]
        if rec:
            x0s, Xs = out[2]
            states[a:b, :, 0] = x0s
            states[a:b, :, rows] = np.concatenate(Xs, axis=-1).swapaxes(-1, -2)

    return TrajectoryBundle(grid=p.grid, type_of=type_of,
                            counts=np.bincount(type_of, minlength=K), states=states,
                            xbar=xbar_out, empirical_types=emp_types)


def _type_of(p: MmMfgProblem, cfg: PopulationConfig) -> np.ndarray:
    type_of = cfg.type_assignment if cfg.type_assignment is not None \
        else assign_types(p.pi, cfg.N)
    if type_of.min() < 0 or type_of.max() >= p.K:
        raise SchemaError("type_assignment contains an unknown type index")
    return type_of


def _initial_mean_field(p: MmMfgProblem, cfg: PopulationConfig) -> np.ndarray:
    """cfg.xbar0 (zero when unset) as a length n*K vector; a flat list or
    an (n*K, 1) column."""
    return _as_matrix("xbar0", cfg.xbar0, p.n * p.K, 1)[:, 0]


def _check_solution(p: MmMfgProblem, sol: MfgSolution):
    """A solution is run only on a game of its own grid and dimensions."""
    q = sol.problem
    if (q.grid, q.n, q.m, q.K) != (p.grid, p.n, p.m, p.K):
        raise SchemaError("the solution's grid, n, m or K does not match the problem's")


def _agent_key(p: MmMfgProblem, cfg: PopulationConfig, agent_id) -> tuple:
    """agent_id as a count, then its ReducedPopulation key: the other minors'
    counts per type, the agent's type (None for the major) and xbar0."""
    agent_id = _as_count(agent_id, "agent_id", 0, cfg.N + 1)
    type_of = _type_of(p, cfg)
    own_type = None if agent_id == 0 else int(type_of[agent_id - 1])
    counts = np.bincount(type_of, minlength=p.K)
    if own_type is not None:
        counts[own_type] -= 1
    return agent_id, counts, own_type, _initial_mean_field(p, cfg)


class ReducedPopulation:
    """The closed-loop population as one agent sees it, in aggregate form,
    and that agent's control problem there: the record of nash_gap's
    finite-N deviator.

    Keyed by counts, not agent ids (_agent_key maps one to the other): the
    agent's type own_type (None for the major), counts[k] = c_k other
    minors of type k and the initial mean field xbar0.  The state is
    y = (x_a, x0, xbar, S_1..S_K), with S_k the average of those c_k
    minors.  They share one closed-loop law and enter every drift and cost
    only through x^(N) = (x_a + sum_k c_k S_k) / N, so y is Markov on its
    own: S_k carries noise sigma_k sigma_k' / c_k, starts with covariance
    Sigma_minor / c_k, and no block starts correlated with another.  x_a
    is left out for the major and S_k when c_k = 0, so D <= 2n + 2nK and
    no array grows with N.  y is a fixed linear image of the full N-agent
    state, and that projection commutes with every moment, Riccati and
    chain step taken on it: costs on y equal costs on the full state up to
    roundoff, discretization included.

    The agent's running cost tracks C y - eta, and weights is
    mfg_model.lift_tracking of C, as for every agent of the game.  A_nodes
    and d_nodes tabulate the drift with the agent's rows uncontrolled; its
    input enters through B_full, which is zero outside its own block rows
    (the first n).  Kz_nodes and k_nodes tabulate the agent's own
    equilibrium law lifted to y, u = -Kz_nodes[j] y + k_nodes[j].  A, d, Kz
    and k_st are those four at the stages q = 0..2M the RK4 sweeps read,
    formed on each read.  The tables are shared: treat them as read-only.
    """

    def __init__(self, p: MmMfgProblem, sol: MfgSolution, counts: Sequence[int],
                 own_type: Optional[int], xbar0: np.ndarray):
        _check_solution(p, sol)
        n, K = p.n, p.K
        N = int(np.sum(counts)) + (own_type is not None)
        self.p, self.sol = p, sol
        self.n, self.m, self.K = n, p.m, K
        self.own_type = own_type

        # the agent's own block comes first: x0 for the major, x_a otherwise
        self.x0_off = 0 if own_type is None else n
        self.xb_off = self.x0_off + n
        off = self.xb_off + n * K
        self.S_off = []
        for c in counts:
            self.S_off.append(off if c else None)
            off += n if c else 0
        self.D = off

        # x^(N): the agent's own state and c_k S_k, each over N
        avg = np.zeros((n, self.D))
        if own_type is not None:
            avg[:, :n] = np.eye(n) / N
        for c, o in zip(counts, self.S_off):
            if o is not None:
                avg[:, o:o + n] = np.eye(n) * (c / N)
        self.avg = avg

        # selectors: rows of the identity; the law reads the leading blocks
        eye = np.eye(self.D)
        x0_sel = eye[self.x0_off:self.x0_off + n]
        if own_type is None:
            mj, law = p.major, sol.major_law
            C = x0_sel - mj.H0 @ avg
            eta, self.Q, self.Ncr, self.R = mj.eta0, mj.Q0, mj.N0, mj.R0
            self.Qhat, B_own = mj.Qhat0, mj.B0
        else:
            mn, law = p.minors[own_type], sol.minor_laws[own_type]
            C = eye[:n] - mn.Hk @ x0_sel - mn.Hhatk @ avg
            eta, self.Q, self.Ncr, self.R = mn.etak, mn.Qk, mn.Nk, mn.Rk
            self.Qhat, B_own = mn.Qhatk, mn.Bk
        self.C = C
        self.weights = lift_tracking(C, self.Qhat, self.Q, self.Ncr, self.R, eta)
        self.c0 = (eta.T @ self.Q @ eta).item()
        self.Kz_nodes = law.K.values @ eye[:self.xb_off + n * K]
        self.k_nodes = law.k.values

        covm = p.init_cov_minor
        noise = [(self.x0_off, p.major.sigma0, p.init_cov_major, 1)]
        if own_type is not None:
            noise.append((0, p.minors[own_type].sigmak, covm, 1))
        noise += [(o, p.minors[k].sigmak, covm, counts[k])
                  for k, o in enumerate(self.S_off) if o is not None]
        self.Sig2 = np.zeros((self.D, self.D))
        self.V0 = np.zeros((self.D, self.D))
        for o, sig, cov, c in noise:
            r = slice(o, o + n)
            self.Sig2[r, r] = sig @ sig.T / c
            self.V0[r, r] = cov / c
        self.mu0 = np.zeros((self.D, 1))
        self.mu0[self.xb_off:self.xb_off + n * K, 0] = xbar0

        self.A_nodes, self.d_nodes = self.drift(closed=False)
        self.B_full = np.vstack([B_own, np.zeros((self.D - n, self.m))])

    # the four node tables at the stages, formed where a sweep reads them
    A = property(lambda self: _stage_values(self.A_nodes))
    d = property(lambda self: _stage_values(self.d_nodes))
    Kz = property(lambda self: _stage_values(self.Kz_nodes))
    k_st = property(lambda self: _stage_values(self.k_nodes))

    def _agent(self) -> ExtendedSystem:
        """The agent as the record every solver reads, the same as
        LqgProblem._agent(): open drift, B_full and its lifted weights."""
        grid = self.p.grid
        return ExtendedSystem(what="deviator", A=GridFunction(grid, self.A_nodes),
                              B=self.B_full, b=GridFunction(grid, self.d_nodes),
                              **self.weights)

    def drift(self, closed: bool):
        """Node tables (A, d) of dy = (A y + d) dt, j = 0..M.

        Every minor average, and the major unless it is the agent, runs on
        its equilibrium law.  The agent's own rows run on theirs when
        closed and are left without input otherwise.
        """
        p, n, K = self.p, self.n, self.K
        laws, law0 = self.sol.minor_laws, self.sol.major_law
        nodes = p.grid.num_nodes
        A = np.zeros((nodes, self.D, self.D))
        d = np.zeros((nodes, self.D, 1))
        x0 = slice(self.x0_off, self.x0_off + n)
        xb = slice(self.xb_off, self.xb_off + n * K)
        minors = [(o, k, True) for k, o in enumerate(self.S_off) if o is not None]
        if self.own_type is not None:
            minors.append((0, self.own_type, closed))
        for o, k, on_law in minors:
            mn = p.minors[k]
            r = slice(o, o + n)
            A[:, r] += mn.Fk @ self.avg
            A[:, r, r] += mn.Ak
            A[:, r, x0] += mn.Gk
            d[:, r] = mn.bk.values
            if on_law:
                BK = mn.Bk @ laws[k].K.values
                A[:, r, r] -= BK[:, :, :n]
                A[:, r, x0] -= BK[:, :, n:2 * n]
                A[:, r, xb] -= BK[:, :, 2 * n:]
                d[:, r] += mn.Bk @ laws[k].k.values
        mj = p.major
        A[:, x0] += mj.F0 @ self.avg
        A[:, x0, x0] += mj.A0
        d[:, x0] = mj.b0.values
        if self.own_type is not None or closed:
            BK = mj.B0 @ law0.K.values
            A[:, x0, x0] -= BK[:, :, :n]
            A[:, x0, xb] -= BK[:, :, n:]
            d[:, x0] += mj.B0 @ law0.k.values
        mf = self.sol.mf_law
        A[:, xb, x0] = mf.Gbar.values
        A[:, xb, xb] = mf.Abar.values
        d[:, xb] = mf.mbar.values
        return A, d


def _stacked(records: Sequence[ReducedPopulation], tables: Sequence[str]) -> SimpleNamespace:
    """The arrays of records of one dimension D as one record's: the named
    stage or node tables with a member axis after their first axis,
    B_full, mu0, V0, Sig2 and the weights with one in front, and c0 as an
    (L, 1, 1) column.  The cost routines read it as they read one record."""
    return SimpleNamespace(
        p=records[0].p, c0=np.reshape([r.c0 for r in records], (-1, 1, 1)),
        weights={key: np.stack([r.weights[key] for r in records]) for key in records[0].weights},
        **{name: np.stack([getattr(r, name) for r in records], int(name in tables))
           for name in [*tables, "B_full", "mu0", "V0", "Sig2"]})


def chain_costs(js: SimpleNamespace, A, d) -> np.ndarray:
    """Expected costs of the stacked records' own equilibrium laws on the
    Euler chains of node drift tables (A, d), by one discrete_chain_cost;
    js stacks Kz_nodes and k_nodes."""
    w = js.weights
    node_cost = _policy_quadratic(w["Q"], w["N"], w["R"], w["eta"], w["nbar"],
                                  js.c0, js.Kz_nodes, js.k_nodes)
    return discrete_chain_cost(js.p.grid, js.p.rho, js.mu0, js.V0, A, d,
                               js.Sig2, node_cost, w["Qhat"])


def discrete_chain_cost(grid, rho, mu0, V0, A, d, Sig2, node_cost, W_T):
    """Expected cost of the Euler-Maruyama chain, by moment recursion.

    The chain is z_{j+1} = (I + h A[j]) z_j + h d[j] + sqrt(h) noise with
    stationary covariance Sig2 per unit time; the running cost is the
    trapezoid sum of the discounted quadratic forms node_cost = (W, l, c),
    and the terminal cost is the discounted form of the weight W_T.  A, d,
    W, l and c are tables over the M + 1 nodes.  This is the exact
    expectation of the simulated pathwise cost, so it carries the same
    O(h) discretization bias and no sampling error.

    mu0 (L, D, 1) stacks L chains, each rounded as alone: tables carry a
    member axis after the node axis, V0, Sig2 and W_T one in front, and L
    costs return; one chain is a one-member stack.  Finiteness is checked
    once, on the node tables after the loop; a divergence names the
    lowest-index member that left the finite range, at its first
    non-finite node.
    """
    W, l, c = node_cost
    M, h, eye = grid.num_steps, grid.h, np.eye(mu0.shape[1])
    mu, V = np.empty((M + 1,) + mu0.shape), np.empty((M + 1,) + V0.shape)
    mu[0], V[0] = mu0, V0
    # overflow in a diverging chain is expected; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(M):
            P = eye + h * A[j]
            mu[j + 1] = P @ mu[j] + h * d[j]
            V[j + 1] = symmetrize(P @ V[j] @ P.swapaxes(-1, -2) + h * Sig2)
    finite = np.isfinite(mu[1:]).all((2, 3)) & np.isfinite(V[1:]).all((2, 3))
    if not finite.all():
        member = int(np.argmin(finite.all(0)))
        j = int(np.argmin(finite[:, member])) + 1
        raise IntegrationDivergedError("moment recursion diverged at node %d" % j,
                                       node=j, time=grid.nodes[j], member=member)
    disc = np.exp(-rho * grid.nodes)
    # V + mu mu' in V's memory, mu mu' formed as in closed_loop_cost_moments
    S = np.add(V, mu * mu.swapaxes(-1, -2), out=V)
    running = (0.5 * trapezoid_weights(grid) * disc)[:, None] * (
        _dots(W, S) + 2.0 * _dots(l, mu) + c)
    # summed node by node, in order
    return np.add.accumulate(running)[-1] + 0.5 * disc[M] * _dots(W_T, S[M])


def expected_cost_exact(p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                        agent_id: int) -> CostReport:
    """Exact expected equilibrium cost by moment recursion on the reduced
    state, every block, the agent's own included, closed directly."""
    agent_id, *key = _agent_key(p, cfg, agent_id)
    rs = ReducedPopulation(p, sol, *key)
    A, d = rs.drift(closed=True)
    J = chain_costs(_stacked([rs], ("Kz_nodes", "k_nodes")), A[:, None], d[:, None])
    return CostReport(agent_id=agent_id, value=float(J[0]), std_error=0.0,
                      method="moment_recursion", num_paths=0)


@dataclass
class ConvergenceStudy:
    rows: List[tuple]
    slope: float


def mean_field_convergence_study(p: MmMfgProblem, sol: MfgSolution,
                                 Ns: Sequence[int]) -> ConvergenceStudy:
    """RMS distance between empirical type averages and the mean field, exact.

    The RMS over nodes of S_k - xbar_k on simulate_population's chain,
    with the minors assigned by assign_types and xbar0 = 0, an empty
    type's average read as 0.  For each distinct N, ReducedPopulation's
    state (x0, xbar, S_1..S_K) runs its closed drift through
    discrete_chain_cost with the node weights 2 P'P / ((M + 1) w_j), P
    selecting S - xbar and w the trapezoid weights: J is the mean over
    nodes of E|S - xbar|^2, with no sampling error, and a diverging chain
    raises IntegrationDivergedError.  Returns rows (N, rms) in the order
    of Ns and the slope of log rms against log N, fitted once per distinct
    N (0.0 for fewer than two).
    """
    Ns = [_as_count(N, "Ns[%d]" % i, 1) for i, N in enumerate(Ns)]
    n, K, M = p.n, p.K, p.grid.num_steps
    sizes = sorted(set(Ns))
    rms = {}
    for N in sizes:
        rs = ReducedPopulation(p, sol, np.bincount(assign_types(p.pi, N), minlength=K),
                               None, np.zeros(n * K))
        A, d = rs.drift(closed=True)
        P = np.zeros((n * K, rs.D))
        P[:, rs.xb_off:rs.xb_off + n * K] = -np.eye(n * K)
        for k, o in enumerate(rs.S_off):
            if o is not None:
                P[k * n:(k + 1) * n, o:o + n] = np.eye(n)
        W = (2.0 / (M + 1) / trapezoid_weights(p.grid))[:, None, None, None] * (P.T @ P)
        J = discrete_chain_cost(p.grid, 0.0, rs.mu0[None], rs.V0[None], A[:, None],
                                d[:, None], rs.Sig2[None],
                                (W, np.zeros((M + 1, 1, rs.D, 1)), 0.0),
                                np.zeros((1, rs.D, rs.D)))
        # a sum of squares, which roundoff may leave a few ulps below 0
        rms[N] = math.sqrt(max(float(J[0]), 0.0))
    slope = 0.0
    if len(sizes) > 1:
        logr = np.log([max(rms[N], 1e-300) for N in sizes])
        slope = float(np.polyfit(np.log(sizes), logr, 1)[0])
    return ConvergenceStudy(rows=[(N, rms[N]) for N in Ns], slope=slope)
