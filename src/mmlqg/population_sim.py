"""Finite populations driven by the equilibrium feedback laws.

The simulator runs N minor agents plus the major agent under Euler,
Maruyama on the solver grid.  Every feedback law reads the deterministic
internal mean-field state, advanced by the matching explicit Euler step
so that the whole population is one discrete-time linear Gaussian chain.
The simulator steps that chain on the drift of the population's
aggregate record (ReducedPopulation, below): x0 and the mean field on
their rows, and each minor on its type's mean's rows plus its own
closed loop on its deviation from that mean, the closed-loop blocks
coming from mfg_model.minor_closed_loop as the record's do.  One stepper,
_Population.advance, moves a stack of paths at once, minors in agent
order on the last axis, each gathering its type's coefficients;
DRAW_BUDGET bounds the raw draws held, each step's noise is formed when
the step is taken and the states are written in place.  Each
(master_seed, stream, path) is one Philox stream, and one call draws
every agent's block of it (_draws).  A run keeps the states, the type
means and the mean field; the controls and the population average each
drift reads are functions of those and are not stored.
Expected costs come exactly, by propagating the second moment of that
same chain on z = (y; 1), the precise expectation of the pathwise cost
of simulated paths.  Like the simulator, which reads the record's drift
at node j, the exact route reads node tables only: the reduced state's
drift F = [[A, d], [0, 0]] and the agent's law Kz = [K, -k], with its
running cost weight from lqg_single's one policy quadratic.  One
record, ReducedPopulation, serves that cost and nash_gap's deviator; its
agent's weights come from mfg_model.lift_tracking, as every agent's.  Every exact cost runs on a
stack of records of one dimension (_stacked), a single one included.
The convergence study runs the same recursion on the population's
aggregate record, so its RMS is exact too and nothing in it is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from .errors import DivergedPathError, IntegrationDivergedError, SchemaError
from .lqg_single import (ExtendedSystem, _as_matrix, _dots, _homogeneous,
                          _policy_quadratic, _stage_values, psd_sqrt)
from .mfg_model import MmMfgProblem, lift_tracking, minor_closed_loop
from .mfg_solver import MfgSolution
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
    try:
        out = np.empty(N, dtype=np.int64)
    except MemoryError:
        raise SchemaError("N = %d minors: their %d bytes of type indices do not fit in "
                          "memory" % (N, 8 * N)) from None
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
    so every agent's value depends on its own column alone.  A is
    (R, L, 1), shared, or (R, L, N), agent a's matrix A[..., a]."""
    out = np.multiply(A[:, 0], X[..., :1, :], out=out)
    for col in range(1, A.shape[1]):
        out += A[:, col] * X[..., col:col + 1, :]
    return out


def _chunks(p: MmMfgProblem, count: int, total: int):
    """Ranges [a, b) of total paths whose draws dW, count x M x r doubles
    a path for agents 0..count-1, fit DRAW_BUDGET; one path at least."""
    per = max(1, DRAW_BUDGET // (8 * count * p.grid.num_steps * p.r))
    return [(a, min(a + per, total)) for a in range(0, total, per)]


class _Population:
    """Closed-loop node tables of one (problem, solution, type counts),
    shared by every path run on them: the drift F of the population's
    aggregate record y = (x0, xbar, S_k of each non-empty type; 1), and
    per type on the last axis each minor's own closed loop and sigma_k."""

    def __init__(self, p: MmMfgProblem, sol: MfgSolution, counts, xbar0: np.ndarray):
        self.p = p
        self.sqrt0 = psd_sqrt(p.init_cov_major)
        self.sqrtm = psd_sqrt(p.init_cov_minor)[..., None]
        self.xbar0 = xbar0
        self.record = ReducedPopulation(p, sol, counts, None, xbar0)
        self.F = self.record.drift(closed=True)
        self.closed = np.stack([minor_closed_loop(mn, law)[0]
                                for mn, law in zip(p.minors, sol.minor_laws)], -1)
        self.sigma = np.stack([mn.sigmak for mn in p.minors], -1)

    def sample(self, streams, N: int):
        """Initial states and raw Brownian draws of the paths (master_seed,
        path) in streams: x0 (S, n), the minors' X (S, n, N) in agent order,
        and dW (S, N + 1, M, r) of agents 0..N, filled in place.  Each value
        reads its own agent's draws alone."""
        p = self.p
        S = len(streams)
        x0 = np.empty((S, p.n))
        X = np.empty((S, p.n, N))
        dW = np.empty((S, N + 1, p.grid.num_steps, p.r))
        for s, (seed, path) in enumerate(streams):
            xi = _draws(seed, 1, path, N + 1, (p.n,))
            _draws(seed, 0, path, N + 1, dW.shape[2:], out=dW[s])
            # + 0.0 turns the -0.0 of a zero product into 0.0, and so a state
            # at rest stays 0.0 whatever the sign of its zero terms
            x0[s] = matvec_rows(self.sqrt0, xi[0]) + 0.0
            X[s] = _cols(self.sqrtm, xi[1:].T) + 0.0
        return x0, X, dW

    def noise(self, dW, sigma, j):
        """Noise terms sqrt(h) sigma dW of step j, formed when the step is
        taken: the major's (S, n) and the minors' (S, n, N), sigma (n, r, N)
        holding each minor's sigma_k."""
        sqh = math.sqrt(self.p.grid.h)
        return (sqh * matvec_rows(self.p.major.sigma0, dW[:, 0, j]),
                sqh * _cols(sigma, dW[:, 1:, j].swapaxes(-1, -2)))

    def advance(self, streams, type_of: np.ndarray, states=None):
        """Euler-Maruyama runs of the paths (master_seed, path) in streams,
        stacked, of the minors type_of.

        Each step forms the record's state y from x0, xbar and the type
        means S_k, and takes its drift F[j] y once: x0 and xbar step on
        their rows, and each minor on its type's S_k rows plus its own
        closed loop on x_i - S_k.  The minors sit in agent order, agents
        last, and each reads its type's rows, closed loop and sigma by a
        gather on type_of.  Every product is a matvec_rows or _cols, so no
        path depends on the others.  Returns node tables (S, M + 1, .) of
        the type means (zero if a type is empty) and the mean field, and
        writes the states into states (S, M + 1, N + 1, n) if given.
        Raises DivergedPathError for the first path to leave the finite
        range."""
        p, rec = self.p, self.record
        n, K = p.n, p.K
        M, h, S = p.grid.num_steps, p.grid.h, len(streams)
        ids = [np.flatnonzero(type_of == k) for k in range(K)]
        y = np.zeros((S, rec.D + 1))
        y[:, :n], X, dW = self.sample(streams, type_of.size)
        y[:, rec.xb_off:rec.xb_off + n * K] = self.xbar0
        y[:, -1] = 1.0
        sigma = self.sigma[..., type_of]
        # y's rows of each minor's type mean, (n, N); an empty type has none
        rows = np.array([o or 0 for o in rec.S_off])[type_of] + np.arange(n)[:, None]
        top = rec.xb_off + n * K      # the rows of x0 and xbar
        emp_types = np.empty((S, M + 1, n * K))
        emp = emp_types.reshape(S, M + 1, K, n)
        xbar_out = np.empty((S, M + 1, n * K))
        first_bad = np.full(S, M + 1)
        # overflow in a diverging path is expected; the finite check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(M + 1):
                for k, ix in enumerate(ids):
                    # an empty type's mean is the 0.0 of an empty sum
                    emp[:, j, k] = X.take(ix, -1).sum(-1) / max(ix.size, 1)
                    if ix.size:
                        y[:, rec.S_off[k]:rec.S_off[k] + n] = emp[:, j, k]
                xbar_out[:, j] = y[:, rec.xb_off:top]
                if states is not None:
                    states[:, j, 0] = y[:, :n]
                    states[:, j, 1:] = X.swapaxes(-1, -2)
                if j == M:
                    break
                Fy = matvec_rows(self.F[j], y)
                noise0, noise = self.noise(dW, sigma, j)
                X = X + h * (Fy[:, rows] + _cols(self.closed[j][..., type_of], X - y[:, rows])) \
                    + noise
                y[:, :top] += h * Fy[:, :top]
                y[:, :n] += noise0
                if not (np.isfinite(y).all() and np.isfinite(X).all()):
                    fine = np.isfinite(y).all(-1) & np.isfinite(X).all((1, 2))
                    first_bad[~fine] = np.minimum(first_bad[~fine], j + 1)
        if (first_bad <= M).any():
            s = int(np.argmax(first_bad <= M))
            path, node = streams[s][1], int(first_bad[s])
            raise DivergedPathError("simulation diverged on path %d at node %d"
                                    % (path, node), path=path, node=node)
        return emp_types, xbar_out


def empty_trajectories(p: MmMfgProblem, cfg: PopulationConfig) -> TrajectoryBundle:
    """The type assignment and the unfilled arrays of a simulate_population
    run: a size that cannot be held fails here, before any solve."""
    n, K = p.n, p.K
    P, M = cfg.num_paths, p.grid.num_steps
    type_of = _type_of(p, cfg)
    return TrajectoryBundle(
        grid=p.grid, type_of=type_of, counts=np.bincount(type_of, minlength=K),
        states=np.empty((P, M + 1, cfg.N + 1, n)) if cfg.record_states else None,
        xbar=np.empty((P, M + 1, n * K)), empirical_types=np.empty((P, M + 1, n * K)))


def simulate_population(p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                        out: Optional[TrajectoryBundle] = None) -> TrajectoryBundle:
    """Euler-Maruyama run of the closed-loop population, written into out,
    empty_trajectories(p, cfg) by default, and returned.

    Per step: the type means are formed at the current node, then agents,
    major and the internal mean field all move by one explicit Euler step
    on the aggregate record's node-j drift.  Noise comes from one
    counter-based stream per (master_seed, stream, path), agent a taking
    its a-th consecutive block, so output is independent of scheduling
    and the first agents' draws are shared across different N.  Paths
    step together through the one stepper in stacks that fit
    DRAW_BUDGET, minors in agent order on the last axis, each reading its
    type's coefficients; the stepper writes the states in place, and no
    path depends on the stacking.
    """
    run = empty_trajectories(p, cfg) if out is None else out
    pop = _Population(p, sol, run.counts, _initial_mean_field(p, cfg))
    for a, b in _chunks(p, cfg.N + 1, cfg.num_paths):
        run.empirical_types[a:b], run.xbar[a:b] = pop.advance(
            [(cfg.master_seed, i) for i in range(a, b)], run.type_of,
            None if run.states is None else run.states[a:b])
    return run


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
    mfg_model.lift_tracking of C, as for every agent of the game.  Costs
    run on z = (y; 1): F_nodes tabulates dz = F z dt with the agent's rows
    uncontrolled, its input entering through Bz, zero outside its own
    rows (the first n); Kz_nodes, its own law lifted, u = -Kz_nodes[j] z;
    Z0 = E z(0)z(0)'; S, the noise of z.  F and Kz are those tables at the
    stages, formed on each read.  The tables are shared: treat them as
    read-only.
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
            self.C = x0_sel - mj.H0 @ avg
            self.eta, self.Q, self.Ncr, self.R = mj.eta0, mj.Q0, mj.N0, mj.R0
            self.Qhat, self.B_own = mj.Qhat0, mj.B0
        else:
            mn, law = p.minors[own_type], sol.minor_laws[own_type]
            self.C = eye[:n] - mn.Hk @ x0_sel - mn.Hhatk @ avg
            self.eta, self.Q, self.Ncr, self.R = mn.etak, mn.Qk, mn.Nk, mn.Rk
            self.Qhat, self.B_own = mn.Qhatk, mn.Bk
        self.c0 = (self.eta.T @ self.Q @ self.eta).item()
        self.Kz_nodes = np.concatenate([law.K.values @ eye[:self.xb_off + n * K],
                                        -law.k.values], -1)

        covm = p.init_cov_minor
        noise = [(self.x0_off, p.major.sigma0, p.init_cov_major, 1)]
        if own_type is not None:
            noise.append((0, p.minors[own_type].sigmak, covm, 1))
        noise += [(o, p.minors[k].sigmak, covm, counts[k])
                  for k, o in enumerate(self.S_off) if o is not None]
        # E z is nonzero on xbar and 1 alone, off the covariance blocks
        self.S = np.zeros((self.D + 1, self.D + 1))
        zbar = np.zeros((self.D + 1, 1))
        zbar[self.xb_off:self.xb_off + n * K, 0], zbar[-1] = xbar0, 1.0
        self.Z0 = zbar @ zbar.T
        for o, sig, cov, c in noise:
            r = slice(o, o + n)
            self.S[r, r] = symmetrize(sig @ sig.T) / c   # exact, for the moment sweep
            self.Z0[r, r] = cov / c

    # formed on first read: the convergence study reads none of them
    weights = cached_property(lambda self: lift_tracking(
        self.C, self.Qhat, self.Q, self.Ncr, self.R, self.eta))
    Bz = cached_property(lambda self: np.vstack(
        [self.B_own, np.zeros((self.D + 1 - self.n, self.m))]))
    F_nodes = cached_property(lambda self: self.drift(closed=False))

    # the node tables at the stages, formed where a sweep reads them
    F = property(lambda self: _stage_values(self.F_nodes))
    Kz = property(lambda self: _stage_values(self.Kz_nodes))

    def _agent(self) -> ExtendedSystem:
        """The agent as the record every solver reads, the same as
        LqgProblem._agent(): A and b sliced out of the open drift F_nodes,
        B out of Bz, and its lifted weights."""
        grid, D = self.p.grid, self.D
        return ExtendedSystem(what="deviator", A=GridFunction(grid, self.F_nodes[:, :D, :D]),
                              B=self.Bz[:D], b=GridFunction(grid, self.F_nodes[:, :D, D:]),
                              **self.weights)

    def drift(self, closed: bool):
        """Node table F = [[A, d], [0, 0]] of dz = F z dt on z = (y; 1),
        j = 0..M, for dy = (A y + d) dt.

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
            own, on_x0, on_xbar, offset = minor_closed_loop(mn, laws[k]) if on_law \
                else (mn.Ak, mn.Gk, 0.0, mn.bk.values)
            A[:, r] += mn.Fk @ self.avg
            A[:, r, r] += own
            A[:, r, x0] += on_x0
            A[:, r, xb] += on_xbar
            d[:, r] = offset
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
        return _homogeneous(A, d)


def _stacked(records: Sequence[ReducedPopulation], tables: Sequence[str]) -> SimpleNamespace:
    """The arrays of records of one dimension D as one record's: the named
    stage or node tables with a member axis after their first axis, Bz, Z0,
    S and the weights with one in front, and c0 as an (L, 1, 1) column.
    The cost routines read it as they read one record."""
    return SimpleNamespace(
        p=records[0].p, c0=np.reshape([r.c0 for r in records], (-1, 1, 1)),
        weights={key: np.stack([r.weights[key] for r in records]) for key in records[0].weights},
        **{name: np.stack([getattr(r, name) for r in records], int(name in tables))
           for name in [*tables, "Bz", "Z0", "S"]})


def chain_costs(js: SimpleNamespace, F) -> np.ndarray:
    """Expected costs of the stacked records' own equilibrium laws on the
    Euler chains of the node drift table F, by one discrete_chain_cost; js
    stacks Kz_nodes."""
    w = js.weights
    W = _policy_quadratic(w["Q"], w["N"], w["R"], w["eta"], w["nbar"], js.c0, js.Kz_nodes)
    return discrete_chain_cost(js.p.grid, js.p.rho, js.Z0, F, js.S, W,
                               _homogeneous(w["Qhat"], 0.0))


def discrete_chain_cost(grid, rho, Z0, F, S, W, W_T):
    """Expected cost of the Euler-Maruyama chain z_{j+1} = P_j z_j +
    sqrt(h) noise on z = (y; 1), P_j = I + h F[j], F = [[A, d], [0, 0]].

    Its second moment Z = E zz' steps Z <- P Z P' + h S from Z0; the
    running cost is the trapezoid sum of the discounted (1/2) tr(W[j] Z_j),
    and the terminal cost the discounted form of W_T.  F and W are tables
    over the M + 1 nodes.  This is the exact expectation of the simulated
    pathwise cost, with its O(h) discretization bias and no sampling error.

    Z0 (L, D + 1, D + 1) stacks L chains, each rounded as alone: tables
    carry a member axis after the node axis, S and W_T one in front, and
    L costs return; one chain is a one-member stack.  Finiteness is
    checked once, on the node tables after the loop; a divergence names
    the lowest-index member that left the finite range, at its first
    non-finite node.
    """
    M, h, eye = grid.num_steps, grid.h, np.eye(Z0.shape[-1])
    Z = np.empty((M + 1,) + Z0.shape)
    Z[0] = Z0
    # overflow in a diverging chain is expected; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(M):
            P = eye + h * F[j]
            Z[j + 1] = symmetrize(P @ Z[j] @ P.swapaxes(-1, -2) + h * S)
    finite = np.isfinite(Z[1:]).all((2, 3))
    if not finite.all():
        member = int(np.argmin(finite.all(0)))
        j = int(np.argmin(finite[:, member])) + 1
        raise IntegrationDivergedError("moment recursion diverged at node %d" % j,
                                       node=j, time=grid.nodes[j], member=member)
    disc = np.exp(-rho * grid.nodes)
    running = (0.5 * trapezoid_weights(grid) * disc)[:, None] * _dots(W, Z)
    # summed node by node, in order
    return np.add.accumulate(running)[-1] + 0.5 * disc[M] * _dots(W_T, Z[M])


def expected_cost_exact(p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                        agent_id: int) -> CostReport:
    """Exact expected equilibrium cost by moment recursion on the reduced
    state, every block, the agent's own included, closed directly."""
    agent_id, *key = _agent_key(p, cfg, agent_id)
    rs = ReducedPopulation(p, sol, *key)
    J = chain_costs(_stacked([rs], ("Kz_nodes",)), rs.drift(closed=True)[:, None])
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
        P = np.zeros((n * K, rs.D + 1))
        P[:, rs.xb_off:rs.xb_off + n * K] = -np.eye(n * K)
        for k, o in enumerate(rs.S_off):
            if o is not None:
                P[k * n:(k + 1) * n, o:o + n] = np.eye(n)
        W = (2.0 / (M + 1) / trapezoid_weights(p.grid))[:, None, None, None] * (P.T @ P)
        J = discrete_chain_cost(p.grid, 0.0, rs.Z0[None], rs.drift(closed=True)[:, None],
                                rs.S[None], W, np.zeros((1, rs.D + 1, rs.D + 1)))
        # a sum of squares, which roundoff may leave a few ulps below 0
        rms[N] = math.sqrt(max(float(J[0]), 0.0))
    slope = 0.0
    if len(sizes) > 1:
        logr = np.log([max(rms[N], 1e-300) for N in sizes])
        slope = float(np.polyfit(np.log(sizes), logr, 1)[0])
    return ConvergenceStudy(rows=[(N, rms[N]) for N in Ns], slope=slope)
