"""Test-only oracles: time-callback RK4 sweeps, the dense finite-N joint
system and its routes, the Monte Carlo cost and the RK4 mean field of
simulated paths, one-member stacks of the package's cost propagators,
and the slow forms of the simulator's noise and of the CSV writer.

The package steps every ODE through one stage-indexed RK4 loop; the
sweeps here take the right-hand side as a function of time and carry
their own stepping loops, so they are an independent reference for it.
nash_gap works on the exact reduced state (x_dev, x0, xbar, S_1..S_K).
The dense assembly here keeps every agent's state, costs O(N^3) per step
and serves small N as the reference the reduced system must match; its
simulator cross-check steps the whole population by the dense joint
matrices, the reference for the simulator's per-agent gathers.  The
chain best response and the perturbed-cost route run on either system;
the block slicers read the minor Riccati and cross-weight blocks.
_stream (one generator per path, drawn one agent's block at a time),
held_noise (every step's noise terms formed up front per type, by its
own column loop) and write_csv_rows (one row at a time) are what the
package's one-call draws, per-step noise and block writer must
reproduce bit for bit, and empirical_mean_field recomputes the
simulator's per-type averages from its recorded states.
finite_cost_monte_carlo averages the pathwise cost over simulated paths,
the estimate whose expectation expected_cost_exact is, as
mean_square_deviation_monte_carlo estimates what the convergence study
computes exactly, and
mean_field_trajectory integrates the mean field along a major-state path
by RK4, where the simulator takes Euler steps.  one_loop_costs and
one_chain_cost run one closed loop or chain through the stacked
propagators, and undeviated_cost is the assembly check's chain of one
record, reduced or dense.  schur_are is
the discounted ARE solver the package's sign-function solver replaced:
scipy's Schur method on the shifted drift with the same Newton-Kleinman
polish and gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.linalg

from mmlqg.errors import (
    AreSolveError,
    AssumptionViolationError,
    DimensionGuardError,
    IntegrationDivergedError,
    RiccatiBlowupError,
    SchemaError,
)
from mmlqg.lqg_single import (PSD_TOL, ExtendedSystem, ValidationReport,
                              _are_residual, _as_grid_function, _as_matrix, _homogeneous,
                              _policy_quadratic, _stage_values, add_convexity_checks,
                              closed_loop_cost_moments, psd_sqrt, spd_solver)
from mmlqg.mfg_model import MmMfgProblem
from mmlqg.mfg_solver import MfgSolution
from mmlqg.nash_gap import _closed_loop_cost
from mmlqg.numerics import (GridFunction, TimeGrid, _as_count, matvec_rows,
                            rk4_forward_indexed, symmetrize, trapezoid_weights)
from mmlqg.population_sim import (
    CostReport,
    PopulationConfig,
    TrajectoryBundle,
    _stacked,
    assign_types,
    discrete_chain_cost,
    simulate_population,
)


def _stream(master_seed: int, stream: int, path: int) -> np.random.Generator:
    """A fresh generator for one (stream, path): agent a's draws are its
    a-th consecutive block, the definition population_sim._draws must
    reproduce."""
    # counter word 0 is the draw counter; the path word keeps paths disjoint
    key = np.array([master_seed, stream], dtype=np.uint64)
    counter = np.array([0, path, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def held_noise(p: MmMfgProblem, streams, ids):
    """Noise terms sqrt(h) sigma dW of every step, held at once, on the
    paths (master_seed, path) in streams: the major's noise0 (S, M, n)
    and, per type on the columns of agent ids[k], noise[k] (S, M, n, C_k).
    The simulator once sampled them so; it now forms step j's for every
    agent when it takes that step, and must form these values bit for
    bit.  Each is sqrt(h) times the sum over sigma_k's columns, in column
    order, of column times draw: the order the simulator's products keep."""
    n, M, S = p.n, p.grid.num_steps, len(streams)
    sqh = math.sqrt(p.grid.h)
    count = 1 + max(int(ix.max(initial=0)) for ix in ids)
    noise0 = np.empty((S, M, n))
    noise = [np.empty((S, M, n, ix.size)) for ix in ids]
    for s, (seed, path) in enumerate(streams):
        dW = _stream(seed, 0, path).standard_normal((count, M, p.r))
        noise0[s] = sqh * matvec_rows(p.major.sigma0, dW[0])
        for k, ix in enumerate(ids):
            sigma, W = p.minors[k].sigmak, dW[ix].transpose(1, 2, 0)   # W (M, r, C_k)
            term = sigma[:, :1] * W[:, :1]
            for col in range(1, p.r):
                term = term + sigma[:, col:col + 1] * W[:, col:col + 1]
            noise[k][s] = sqh * term
    return noise0, noise


def write_csv_rows(path, header, rows):
    """The CSV writer the package's vectorised one replaced, row by row:
    integers by str, every other number as %.17g."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(cell) if isinstance(cell, (int, np.integer))
            else "%.17g" % float(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n")


def one_loop_costs(grid, rho, Z0, F, S, costs) -> list:
    """closed_loop_cost_moments of one closed loop as a one-member stack:
    the list of its costs."""
    return closed_loop_cost_moments(
        grid, rho, Z0[None], F[:, None], S[:, None],
        [(W[:, None], W_T[None]) for W, W_T in costs])[0].tolist()


def one_chain_cost(grid, rho, Z0, F, S, W, W_T) -> float:
    """discrete_chain_cost of one chain as a one-member stack."""
    return float(discrete_chain_cost(
        grid, rho, Z0[None], F[:, None], S[None], W[:, None], W_T[None])[0])


def undeviated_cost(js) -> float:
    """Equilibrium chain cost of one record, reduced or dense, through its
    assembly: the open drift closed by Bz and the lifted gain table at the
    nodes.  nash_gap's assembly check compares this chain with the one on
    the record's own closed drift, expected_cost_exact's."""
    Kz, w = js.Kz[::2], js.weights
    W = _policy_quadratic(w["Q"], w["N"], w["R"], w["eta"], w["nbar"], js.c0, Kz)
    return one_chain_cost(js.p.grid, js.p.rho, js.Z0, js.F[::2] - js.Bz @ Kz, js.S, W,
                          _homogeneous(w["Qhat"], 0.0))


def policy_cost(js, Kz: np.ndarray) -> float:
    """Exact deviator cost of u = -Kz[q] z (a stage table on z = (y; 1))
    on one record, reduced or dense, as a one-member stack."""
    one = _stacked([js], ("F",))
    return float(_closed_loop_cost(one, Kz[:, None])[0, 0])


def finite_cost_monte_carlo(p: MmMfgProblem, sol: MfgSolution, bundle: TrajectoryBundle,
                            agent_id: int) -> CostReport:
    """Pathwise trapezoid cost of one agent, averaged across paths.

    The agent's control is its law at the recorded states,
    u = k[j] - K[j] (x; x0; xbar), the major's acting on (x0; xbar), and
    x^(N) is the counts-weighted sum of the recorded type means."""
    if bundle.states is None:
        raise SchemaError("bundle was recorded without states; rerun with record_states")
    agent_id = _as_count(agent_id, "agent_id", 0, bundle.N + 1)
    grid = bundle.grid
    w = trapezoid_weights(grid)
    disc = np.exp(-p.rho * grid.nodes)
    x = bundle.states[:, :, agent_id, :]
    x0 = bundle.states[:, :, 0, :]
    n = p.n
    xN = sum((c / bundle.N) * bundle.empirical_types[..., k * n:(k + 1) * n]
             for k, c in enumerate(bundle.counts))
    law = sol.major_law if agent_id == 0 \
        else sol.minor_laws[int(bundle.type_of[agent_id - 1])]
    z = np.concatenate(([] if agent_id == 0 else [x]) + [x0, bundle.xbar], -1)
    u = law.k.values[:, :, 0] - np.einsum("jab,pjb->pja", law.K.values, z)
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


def mean_square_deviation_monte_carlo(p: MmMfgProblem, sol: MfgSolution, N: int,
                                      master_seed: int, num_paths: int) -> tuple:
    """Monte Carlo estimate of the convergence study's RMS^2 at N and its
    standard error: one simulate_population run, each path its own Philox
    stream, and per path the node mean of |S - xbar|^2."""
    b = simulate_population(p, sol, PopulationConfig(
        N=N, master_seed=master_seed, num_paths=num_paths, record_states=False))
    dev = b.empirical_types - b.xbar
    per_path = np.mean(np.sum(dev * dev, axis=-1), axis=-1)
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(num_paths))


def mean_field_trajectory(sol: MfgSolution, x0_path: GridFunction,
                          xbar0: Optional[np.ndarray] = None) -> GridFunction:
    """Forward mean field from xbar0 (default zero), driven by a major-state
    path on the solution's grid, by RK4."""
    p = sol.problem
    x0_path = _as_grid_function("x0_path", x0_path, p.grid, p.n, 1)
    xb = _as_matrix("xbar0", xbar0, p.n * p.K, 1)
    Ab_st = _stage_values(sol.mf_law.Abar)
    Gb_st = _stage_values(sol.mf_law.Gbar)
    mb_st = _stage_values(sol.mf_law.mbar)
    # the x0 path is linear between nodes, so its midpoints are node averages
    x0_st = _stage_values(x0_path)

    def stage_rhs(q, y):
        return Ab_st[q] @ y + Gb_st[q] @ x0_st[q] + mb_st[q]

    return rk4_forward_indexed(stage_rhs, xb, p.grid)


def _check_finite(Y: np.ndarray, node: int, t: float, what: str):
    if not np.all(np.isfinite(Y)):
        raise IntegrationDivergedError(
            "%s produced a non-finite value at node %d (t = %.12g)"
            % (what, node, t),
            node=node,
            time=t,
        )


def integrate_backward(rhs, terminal, grid: TimeGrid, project=None) -> GridFunction:
    """Classic RK4 sweep of dY/dt = rhs(t, Y) from t_end down to 0.

    terminal is stored at the last node exactly.  project, if given, is
    applied to the state after every completed step.  A non-finite value
    raises IntegrationDivergedError naming the node.
    """
    Y = np.atleast_2d(np.asarray(terminal, dtype=float)).copy()
    h = grid.h
    M = grid.num_steps
    out = np.empty((M + 1,) + Y.shape)
    out[M] = Y
    t = grid.t_end
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(M - 1, -1, -1):
            k1 = rhs(t, Y)
            k2 = rhs(t - 0.5 * h, Y - 0.5 * h * k1)
            k3 = rhs(t - 0.5 * h, Y - 0.5 * h * k2)
            k4 = rhs(t - h, Y - h * k3)
            Y = Y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if project is not None:
                Y = project(Y)
            _check_finite(Y, j, t - h, "backward integration")
            out[j] = Y
            t -= h
    return GridFunction(grid, out)


def integrate_forward(rhs, initial, grid: TimeGrid, project=None) -> GridFunction:
    """Classic RK4 sweep of dY/dt = rhs(t, Y) from 0 up to t_end.

    Mirror of integrate_backward; initial is stored at node 0 exactly.
    """
    Y = np.atleast_2d(np.asarray(initial, dtype=float)).copy()
    h = grid.h
    M = grid.num_steps
    out = np.empty((M + 1,) + Y.shape)
    out[0] = Y
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, M + 1):
            k1 = rhs(t, Y)
            k2 = rhs(t + 0.5 * h, Y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, Y + 0.5 * h * k2)
            k4 = rhs(t + h, Y + h * k3)
            Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if project is not None:
                Y = project(Y)
            _check_finite(Y, j, t + h, "forward integration")
            out[j] = Y
            t += h
    return GridFunction(grid, out)


@dataclass
class DenseJointSystem:
    """Finite-N joint dynamics on z = (x^1..x^N, x0, xbar), dimension
    n(N+1) + nK, with every agent but the deviator closed.

    The dense counterpart of population_sim.ReducedPopulation, with the same
    attributes, so the package's cost and best-response routines run on
    either.  Agent ids follow the simulator: 0 is the major, 1..N the
    minors.  The deviator's rows stay uncontrolled; its input enters
    through Bz, which is zero outside the deviator's own block rows.  As
    there, costs run on the homogeneous state (z; 1): the open drift F =
    [[A, d], [0, 0]] and the deviator's lifted equilibrium law Kz = [K, -k]
    are tables over half-step stages q = 0..2M, assembled one stage at a
    time, Z0 is the initial second moment and S the noise.  Meant for
    N <= 8.
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

        # deviator's input matrix: zero outside its own block rows
        B_full = np.zeros((self.D, self.m))
        if self.deviator == 0:
            B_full[self.x0_off:self.x0_off + n] = p.major.B0
            mj = p.major
            self.C = self._own(self.x0_off) - mj.H0 @ self._avg()
            self.eta, self.Q = mj.eta0, mj.Q0
            self.Ncr, self.R, self.Qhat = mj.N0, mj.R0, mj.Qhat0
            self.U = np.vstack([self._own(self.x0_off),
                                self._own(self.xb_off, n * K)])
        else:
            row = (self.deviator - 1) * n
            mn = p.minors[int(self.type_of[self.deviator - 1])]
            B_full[row:row + n] = mn.Bk
            self.C = self._own(row) - mn.Hk @ self._own(self.x0_off) \
                - mn.Hhatk @ self._avg()
            self.eta, self.Q = mn.etak, mn.Qk
            self.Ncr, self.R, self.Qhat = mn.Nk, mn.Rk, mn.Qhatk
            self.U = np.vstack([self._own(row), self._own(self.x0_off),
                                self._own(self.xb_off, n * K)])
        self.Bz = np.vstack([B_full, np.zeros((1, self.m))])

        Sig2 = np.zeros((self.D, self.D))
        for a in range(N):
            blk = p.minors[int(self.type_of[a])].sigmak
            r = slice(a * n, (a + 1) * n)
            Sig2[r, r] = blk @ blk.T
        x0r = slice(self.x0_off, self.x0_off + n)
        Sig2[x0r, x0r] = p.major.sigma0 @ p.major.sigma0.T
        self.S = _homogeneous(Sig2, 0.0)

        V0 = np.zeros((self.D, self.D))
        for a in range(N):
            r = slice(a * n, (a + 1) * n)
            V0[r, r] = p.init_cov_minor
        V0[x0r, x0r] = p.init_cov_major
        mean = np.zeros((self.D + 1, 1))
        mean[-1] = 1.0
        if cfg.xbar0 is not None:
            mean[self.xb_off:-1, 0] = cfg.xbar0
        self.Z0 = _homogeneous(V0, 0.0) + mean @ mean.T

        # z-space weights of the deviator's cost, control left free, under
        # the ExtendedSystem names of ReducedPopulation.weights
        C, eta = self.C, self.eta
        self.weights = dict(
            Q=symmetrize(C.T @ self.Q @ C),
            N=C.T @ self.Ncr,
            R=self.R,
            eta=C.T @ (self.Q @ eta),
            nbar=self.Ncr.T @ eta,
            # terminal weight applies to the coupled tracking error C z; the
            # constant target eta is a running-cost object (the backward
            # offset vanishes at T), so the terminal form carries no linear
            # piece
            Qhat=symmetrize(C.T @ self.Qhat @ C),
            Q_factor=psd_sqrt(self.Q) @ C,
        )
        self.c0 = (eta.T @ self.Q @ eta).item()

        stages = range(2 * p.grid.num_steps + 1)
        self.F = _homogeneous(np.array([self._open_drift(q) for q in stages]),
                              np.array([self._open_offset(q) for q in stages]))
        if self.deviator == 0:
            K_st, k_st = self._K0, self._k0
        else:
            k = int(self.type_of[self.deviator - 1])
            K_st, k_st = self._Kk[k], self._kk[k]
        self.Kz = np.concatenate([K_st @ self.U, -k_st], -1)

    def _agent(self) -> ExtendedSystem:
        """The deviator's agent record, as ReducedPopulation._agent()
        builds it, from the node tables: the stage tables' even stages."""
        grid, D = self.p.grid, self.D
        return ExtendedSystem(
            what="deviator", A=GridFunction(grid, self.F[::2, :D, :D]), B=self.Bz[:D],
            b=GridFunction(grid, self.F[::2, :D, D:]), **self.weights,
        )

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

    def _open_drift(self, q: int) -> np.ndarray:
        """Joint drift matrix at stage q with the deviator's rows uncontrolled."""
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
        return A

    def _open_offset(self, q: int) -> np.ndarray:
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
        return d

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
            xbar0=cfg.xbar0, record_states=True,
        )
        bundle = simulate_population(p, self.sol, rcfg)
        sqrt0, sqrtm = psd_sqrt(p.init_cov_major), psd_sqrt(p.init_cov_minor)
        gap = 0.0
        eye = np.eye(self.D + 1)
        for path in range(num_paths):
            # agent by agent, in agent order: the major's block, then minors 1..N
            z = np.zeros((self.D + 1, 1))
            z[-1] = 1.0
            init = _stream(cfg.master_seed, 1, path)
            z[self.x0_off:self.x0_off + n, 0] = sqrt0 @ init.standard_normal(n)
            for a in range(N):
                z[a * n:(a + 1) * n, 0] = sqrtm @ init.standard_normal(n)
            if cfg.xbar0 is not None:
                z[self.xb_off:-1, 0] = cfg.xbar0
            incr = _stream(cfg.master_seed, 0, path)
            dW0 = incr.standard_normal((M, p.r))
            dWm = [incr.standard_normal((M, p.r)) for _ in range(N)]
            for j in range(M + 1):
                ref = np.concatenate([
                    bundle.states[path, j, 1:].reshape(-1),
                    bundle.states[path, j, 0],
                    bundle.xbar[path, j],
                ])
                gap = max(gap, float(np.max(np.abs(z[:-1, 0] - ref))))
                if j == M:
                    break
                q = 2 * j
                z = (eye + h * (self.F[q] - self.Bz @ self.Kz[q])) @ z
                for a in range(N):
                    sig = self.p.minors[int(self.type_of[a])].sigmak
                    z[a * n:(a + 1) * n, 0] += sqh * (sig @ dWm[a][j])
                z[self.x0_off:self.x0_off + n, 0] += \
                    sqh * (self.p.major.sigma0 @ dW0[j])
        return gap


def best_response_perturbed_cost(js, br, eps: float, omega: np.ndarray) -> float:
    """Exact cost of u = u_br + eps * omega (constant direction omega)."""
    omega = np.asarray(omega, dtype=float).reshape(js.m, 1)
    k = br.law.k.values + eps * omega
    return policy_cost(js, _stage_values(np.concatenate([br.law.K.values, -k], -1)))


@dataclass
class BestResponseChain:
    """Exact dynamic-programming optimum of the simulated chain.

    Node-indexed law u_j = -K[j] z_j + k[j].  Because the
    optimization and the cost share the very chain the simulator steps,
    cost can never exceed the chain cost of the equilibrium law; this
    pins the gap sign independently of any integrator.
    """

    K: np.ndarray                # (M+1, m, D)
    k: np.ndarray                # (M+1, m, 1)
    cost: float                  # exact chain cost by moment recursion
    cost_dp: float               # same value from the backward recursion
    diagnostics: Dict[str, float] = field(default_factory=dict)


def solve_best_response_chain(js) -> BestResponseChain:
    rep = ValidationReport()
    add_convexity_checks(rep, "deviator ", js.Qhat, js.Q, js.Ncr, js.R, PSD_TOL)
    rep.require()
    p = js.p
    grid = p.grid
    M, h = grid.num_steps, grid.h
    w = trapezoid_weights(grid)
    disc = np.exp(-p.rho * grid.nodes)
    D, m = js.D, js.m
    F, Bt, Sig2 = js.F, h * js.Bz[:D], js.S[:D, :D]
    wts = js.weights
    W, S, R = wts["Q"], wts["N"], wts["R"]
    lvec, rvec, cconst = -wts["eta"], -wts["nbar"], js.c0
    P = disc[M] * wts["Qhat"]
    q_lin = np.zeros((D, 1))
    v = 0.0

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
            Ptr = np.eye(D) + h * F[2 * j, :D, :D]
            cj = h * F[2 * j, :D, D:]
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
                + (q_lin.T @ cj).item() + 0.5 * h * np.tensordot(P, Sig2) \
                - 0.5 * (g.T @ fj).item()
            q_lin = a_j * lvec + Ptr.T @ Pc_q - Gz.T @ fj
            P = symmetrize(a_j * W + Ptr.T @ P @ Ptr - Gz.T @ Fj)
            if not (np.all(np.isfinite(P)) and np.all(np.isfinite(q_lin))):
                raise RiccatiBlowupError(
                    "joint chain recursion diverged at node %d" % j,
                    node=j, time=grid.nodes[j],
                )

    # E y y' = V0 + mu0 mu0' is the leading block of Z0
    cost_dp = 0.5 * np.tensordot(P, js.Z0[:D, :D]) + (q_lin.T @ js.Z0[:D, D:]).item() + v

    Kz = np.concatenate([gains, ffs], -1)   # u = -gains z - ffs
    W_run = _policy_quadratic(W, S, R, wts["eta"], wts["nbar"], cconst, Kz)
    cost = one_chain_cost(grid, p.rho, js.Z0, F[::2] - js.Bz @ Kz, js.S, W_run,
                          _homogeneous(wts["Qhat"], 0.0))
    return BestResponseChain(
        K=gains, k=-ffs,
        cost=cost, cost_dp=cost_dp,
        diagnostics={"route_mismatch": abs(cost - cost_dp)},
    )


def extract_pi_blocks(Pik: np.ndarray, n: int, K: int):
    """First block row of the minor Riccati matrix: (11, 12, 13) slices."""
    d = 2 * n + n * K
    if Pik.shape != (d, d):
        raise DimensionGuardError(
            "Pik has shape %s, expected (%d, %d)" % (Pik.shape, d, d)
        )
    return (
        Pik[:n, :n].copy(),
        Pik[:n, n:2 * n].copy(),
        Pik[:n, 2 * n:].copy(),
    )


def split_cross_blocks(Nkext: np.ndarray, n: int, K: int):
    """Row blocks of the extended cross weight: (11, 21, 31)."""
    d = 2 * n + n * K
    if Nkext.shape[0] != d:
        raise DimensionGuardError(
            "Nkext has %d rows, expected %d" % (Nkext.shape[0], d)
        )
    return (
        Nkext[:n].copy(),
        Nkext[n:2 * n].copy(),
        Nkext[2 * n:].copy(),
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


def schur_are(A, B, Q, N, R, rho):
    """Stabilizing discounted ARE solution by the Schur method (Arnold &
    Laub 1984) on A - (rho/2) I, then up to three Newton-Kleinman steps
    through scipy's Lyapunov solver.  Returns (Pi, residual norm); raises
    AreSolveError where solve_discounted_are's gates would reject Pi.
    """
    n = A.shape[0]
    rinv = spd_solver(R)
    try:
        # no balancing: it breaks down on tiny (e.g. subnormal) weights
        Pi = scipy.linalg.solve_continuous_are(
            A - 0.5 * rho * np.eye(n), B, symmetrize(Q), symmetrize(R), s=N,
            balanced=False)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise AreSolveError("Schur solve failed: %s" % exc) from exc

    def closed_loop(Pi):
        return A - B @ rinv(B.T @ Pi + N.T) - 0.5 * rho * np.eye(n)

    for _ in range(3):
        F = _are_residual(Pi, A, B, Q, N, rinv, rho)
        if float(np.linalg.norm(F)) < 1e-13:
            break
        A_c = closed_loop(Pi)
        if np.max(np.linalg.eigvals(A_c).real) >= 0:
            break
        Pi = symmetrize(Pi + scipy.linalg.solve_continuous_lyapunov(A_c.T, -F))
    res = float(np.linalg.norm(_are_residual(Pi, A, B, Q, N, rinv, rho)))
    if res >= 1e-9 or np.max(np.linalg.eigvals(closed_loop(Pi)).real) >= 0:
        raise AreSolveError("no stabilizing Schur solution (residual %.3e)" % res)
    return Pi, res
