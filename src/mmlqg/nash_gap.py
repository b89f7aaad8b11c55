"""Best-response gaps of the mean-field equilibrium in finite populations.

One agent (the deviator) is granted full information while everyone
else keeps the equilibrium feedback.  Non-deviators of one type share
their law and reach the deviator only through their average, so the
deviator's problem lives exactly on the reduced state
y = (x_dev, x0, xbar, S_1..S_K) of population_sim.ReducedPopulation,
whose dimension does not grow with N.  The best response solves that
LQG problem by a backward Riccati/offset sweep, and both the equilibrium
cost and the best-response cost are evaluated by exact moment
propagation, so the reported gap carries no sampling noise.  In the
uncoupled case the equilibrium law is already optimal and the gap
collapses to integration roundoff.

Two checks ride along with every gap.  The value-function and moment
routes of the best response must agree (route_mismatch), and the
un-deviated chain cost, built from the open deviator rows plus the
lifted equilibrium gain, must agree with population_sim's
expected_cost_exact, which closes every block directly
(assembly_crosscheck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .errors import (
    AssumptionViolationError,
    IntegrationDivergedError,
    RiccatiBlowupError,
)
from .lqg_single import closed_loop_cost_moments, spd_solver
from .mfg_model import MmMfgProblem
from .mfg_solver import MfgSolution
from .numerics import (
    flatten,
    rk4_backward_indexed,
    symmetrize,
    symmetrize_leading,
    unflatten,
)
from .population_sim import (
    PopulationConfig,
    ReducedPopulation,
    _deviation_quadratic,
    assign_types,
    discrete_chain_cost,
    expected_cost_exact,
)


class JointSystem(ReducedPopulation):
    """The deviator's control problem on the reduced state.

    Every agent but the deviator keeps its equilibrium law.  The
    deviator's rows stay uncontrolled; its input enters through B_full,
    which is zero outside the deviator's own block rows (the first n).
    Drift tables are indexed by half-step stages q = 0..2M and shared:
    treat the returned arrays as read-only.
    """

    def __init__(self, p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                 deviator: int):
        super().__init__(p, sol, cfg, deviator)
        self.deviator = deviator
        self._A, self._d = self.drift(closed=False)
        self.B_full = np.zeros((self.D, self.m))
        self.B_full[:self.n] = self.B_own

        # y-space quadratic of the deviator's cost, control left free
        C = self.C
        self.W = symmetrize(C.T @ self.Q @ C)
        self.S = C.T @ self.Ncr
        self.lvec = -C.T @ (self.Q @ self.eta)
        self.rvec = -self.Ncr.T @ self.eta
        self.cconst = (self.eta.T @ self.Q @ self.eta).item()
        self.W_term, self.l_term, self.c_term = self.terminal

    def A_open(self, q: int) -> np.ndarray:
        """Reduced drift matrix with the deviator's rows uncontrolled."""
        return self._A[q]

    def d_open(self, q: int) -> np.ndarray:
        return self._d[q]

    def eq_gain(self, q: int):
        """Deviator's own equilibrium law lifted to y: u = -Kz @ y + kq."""
        return self.K_st[q] @ self.U, self.k_st[q]

    def A_closed(self, q: int) -> np.ndarray:
        return self._A[q] - self.B_full @ self.eq_gain(q)[0]

    def d_closed(self, q: int) -> np.ndarray:
        return self._d[q] + self.B_full @ self.k_st[q]

    def undeviated_cost(self) -> float:
        """Equilibrium cost of the simulated chain through this assembly.

        Must reproduce population_sim.expected_cost_exact; any daylight
        between the two means the gain lifting or the input placement is
        wrong.
        """

        node_cost = _deviation_quadratic(self.C, self.eta, self.Q, self.Ncr, self.R,
                                         -self.K_st[::2] @ self.U, self.k_st[::2])
        return discrete_chain_cost(
            self.p.grid, self.p.rho, self.mu0, self.V0,
            self.A_closed, self.d_closed, self.Sig2, node_cost, self.terminal,
        )


def build_joint_closed_loop(p: MmMfgProblem, sol: MfgSolution,
                            cfg: PopulationConfig, deviator: int) -> JointSystem:
    return JointSystem(p, sol, cfg, deviator)


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


def _policy_cost(js: JointSystem, L: np.ndarray, uc: np.ndarray) -> float:
    """Exact deviator cost of the policy u = L[q] y + uc[q] (stage tables).

    The closed loop dy = ((A + B L) y + d + B uc) dt + noise goes through
    the package's one moment-and-cost propagator.
    """
    p = js.p
    B = js.B_full
    stages = range(2 * p.grid.num_steps + 1)
    A = np.array([js.A_open(q) for q in stages]) + B @ L
    d = np.array([js.d_open(q) for q in stages]) + B @ uc
    W, l, c = _deviation_quadratic(js.C, js.eta, js.Q, js.Ncr, js.R, L, uc)
    return closed_loop_cost_moments(
        p.grid, p.rho, js.mu0, js.V0, A, d, np.broadcast_to(js.Sig2, A.shape),
        W, l, c, (js.W_term, js.l_term, js.c_term),
    )


def equilibrium_cost_ode(js: JointSystem) -> float:
    """Deviator's cost with everyone, deviator included, on the MFG law."""
    Kz, kq = map(np.array, zip(*(js.eq_gain(q)
                                 for q in range(2 * js.p.grid.num_steps + 1))))
    return _policy_cost(js, -Kz, kq)


@dataclass
class BestResponse:
    """Affine best-response law u = -gains[q] y - feedforwards[q].

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
    """Exact full-information best response in the reduced closed loop.

    Backward Riccati/offset/value sweep with terminal condition given by
    the deviator's terminal weight, then the optimal affine law is evaluated
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

    DD = D * D
    shapes = [(D, D), (D, 1), ()]

    def rhs(q, Y):
        Pi, s, v = unflatten(Y, shapes)
        Aq = js.A_open(q)
        dq = js.d_open(q)
        PB_S = Pi @ B + S
        G = Rinv @ PB_S.T                # R^{-1}(B'Pi + S')
        dPi = rho * Pi - Aq.T @ Pi - Pi @ Aq - W + PB_S @ G
        Bs_r = Bt @ s + rvec
        RBs_r = Rinv @ Bs_r
        ds = rho * s - Aq.T @ s - Pi @ dq - lvec + PB_S @ RBs_r
        dv = rho * v - (s.T @ dq).item() - 0.5 * cconst \
            - 0.5 * np.vdot(Pi, js.Sig2) \
            + 0.5 * (Bs_r.T @ RBs_r).item()
        return flatten(dPi, ds, dv)

    # (Pi, s, v) packed; Pi[T], s[T], v[T] are the terminal form's pieces
    terminal = flatten(js.W_term, js.l_term, 0.5 * js.c_term)
    try:
        sweep = rk4_backward_indexed(rhs, terminal, grid, project=symmetrize_leading(D))
    except IntegrationDivergedError as exc:
        raise RiccatiBlowupError(
            "joint backward sweep diverged: %s" % exc, node=exc.node, time=exc.time
        ) from exc
    nodes = sweep.values[:, 0]
    # node derivatives, the k1 of every step, for the Hermite midpoints
    with np.errstate(over="ignore", invalid="ignore"):
        derivs = np.array([rhs(2 * j, nodes[j]) for j in range(M + 1)])
    Pi_nodes, s_nodes = nodes[:, :DD].reshape(-1, D, D), nodes[:, DD:DD + D, None]
    dPi_nodes, ds_nodes = derivs[:, :DD].reshape(-1, D, D), derivs[:, DD:DD + D, None]
    v = nodes[0, -1]

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
    cost_value_fn = 0.5 * (np.vdot(Pi_nodes[0], V0)
                           + (mu0.T @ Pi_nodes[0] @ mu0).item()) \
        + (s_nodes[0].T @ mu0).item() + v

    cost = _policy_cost(js, -gains, -ffs)
    return BestResponse(
        gains=gains, feedforwards=ffs, Pi=Pi_nodes, s=s_nodes,
        cost=cost, cost_value_fn=cost_value_fn,
        diagnostics={"route_mismatch": abs(cost - cost_value_fn)},
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

    Both costs come from exact moment propagation of the same reduced
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
    route_mismatch: float          # worst over the row's deviators
    assembly_crosscheck: float     # worst over the row's deviators


@dataclass
class GapTable:
    rows: List[GapRow]


def gap_vs_population(p: MmMfgProblem, sol: MfgSolution, Ns: Sequence[int],
                      master_seed: int = 0) -> GapTable:
    """Worst gap over the major and one deviator per type, for each N."""
    rows = []
    for N in Ns:
        type_of = assign_types(p.pi, int(N))
        cfg = PopulationConfig(N=int(N), master_seed=master_seed,
                               type_assignment=type_of)
        reports = [epsilon_nash_gap(p, sol, cfg, 0)]
        type_gaps = []
        for k in range(p.K):
            members = np.flatnonzero(type_of == k)
            if members.size == 0:
                type_gaps.append(0.0)
                continue
            reports.append(epsilon_nash_gap(p, sol, cfg, int(members[0]) + 1))
            type_gaps.append(reports[-1].gap)
        major = reports[0].gap
        rows.append(GapRow(
            N=int(N), major_gap=major, type_gaps=type_gaps,
            max_gap=max([major] + type_gaps),
            route_mismatch=max(r.diagnostics["route_mismatch"] for r in reports),
            assembly_crosscheck=max(r.diagnostics["assembly_crosscheck"]
                                    for r in reports),
        ))
    return GapTable(rows=rows)
