"""Best-response gaps of the mean-field equilibrium in finite populations.

One agent (the deviator) is granted full information while everyone
else keeps the equilibrium feedback.  Non-deviators of one type share
their law and reach the deviator only through their average, so the
deviator's problem lives exactly on the reduced state
y = (x_dev, x0, xbar, S_1..S_K) of population_sim.ReducedPopulation,
whose dimension does not grow with N.  The best response solves that
LQG problem by a backward Riccati/offset sweep, and both the equilibrium
cost and the best-response cost are evaluated by exact moment
propagation, so the reported gap carries no sampling noise.  Every cost
here is one affine policy on node or stage tables of the reduced system,
turned into a running quadratic by lqg_single's one policy quadratic;
stage tables come from node tables by lqg_single._stage_values alone.
In the uncoupled case the equilibrium law is already optimal and the gap
collapses to integration roundoff.

Two checks ride along with every gap.  The value-function and moment
routes of the best response must agree (route_mismatch), and the
un-deviated chain cost, built from the open drift tables plus the
lifted equilibrium gain table, must agree with population_sim's
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
from .lqg_single import (PSD_TOL, ValidationReport, _gains, _policy_quadratic,
                          _stage_values, add_convexity_checks,
                          closed_loop_cost_moments, spd_solver)
from .mfg_model import MmMfgProblem
from .mfg_solver import MfgSolution
from .numerics import (
    _as_count,
    flatten,
    rk4_backward_indexed,
    symmetrize_leading,
    unflatten,
)
from .population_sim import (
    PopulationConfig,
    ReducedPopulation,
    assign_types,
    discrete_chain_cost,
    expected_cost_exact,
)


class JointSystem(ReducedPopulation):
    """The deviator's control problem on the reduced state.

    Every agent but the deviator keeps its equilibrium law.  A_nodes and
    d_nodes tabulate the drift with the deviator's rows uncontrolled; its
    input enters through B_full, which is zero outside the deviator's own
    block rows (the first n).  Kz_nodes and k_nodes tabulate the deviator's
    own equilibrium law lifted to y, u = -Kz_nodes[j] y + k_nodes[j].  A,
    d, Kz and k_st are those four at the stages q = 0..2M the RK4 sweeps
    read.  The tables are shared: treat them as read-only.
    """

    def __init__(self, p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                 deviator: int):
        super().__init__(p, sol, cfg, deviator)
        self.deviator = deviator
        self.A_nodes, self.d_nodes = self.drift(closed=False)
        self.B_full = np.zeros((self.D, self.m))
        self.B_full[:self.n] = self.B_own
        self.Kz_nodes = self.K_nodes @ self.U
        self.A, self.d, self.Kz, self.k_st = (_stage_values(t) for t in (
            self.A_nodes, self.d_nodes, self.Kz_nodes, self.k_nodes))

    def undeviated_cost(self) -> float:
        """Equilibrium cost of the simulated chain through this assembly.

        Must reproduce population_sim.expected_cost_exact; any daylight
        between the two means the gain lifting or the input placement is
        wrong.
        """
        L, uc = -self.Kz_nodes, self.k_nodes
        node_cost = _policy_quadratic(self.W, self.S, self.R, self.eta_y,
                                      self.nbar_y, self.c0, L, uc)
        return discrete_chain_cost(
            self.p.grid, self.p.rho, self.mu0, self.V0,
            self.A_nodes + self.B_full @ L, self.d_nodes + self.B_full @ uc,
            self.Sig2, node_cost, self.terminal,
        )


def build_joint_closed_loop(p: MmMfgProblem, sol: MfgSolution,
                            cfg: PopulationConfig, deviator: int) -> JointSystem:
    return JointSystem(p, sol, cfg, deviator)


def _policy_cost(js: JointSystem, L: np.ndarray, uc: np.ndarray) -> float:
    """Exact deviator cost of the policy u = L[q] y + uc[q] (stage tables).

    The closed loop dy = ((A + B L) y + d + B uc) dt + noise goes through
    the package's one moment-and-cost propagator.
    """
    p = js.p
    B = js.B_full
    A = js.A + B @ L
    W, l, c = _policy_quadratic(js.W, js.S, js.R, js.eta_y, js.nbar_y, js.c0, L, uc)
    return closed_loop_cost_moments(
        p.grid, p.rho, js.mu0, js.V0, A, js.d + B @ uc,
        np.broadcast_to(js.Sig2, A.shape), W, l, c, js.terminal,
    )


def equilibrium_cost_ode(js: JointSystem) -> float:
    """Deviator's cost with everyone, deviator included, on the MFG law."""
    return _policy_cost(js, -js.Kz, js.k_st)


@dataclass
class BestResponse:
    """Affine best-response law u = -gains[q] y - feedforwards[q].

    The feedforwards are -k, with the sign of LqgSolution.kff and the
    opposite of a FeedbackLaw's k.

    Gain tables are indexed by half-step stages q = 0..2M, formed at the
    nodes and given their midpoints by _stage_values; Pi and s are node
    tables from the backward sweep, with Pi[-1] the untouched terminal
    weight.
    """

    gains: np.ndarray            # (2M+1, m, D)
    feedforwards: np.ndarray     # (2M+1, m, 1)
    Pi: np.ndarray               # (M+1, D, D)
    s: np.ndarray                # (M+1, D, 1)
    cost: float                  # exact cost by forward moment propagation
    cost_value_fn: float         # same value read off the value function at 0
    diagnostics: Dict[str, float] = field(default_factory=dict)


def solve_best_response(js: JointSystem) -> BestResponse:
    """Exact full-information best response in the reduced closed loop.

    Backward Riccati/offset/value sweep, packed as (Pi, s, v), with
    terminal condition given by the deviator's terminal weight; the node
    gains come from lqg_single._gains, as every agent's do, and the law is
    evaluated forward by moment propagation.  The value-function route and
    the moment route must agree; their difference is reported as a
    diagnostic.
    """
    rep = ValidationReport()
    add_convexity_checks(rep, "deviator ", js.Qhat, js.Q, js.Ncr, js.R, PSD_TOL)
    rep.require()
    p = js.p
    grid = p.grid
    rho = p.rho
    D, m = js.D, js.m
    Rinv = spd_solver(js.R, "deviator control weight")(np.eye(m))
    W, S, eta_y, nbar_y = js.W, js.S, js.eta_y, js.nbar_y
    B = js.B_full
    Bt = B.T

    DD = D * D
    shapes = [(D, D), (D, 1), ()]

    def rhs(q, Y):
        Pi, s, v = unflatten(Y, shapes)
        Aq = js.A[q]
        dq = js.d[q]
        PB_S = Pi @ B + S
        G = Rinv @ PB_S.T                # R^{-1}(B'Pi + S')
        dPi = rho * Pi - Aq.T @ Pi - Pi @ Aq - W + PB_S @ G
        Bs_r = Bt @ s - nbar_y
        RBs_r = Rinv @ Bs_r
        ds = rho * s - Aq.T @ s - Pi @ dq + eta_y + PB_S @ RBs_r
        dv = rho * v - (s.T @ dq).item() - 0.5 * js.c0 \
            - 0.5 * np.vdot(Pi, js.Sig2) \
            + 0.5 * (Bs_r.T @ RBs_r).item()
        return flatten(dPi, ds, dv)

    # (Pi, s, v) packed; Pi[T], s[T], v[T] are the terminal form's pieces
    W_T, l_T, c_T = js.terminal
    terminal = flatten(W_T, l_T, 0.5 * c_T)
    try:
        sweep = rk4_backward_indexed(rhs, terminal, grid, project=symmetrize_leading(D))
    except IntegrationDivergedError as exc:
        raise RiccatiBlowupError(
            "joint backward sweep diverged: %s" % exc, node=exc.node, time=exc.time
        ) from exc
    nodes = sweep.values[:, 0]
    Pi_nodes, s_nodes = nodes[:, :DD].reshape(-1, D, D), nodes[:, DD:DD + D, None]
    v = nodes[0, -1]
    K_nodes, k_nodes = _gains(Rinv, B, S, nbar_y, Pi_nodes, s_nodes)
    gains, ffs = _stage_values(K_nodes), _stage_values(-k_nodes)

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


def gap_vs_population(p: MmMfgProblem, sol: MfgSolution, Ns: Sequence[int]) -> GapTable:
    """Worst gap over the major and one deviator per type, for each N.

    Every gap is an exact moment propagation, so no seed enters.
    """
    rows = []
    for N in [_as_count(N, "Ns[%d]" % i, 1) for i, N in enumerate(Ns)]:
        type_of = assign_types(p.pi, N)
        cfg = PopulationConfig(N=N, type_assignment=type_of)
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
            N=N, major_gap=major, type_gaps=type_gaps,
            max_gap=max([major] + type_gaps),
            route_mismatch=max(r.diagnostics["route_mismatch"] for r in reports),
            assembly_crosscheck=max(r.diagnostics["assembly_crosscheck"]
                                    for r in reports),
        ))
    return GapTable(rows=rows)
