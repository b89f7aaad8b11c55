"""Best-response gaps of the mean-field equilibrium in finite populations.

One agent (the deviator) is granted full information while everyone
else keeps the equilibrium feedback.  Non-deviators of one type share
their law and reach the deviator only through their average, so the
deviator's problem lives exactly on the reduced state
y = (x_dev, x0, xbar, S_1..S_K) of population_sim.ReducedPopulation,
whose dimension does not grow with N.  There the deviator is one more
convex single-agent LQG problem: JointSystem._agent() states it as an
ExtendedSystem, solved by the Riccati/offset sweeps and gain expression
of every agent (lqg_single._solve_agent_finite, _gain_tables).  Both
costs come from exact moment propagation, so the gap carries no sampling
noise.  Every cost here is one affine policy on node or stage tables of
the reduced system, turned into a running quadratic by lqg_single's one
policy quadratic; stage tables come from node tables by
lqg_single._stage_values alone.  In the uncoupled case the equilibrium
law is already optimal and the gap vanishes.

Two checks ride along with every gap.  Completing the square gives
J(u) - J(u_br) = 1/2 E int e^{-rho t} (u - u_br)' R (u - u_br) dt for
any policy u; identity_mismatch is the distance of that integral, along
the equilibrium closed loop, from J_eq - J_br: the time error, second
order in h.  The un-deviated chain cost, built from the open drift
tables plus the lifted equilibrium gain table, must agree with
expected_cost_exact, which closes every block directly
(assembly_crosscheck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .errors import AssumptionViolationError
from .lqg_single import (PSD_TOL, ExtendedSystem, FeedbackLaw, ValidationReport,
                          _gain_tables, _policy_quadratic, _solve_agent_finite,
                          _stage_values, add_convexity_checks,
                          closed_loop_cost_moments, psd_sqrt)
from .mfg_model import MmMfgProblem
from .mfg_solver import MfgSolution
from .numerics import GridFunction, _as_count
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
        self.A_nodes, self.d_nodes = self.drift(closed=False)
        self.B_full = np.zeros((self.D, self.m))
        self.B_full[:self.n] = self.B_own
        self.Kz_nodes = self.K_nodes @ self.U
        self.A, self.d, self.Kz, self.k_st = (_stage_values(t) for t in (
            self.A_nodes, self.d_nodes, self.Kz_nodes, self.k_nodes))

    def _agent(self) -> ExtendedSystem:
        """The deviator as the agent record every solver reads, the same as
        LqgProblem._agent(): open drift, B_full and its weights on y."""
        grid = self.p.grid
        return ExtendedSystem(
            what="deviator", A=GridFunction(grid, self.A_nodes), B=self.B_full,
            b=GridFunction(grid, self.d_nodes), Qhat=self.terminal, Q=self.W,
            N=self.S, R=self.R, eta=self.eta_y, nbar=self.nbar_y,
            Q_factor=psd_sqrt(self.Q) @ self.C,
        )

    def undeviated_cost(self) -> float:
        """Equilibrium cost of the simulated chain through this assembly.

        Must reproduce population_sim.expected_cost_exact; any daylight
        between the two means the gain lifting or the input placement is
        wrong.
        """
        K, k = self.Kz_nodes, self.k_nodes
        node_cost = _policy_quadratic(self.W, self.S, self.R, self.eta_y,
                                      self.nbar_y, self.c0, K, k)
        return discrete_chain_cost(
            self.p.grid, self.p.rho, self.mu0, self.V0,
            self.A_nodes - self.B_full @ K, self.d_nodes + self.B_full @ k,
            self.Sig2, node_cost, self.terminal,
        )


def build_joint_closed_loop(p: MmMfgProblem, sol: MfgSolution,
                            cfg: PopulationConfig, deviator: int) -> JointSystem:
    return JointSystem(p, sol, cfg, deviator)


def _closed_loop_cost(js: JointSystem, K: np.ndarray, k: np.ndarray,
                      quadratic, W_T) -> float:
    """Exact cost of the running quadratic (W, l, c) and the terminal weight
    W_T along dy = ((A - B K) y + d + B k) dt + noise, u = -K[q] y + k[q]
    (stage tables), by the package's one moment-and-cost propagator."""
    p = js.p
    B = js.B_full
    A = js.A - B @ K
    return closed_loop_cost_moments(
        p.grid, p.rho, js.mu0, js.V0, A, js.d + B @ k,
        np.broadcast_to(js.Sig2, A.shape), quadratic, W_T,
    )


def _policy_cost(js: JointSystem, K: np.ndarray, k: np.ndarray) -> float:
    """Exact deviator cost of the policy u = -K[q] y + k[q] (stage tables)."""
    return _closed_loop_cost(js, K, k, _policy_quadratic(
        js.W, js.S, js.R, js.eta_y, js.nbar_y, js.c0, K, k), js.terminal)


def equilibrium_cost_ode(js: JointSystem) -> float:
    """Deviator's cost with everyone, deviator included, on the MFG law."""
    return _policy_cost(js, js.Kz, js.k_st)


@dataclass
class BestResponse:
    """Affine best-response law u = -K(t) y + k(t) on the grid's nodes.

    The deviator's ExtendedSystem (JointSystem._agent) goes through
    lqg_single._solve_agent_finite and _gain_tables, as every agent does;
    the costs read the law at the half-step stages q = 0..2M that
    _stage_values forms.  Pi and s are the node tables of the backward
    sweeps, with Pi[-1] the untouched terminal weight and s[-1] = 0.

    gap_identity is (1/2) E int e^{-rho t} du' R du dt along the
    equilibrium closed loop, du = u_eq - u_br(y): completing the square
    makes it J_eq - cost in continuous time, and on the grid the two
    differ by the second-order time error.
    """

    law: FeedbackLaw
    Pi: np.ndarray               # (M+1, D, D)
    s: np.ndarray                # (M+1, D, 1)
    cost: float                  # exact cost by forward moment propagation
    gap_identity: float          # the gap by the completing-the-square identity


def solve_best_response(js: JointSystem) -> BestResponse:
    """Exact full-information best response in the reduced closed loop.

    Convexity is screened on the deviator's primitive weights, then its
    agent record goes through the one finite-horizon agent solve.  The
    law's cost and gap_identity, the deviation u_eq - u_br = -(Kz - K) y
    + (k_st - k) weighted by R, come from moment propagation.
    """
    rep = ValidationReport()
    add_convexity_checks(rep, "deviator ", js.Qhat, js.Q, js.Ncr, js.R, PSD_TOL)
    rep.require()
    agent = js._agent()
    (Pi,), (s,) = _solve_agent_finite([agent], js.p.rho)
    law = _gain_tables(agent, Pi, s)
    K, k = _stage_values(law.K), _stage_values(law.k)
    deviation = _policy_quadratic(0.0, np.zeros_like(js.S), js.R, 0.0,
                                  np.zeros_like(js.nbar_y), 0.0,
                                  js.Kz - K, js.k_st - k)
    identity = _closed_loop_cost(js, js.Kz, js.k_st, deviation, np.zeros_like(js.W))
    return BestResponse(law=law, Pi=Pi.values, s=s.values,
                        cost=_policy_cost(js, K, k), gap_identity=identity)


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
    gap = J_eq - br.cost
    diag = {"identity_mismatch": abs(br.gap_identity - gap),
            "assembly_crosscheck": abs(js.undeviated_cost() - chain_ref)}
    return NashGapReport(
        agent_id=js.agent_id, N=cfg.N,
        J_equilibrium=J_eq, J_best_response=br.cost,
        gap=gap, diagnostics=diag,
    )


@dataclass
class GapRow:
    N: int
    major_gap: float
    type_gaps: List[float]
    max_gap: float
    identity_mismatch: float       # worst over the row's deviators
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
            identity_mismatch=max(r.diagnostics["identity_mismatch"]
                                  for r in reports),
            assembly_crosscheck=max(r.diagnostics["assembly_crosscheck"]
                                    for r in reports),
        ))
    return GapTable(rows=rows)
