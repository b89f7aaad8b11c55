"""Best-response gaps of the mean-field equilibrium in finite populations.

One agent (the deviator) is granted full information while everyone
else keeps the equilibrium feedback.  Non-deviators of one type share
their law and reach the deviator only through their average, so the
deviator's problem lives exactly on the reduced state
y = (x_dev, x0, xbar, S_1..S_K) of population_sim.ReducedPopulation,
whose dimension does not grow with N.  There the deviator is one more
convex single-agent LQG problem, built like every agent of the game:
mfg_model.lift_tracking forms its weights, ReducedPopulation._agent()
states it as an ExtendedSystem, and the Riccati/offset sweeps and gain
expression of every agent solve it (lqg_single._solve_agent_finite,
_gain_tables).  Every cost here is one affine policy, u = -Kz z on
z = (y; 1), turned into one running weight by lqg_single's one policy
quadratic and costed by exact propagation of E zz' under the closed loop
F - Bz Kz, so the gap carries no sampling noise.  Every cost runs on
records of one dimension D stacked by population_sim._stacked.  A gap
table stacks every N's records alike: per stack one agent solve, one
propagation of the equilibrium closed loops (which carry J_eq and the
identity below), one of the best responses' loops, and one chain
recursion of the assembly checks.  A single gap, and
equilibrium_cost_ode, run a one-member stack, bit for bit.  In the
uncoupled case the equilibrium law is already optimal and the gap
vanishes.

Two checks ride along with every gap.  Completing the square gives
J(u) - J(u_br) = 1/2 E int e^{-rho t} (u - u_br)' R (u - u_br) dt for
any policy u; identity_mismatch is the distance of that integral, along
the equilibrium closed loop, from J_eq - J_br: the time error, second
order in h.  The un-deviated chain cost, the open drift closed by Bz
and the lifted equilibrium gain table, must agree with the chain
on the record's own closed drift, expected_cost_exact's value
(assembly_crosscheck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import AssumptionViolationError
from .lqg_single import (PSD_TOL, FeedbackLaw, ValidationReport, _gain_tables,
                          _homogeneous, _policy_quadratic, _solve_agent_finite,
                          _stage_values, add_convexity_checks, closed_loop_cost_moments)
from .mfg_model import MmMfgProblem
from .mfg_solver import MfgSolution
from .numerics import _as_count
from .population_sim import (PopulationConfig, ReducedPopulation, _agent_key, _stacked,
                             assign_types, chain_costs)


def build_joint_closed_loop(p: MmMfgProblem, sol: MfgSolution,
                            cfg: PopulationConfig, deviator: int) -> ReducedPopulation:
    _, *key = _agent_key(p, cfg, deviator)
    return ReducedPopulation(p, sol, *key)


def _closed_loop_cost(js, Kz: np.ndarray, extra=()) -> np.ndarray:
    """Exact deviator costs of u = -Kz[q] z (a stage table on z = (y; 1)),
    then the cost of each extra (W, W_T), along the closed loops
    dz = (F - Bz Kz) z dt + noise of the stacked records js, in one
    propagation by the package's one moment-and-cost propagator: an
    (L, costs) array."""
    p, w = js.p, js.weights
    own = _policy_quadratic(w["Q"], w["N"], w["R"], w["eta"], w["nbar"], js.c0, Kz)
    F = js.F - js.Bz @ Kz
    return closed_loop_cost_moments(
        p.grid, p.rho, js.Z0, F, np.broadcast_to(js.S, F.shape),
        [(own, _homogeneous(w["Qhat"], 0.0)), *extra],
    )


def equilibrium_cost_ode(js: ReducedPopulation) -> float:
    """Deviator's cost with everyone, deviator included, on the MFG law:
    the record as a one-member stack."""
    one = _stacked([js], ("F", "Kz"))
    return float(_closed_loop_cost(one, one.Kz)[0, 0])


@dataclass
class BestResponse:
    """Affine best-response law u = -K(t) y + k(t) on the grid's nodes.

    The deviator's ExtendedSystem (ReducedPopulation._agent) goes through
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
    equilibrium_cost: float      # J_eq, equilibrium_cost_ode's value


def _screen(js: ReducedPopulation) -> None:
    """Convexity of the deviator's primitive weights, its type's or the major's."""
    rep = ValidationReport()
    add_convexity_checks(rep, "deviator ", js.Qhat, js.Q, js.Ncr, js.R, PSD_TOL)
    rep.require()


def _best_responses(records: List[ReducedPopulation]) -> List[BestResponse]:
    """Exact full-information best responses of records of one D: one
    stacked agent solve, then two stacked moment propagations, the
    equilibrium closed loops, each carrying both J_eq and gap_identity (the
    deviation u_eq - u_br = -dK z, dK = Kz_eq - Kz_br, weighted by dK'R dK),
    and the best responses' own closed loops."""
    agents = [js._agent() for js in records]
    Pis, ss = _solve_agent_finite(agents, records[0].p.rho)
    laws = [_gain_tables(*solved) for solved in zip(agents, Pis, ss)]
    del agents   # their A and b are contiguous copies of slices of F_nodes
    K = np.stack([law.K.values for law in laws], 1)
    k = np.stack([law.k.values for law in laws], 1)
    Kz = _stage_values(np.concatenate([K, -k], -1))
    js = _stacked(records, ("F", "Kz"))
    dK = js.Kz - Kz
    with np.errstate(over="ignore", invalid="ignore"):   # the cost sweep reports overflow
        deviation = dK.swapaxes(-1, -2) @ js.weights["R"] @ dK
    J_eq = _closed_loop_cost(js, js.Kz, [(deviation, np.zeros_like(js.Z0))])
    J_br = _closed_loop_cost(js, Kz)[:, 0]
    return [BestResponse(law, Pi.values, s.values, float(cost), float(identity), float(eq))
            for law, Pi, s, (eq, identity), cost in zip(laws, Pis, ss, J_eq, J_br)]


def solve_best_response(js: ReducedPopulation) -> BestResponse:
    """Exact full-information best response in the reduced closed loop:
    convexity is screened on the deviator's primitive weights, then the
    record runs through _best_responses as a one-member stack."""
    _screen(js)
    return _best_responses([js])[0]


@dataclass
class NashGapReport:
    agent_id: Optional[int]      # None for a gap table's deviator, keyed by its type
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


def _gap_reports(records: List[ReducedPopulation], Ns: Sequence[int],
                 agent_id: Optional[int] = None) -> List[NashGapReport]:
    """Reports of screened records of one D, each at its N in Ns and
    naming agent_id: stacked best responses, then one chain recursion of
    each record's chain on its own closed drift, then of its un-deviated
    chain, the open drift closed by Bz and the lifted gain table."""
    L, reports = len(records), []
    brs = _best_responses(records)
    js = _stacked(records + records, ("F_nodes", "Kz_nodes"))
    F = js.F_nodes - js.Bz @ js.Kz_nodes
    F[:, :L] = np.stack([r.drift(closed=True) for r in records], 1)
    J = chain_costs(js, F)
    for N, br, check in zip(Ns, brs, np.abs(J[L:] - J[:L])):
        gap = br.equilibrium_cost - br.cost
        reports.append(NashGapReport(agent_id, N, br.equilibrium_cost, br.cost, gap, {
            "identity_mismatch": abs(br.gap_identity - gap), "assembly_crosscheck": float(check)}))
    return reports


def epsilon_nash_gap(p: MmMfgProblem, sol: MfgSolution, cfg: PopulationConfig,
                     deviator: int) -> NashGapReport:
    """How much one full-information agent can gain over the equilibrium.

    Both costs come from exact moment propagation of the same reduced
    system, so the gap is free of sampling noise and of discretization
    mismatch between the two sides.  The chain evaluation of the
    un-deviated system is compared against the chain on the record's own
    closed drift, the value of expected_cost_exact, and reported as an
    assembly cross-check.  The record is a one-member stack of the table.
    """
    agent_id = _as_count(deviator, "agent_id", 0, cfg.N + 1)
    js = build_joint_closed_loop(p, sol, cfg, agent_id)
    _screen(js)
    return _gap_reports([js], [cfg.N], agent_id)[0]


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

    Every deviator of every N gets its record, keyed by its kind (the
    major, or a non-empty type) and that N's type counts; each kind is
    screened for convexity once, and the records run through _gap_reports
    in one stack per dimension D.  Every gap is an exact moment
    propagation, so no seed enters.
    """
    Ns = [_as_count(N, "Ns[%d]" % i, 1) for i, N in enumerate(Ns)]
    kinds = [None, *range(p.K)]     # the major, then each type
    records, groups, reports, rows = {}, {}, {}, []
    for N in Ns:
        counts = np.bincount(assign_types(p.pi, N), minlength=p.K)
        for own in kinds:
            if (own is None or counts[own]) and (N, own) not in records:
                # the other minors: N's counts less the deviator (the major has no type)
                records[N, own] = js = ReducedPopulation(
                    p, sol, counts - (np.arange(p.K) == own), own, np.zeros(p.n * p.K))
                groups.setdefault(js.D, []).append((N, own))
    for js in {js.own_type: js for js in records.values()}.values():
        _screen(js)
    for keys in groups.values():
        reports.update(zip(keys, _gap_reports([records.pop(key) for key in keys],
                                              [N for N, _ in keys])))
    for N in Ns:
        row = [reports.get((N, own)) for own in kinds]
        gaps = [0.0 if r is None else r.gap for r in row]
        worst = {key: max(r.diagnostics[key] for r in row if r is not None)
                 for key in ("identity_mismatch", "assembly_crosscheck")}
        rows.append(GapRow(N=N, major_gap=gaps[0], type_gaps=gaps[1:],
                           max_gap=max(gaps), **worst))
    return GapTable(rows=rows)
