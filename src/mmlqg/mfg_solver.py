"""Consistency fixed point of the major-minor game.

The iteration variable is the closed-loop mean-field triple (Abar, Gbar,
mbar): given a triple x, the major solves its extended LQG problem, each
minor type solves its extended problem against the major's solution, and
the minors' equilibrium feedback closes the loop into a new triple F(x).
The resulting Riccati/offset functions define the equilibrium feedback
laws.  This module holds only that map, its iteration and the two front
ends.  mfg_model assembles every agent, as one ExtendedSystem carrying
its own Hautus factor and R^{-1}: each evaluation builds the major once,
against the law x, and each minor type against that major record.  Each
stack of agents is solved by lqg_single's agent solve of the horizon, as
a standalone LQG problem is, and turned into laws by its gain table;
mfg_model.mean_field_law closes the minors' laws into F(x), so this
module forms no extended weight and no closed-loop block.  One map
serves both horizons; they differ only in the agent solve:
_solve_agent_finite's backward RK4 sweeps on the grid, or
_solve_agent_stationary's discounted ARE and steady offset at node 0.
The K minor types share one extended dimension, so the finite horizon
sweeps them as one stack: an evaluation runs 4 backward sweeps for any
K, the major's Riccati and offset sweeps (an RK4 loop, then RK4 step
maps) and then the minors'.

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

from .errors import FixedPointError, SchemaError
from .lqg_single import (
    ExtendedSystem,
    FeedbackLaw,
    ValidationReport,
    _constant_value,
    _gain_tables,
    _solve_agent_finite,
    _solve_agent_stationary,
)
from .mfg_model import (
    MeanFieldLaw,
    MmMfgProblem,
    build_extended_major,
    build_extended_minor,
    build_mean_field_matrices,
    mean_field_law,
    validate_problem,
)
from .numerics import (
    GridFunction,
    TimeGrid,
    _as_count,
    _as_real,
    flatten,
    unflatten,
)

ANDERSON_MEMORY = 5    # past iterates each Anderson step combines
RANK_CUTOFF = 1e-10    # relative singular-value cutoff of the weight fit


@dataclass
class FixedPointConfig:
    theta: float = 1.0
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        self.theta = _as_real(self.theta, "theta")
        if not 0.0 < self.theta <= 1.0:
            raise SchemaError("damping must lie in (0, 1]", field="theta")
        self.tol = _as_real(self.tol, "tol")
        if not 0.0 < self.tol < np.inf:
            raise SchemaError("must be positive and finite", field="tol")
        self.max_iters = _as_count(self.max_iters, "max_iters", 1)


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
    ext_major: ExtendedSystem
    ext_minors: List[ExtendedSystem]
    validation: ValidationReport       # the game checks the solver ran


def _one_step(p: MmMfgProblem) -> MmMfgProblem:
    """The stationary problem of p: p on a one-step grid, with the constant
    values of its drifts (SchemaError if one varies).

    For blocks read at node 0 only, or not at the nodes at all: every
    table built on it has two nodes instead of M + 1.
    """
    return replace(
        p, grid=TimeGrid(p.grid.t_end, 1),
        major=replace(p.major, b0=_constant_value(p.major.b0, "major.b0")),
        minors=[replace(mn, bk=_constant_value(mn.bk, "minors[%d].bk" % k))
                for k, mn in enumerate(p.minors)],
    )


def _initial_law(p: MmMfgProblem) -> MeanFieldLaw:
    """The closure of the minors' laws at Pi = 0, s = 0 for every agent.

    Those laws read only the constant weights N and nbar, so the agents
    are built against the open loop.
    """
    def zero(d):
        return GridFunction.zeros(p.grid, d, d), GridFunction.zeros(p.grid, d)

    major = build_extended_major(p, build_mean_field_matrices(p))
    minors = [build_extended_minor(p, k, major, *zero(major.dim)) for k in range(p.K)]
    return mean_field_law(p, [_gain_tables(ext, *zero(ext.dim)) for ext in minors])


def _consistency_map(p: MmMfgProblem, law0: MeanFieldLaw, solve_agent, nodes: int):
    """The consistency map on the law's first `nodes` node tables, flattened.

    solve_agent(exts, rho) returns the lists (Pis, ss) of a stack of
    agents on p's grid.  The finite horizon passes _solve_agent_finite and
    iterates on every node; the stationary problem, on a one-step grid,
    passes _solve_agent_stationary and iterates on node 0, which the law
    repeats at every node.  Returns (x0, evaluate): x0 flattens law0 and
    evaluate(x) returns (F(x), (law, ext_major, Pi0, s0, ext_minors, Piks,
    sks, minor_laws)) with law the MeanFieldLaw that x encodes.  Each
    evaluation builds the major once and solves it as a one-element stack,
    then the K minor types as one stack: 4 backward RK4 sweeps for any K
    on the finite horizon.
    """
    def tables(law):
        return [gf.values[:nodes] for gf in (law.Abar, law.Gbar, law.mbar)]

    shapes = [v.shape for v in tables(law0)]
    full = p.grid.num_nodes

    def evaluate(x):
        law = MeanFieldLaw(*(
            GridFunction(p.grid, np.broadcast_to(v, (full,) + v.shape[1:]).copy())
            for v in unflatten(x, shapes)
        ))
        ext_major = build_extended_major(p, law)
        (Pi0,), (s0,) = solve_agent([ext_major], p.rho)
        ext_minors = [build_extended_minor(p, k, ext_major, Pi0, s0) for k in range(p.K)]
        Piks, sks = solve_agent(ext_minors, p.rho)
        minor_laws = [_gain_tables(*agent) for agent in zip(ext_minors, Piks, sks)]
        fx = flatten(*tables(mean_field_law(p, minor_laws)))
        return fx, (law, ext_major, Pi0, s0, ext_minors, Piks, sks, minor_laws)

    return flatten(*tables(law0)), evaluate


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


def _solve_fixed_point(p: MmMfgProblem, cfg: FixedPointConfig, solve_agent,
                       nodes: int, what: str) -> MfgSolution:
    """The driver both horizons share: validate, iterate from the closure
    at Pi_k = 0, s_k = 0 (_initial_law), tabulate the gains."""
    report = validate_problem(p).require()
    x0, evaluate = _consistency_map(p, _initial_law(p), solve_agent, nodes)
    payload, history = _anderson(evaluate, x0, cfg, what)
    law, ext_major, Pi0, s0, ext_minors, Piks, sks, minor_laws = payload
    return MfgSolution(
        Pi0=Pi0, s0=s0, Pik=Piks, sk=sks, mf_law=law,
        major_law=_gain_tables(ext_major, Pi0, s0), minor_laws=minor_laws,
        report=FixedPointReport(
            iterations=len(history), residual_history=history,
            residual=history[-1], converged=True,
        ),
        problem=p, ext_major=ext_major, ext_minors=ext_minors,
        validation=report,
    )


def solve_consistency_finite(p: MmMfgProblem, cfg: Optional[FixedPointConfig] = None) -> MfgSolution:
    """Anderson-accelerated fixed point of (Abar, Gbar, mbar) on the grid.

    Each evaluation backward-solves the major's extended Riccati/offset
    pair, then those of all minor types as one stack, then closes the
    loop through the minor feedback.  Stops when the undamped residual
    max|F(law) - law| drops below tol; the returned Riccati data come from
    that last evaluation, so they and the returned law are mutually
    consistent.
    """
    return _solve_fixed_point(p, cfg or FixedPointConfig(), _solve_agent_finite,
                              p.grid.num_nodes, "consistency iteration")


# ----------------------------------------------------------------- infinite


@dataclass
class StationaryMfgSolution:
    """Stationary equilibrium laws u = -K X + k."""

    Pi0: np.ndarray
    s0: np.ndarray
    Pik: List[np.ndarray]
    sk: List[np.ndarray]
    Abar: np.ndarray
    Gbar: np.ndarray
    mbar: np.ndarray
    major_gain: np.ndarray       # K0 with u0 = -K0 X0 + k0
    major_feedforward: np.ndarray    # k0
    minor_gains: List[np.ndarray]
    minor_feedforward: List[np.ndarray]    # k of each type
    report: FixedPointReport
    problem: MmMfgProblem


def solve_consistency_infinite(p: MmMfgProblem, cfg: Optional[FixedPointConfig] = None) -> StationaryMfgSolution:
    """Stationary fixed point: discounted AREs and steady offsets.

    The same Anderson iteration runs on constant (Abar, Gbar, mbar), read
    at node 0 of a one-step grid.  Each extended system must satisfy the
    Hautus detectability and stabilizability conditions of the shifted drift
    (violations raise assumption errors); the ARE solver accepts only the
    stabilizing solution, whose closed loop A - B R^{-1}(N' + B' Pi)
    - (rho/2) I is asymptotically stable.
    """
    cfg = cfg or FixedPointConfig()
    if p.rho <= 0.0:
        raise SchemaError("stationary problem requires rho > 0")
    # every table of the stationary problem is read at node 0 only
    sol = _solve_fixed_point(_one_step(p), cfg, _solve_agent_stationary, 1,
                             "stationary consistency iteration")

    law = sol.mf_law
    return StationaryMfgSolution(
        Pi0=sol.Pi0.values[0], s0=sol.s0.values[0],
        Pik=[P.values[0] for P in sol.Pik], sk=[s.values[0] for s in sol.sk],
        Abar=law.Abar.values[0], Gbar=law.Gbar.values[0], mbar=law.mbar.values[0],
        major_gain=sol.major_law.K.values[0],
        major_feedforward=sol.major_law.k.values[0],
        minor_gains=[m.K.values[0] for m in sol.minor_laws],
        minor_feedforward=[m.k.values[0] for m in sol.minor_laws],
        report=sol.report,
        problem=p,
    )
