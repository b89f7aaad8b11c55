"""Built-in verification suites behind the `verify` CLI command.

Each suite re-derives a known answer (analytic oracle, structural
identity, or cross-route agreement) and reports pass/fail with a one
line detail.  run_suites catches a suite's assertion and package errors,
so a damaged fixture shows up as its named suite failing rather than as
a crash.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import AreSolveError, MmlqgError
from .lqg_single import (
    LqgProblem,
    _stage_values,
    gateaux_derivative_det,
    solve_discounted_are,
    solve_finite_horizon,
)
from .mfg_solver import FixedPointConfig, solve_consistency_finite
from .nash_gap import epsilon_nash_gap
from .numerics import GridFunction, TimeGrid, rk4_forward_indexed
from .population_sim import PopulationConfig
from .toys import coupled_toy, decoupled_toy


def _tanh_problem(M: int = 400) -> LqgProblem:
    return LqgProblem(A=[[0.0]], B=[[1.0]], Qhat=[[0.0]], Q=[[1.0]], R=[[1.0]],
                      grid=TimeGrid(1.0, M), x0=[[1.0]])


def _euler_problem(M: int = 300) -> LqgProblem:
    return LqgProblem(
        A=[[0.2, -0.4], [0.3, 0.1]], B=[[1.0, 0.0], [0.2, 0.8]],
        b=np.array([[0.1], [-0.2]]),
        Qhat=[[0.5, 0.0], [0.0, 1.0]], Q=[[1.0, 0.1], [0.1, 1.5]],
        N_cross=[[0.05, 0.0], [0.0, -0.05]], R=[[1.0, 0.1], [0.1, 0.8]],
        eta=np.array([[0.2], [0.0]]), n_lin=np.array([[0.0], [0.1]]),
        grid=TimeGrid(1.0, M), x0=np.array([[1.0], [-0.5]]),
    )


def _open_loop_optimum(p: LqgProblem):
    sol = solve_finite_horizon(p)
    law = sol.law
    Kq = _stage_values(law.K)
    kq = _stage_values(law.k)
    bq = _stage_values(p.b)

    def rhs(q, x):
        return (p.A - p.B @ Kq[q]) @ x + p.B @ kq[q] + bq[q]

    x = rk4_forward_indexed(rhs, p.x0, p.grid)
    u_vals = -np.einsum("jab,jbc->jac", law.K.values, x.values) + law.k.values
    return GridFunction(p.grid, u_vals)


def _suite_riccati_scalar_oracle() -> str:
    p = _tanh_problem()
    sol = solve_finite_horizon(p)
    err = abs(sol.Pi.values[0].item() - math.tanh(1.0))
    s_max = float(np.abs(sol.s.values).max())
    if err >= 1e-6:
        raise AssertionError("Pi(0) off tanh(1) by %.3e" % err)
    if s_max != 0.0:
        raise AssertionError("offset not identically zero (%.3e)" % s_max)
    return "|Pi(0) - tanh 1| = %.3e" % err


def _suite_euler_equality() -> str:
    p = _euler_problem()
    u_star = _open_loop_optimum(p)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        omega = GridFunction(
            p.grid, rng.standard_normal((p.grid.num_nodes, p.m, 1)))
        worst = max(worst, abs(gateaux_derivative_det(p, u_star, omega)))
    if worst >= 1e-6:
        raise AssertionError("directional derivative %.3e at the optimum" % worst)
    return "max |dJ| over 5 directions = %.3e" % worst


def _suite_extended_terminal_conditions() -> str:
    p = coupled_toy(M=50)
    sol = solve_consistency_finite(p)
    if not np.array_equal(sol.Pi0.values[-1], sol.ext_major.Qhat):
        raise AssertionError("major terminal Riccati differs from its weight")
    for k, Pik in enumerate(sol.Pik):
        if not np.array_equal(Pik.values[-1], sol.ext_minors[k].Qhat):
            raise AssertionError("minor %d terminal Riccati differs" % k)
    offs = [float(np.abs(sol.s0.values[-1]).max())]
    offs += [float(np.abs(sk.values[-1]).max()) for sk in sol.sk]
    if max(offs) != 0.0:
        raise AssertionError("terminal offsets nonzero: %s" % offs)
    return "terminal weights bit-exact, offsets end at zero"


def _suite_consistency_fixed_point() -> str:
    p = decoupled_toy(M=100)
    sol = solve_consistency_finite(p, FixedPointConfig(theta=1.0))
    iters = sol.report.iterations
    res = sol.report.residual
    if iters > 2:
        raise AssertionError("decoupled problem took %d iterations" % iters)
    if res >= 1e-7:
        raise AssertionError("fixed-point residual %.3e" % res)
    mn = p.minors[0]
    standalone = LqgProblem(
        A=mn.Ak, B=mn.Bk, b=mn.bk, sigma=mn.sigmak, Qhat=mn.Qhatk, Q=mn.Qk,
        N_cross=mn.Nk, R=mn.Rk, rho=p.rho, grid=p.grid)
    lqg = solve_finite_horizon(standalone)
    own = slice(0, p.n)
    gap = float(np.abs(sol.Pik[0].values[:, own, own] - lqg.Pi.values).max())
    if gap >= 1e-8:
        raise AssertionError("extended block strays %.3e from standalone" % gap)
    return "%d iterations, residual %.3e, standalone match %.3e" % (
        iters, res, gap)


def _suite_infinite_horizon() -> str:
    Pi = solve_discounted_are(
        A=np.zeros((1, 1)), B=np.eye(1), Q=np.eye(1), N=np.zeros((1, 1)),
        R=np.eye(1), rho=0.0)
    err = abs(Pi.item() - 1.0)
    if err >= 1e-8:
        raise AssertionError("scalar stationary Riccati off by %.3e" % err)
    try:
        solve_discounted_are(
            A=np.eye(1), B=np.zeros((1, 1)), Q=np.zeros((1, 1)),
            N=np.zeros((1, 1)), R=np.eye(1), rho=0.0)
    except AreSolveError:
        pass
    else:
        raise AssertionError("uncontrollable unstable fixture was accepted")
    return "scalar ARE error %.3e; unstable fixture rejected" % err


def _suite_nash_gap_sign() -> str:
    p = decoupled_toy(M=100)
    sol = solve_consistency_finite(p)
    cfg = PopulationConfig(N=3, master_seed=0)
    worst = 0.0
    for dev in range(4):
        rep = epsilon_nash_gap(p, sol, cfg, dev)
        if rep.gap < -1e-8:
            raise AssertionError("deviator %d gap %.3e negative" % (dev, rep.gap))
        worst = max(worst, abs(rep.gap))
    if worst > 1e-6:
        raise AssertionError("decoupled gap %.3e above tolerance" % worst)
    return "max |gap| over 4 deviators = %.3e" % worst


def _suite_cli_determinism() -> str:
    # late import: cli_app imports this module for the verify command
    import json
    import tempfile
    from pathlib import Path

    from . import cli_app

    cfg = {
        "kind": "mfg",
        "grid": {"T": 1.0, "M": 40},
        "pi": [0.6, 0.4],
        "major": {"A0": [[0.1, 0.2], [0.0, -0.3]], "B0": [[1.0], [0.5]],
                  "Qhat0": [[0.5, 0.0], [0.0, 0.5]],
                  "Q0": [[1.0, 0.0], [0.0, 1.0]], "R0": [[1.0]],
                  "sigma0": [[0.2, 0.0], [0.0, 0.2]]},
        "minors": [
            {"Ak": [[-0.2, 0.1], [0.0, -0.4]], "Bk": [[1.0], [0.3]],
             "Qhatk": [[0.4, 0.0], [0.0, 0.4]],
             "Qk": [[1.0, 0.0], [0.0, 1.0]], "Rk": [[1.0]],
             "sigmak": [[0.2, 0.0], [0.0, 0.2]]},
            {"Ak": [[0.0, -0.1], [0.2, -0.5]], "Bk": [[0.8], [1.0]],
             "Qhatk": [[0.3, 0.0], [0.0, 0.3]],
             "Qk": [[1.2, 0.0], [0.0, 1.2]], "Rk": [[1.2]],
             "sigmak": [[0.2, 0.0], [0.0, 0.2]]},
        ],
        "population": {"N": 4, "num_paths": 2, "master_seed": 11},
        "nash": {"Ns": [2, 3]},
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "game.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for run in (1, 2):
            out = Path(tmp) / ("run%d" % run)
            code = cli_app.main(["nash-gap", "--config", str(cfg_path),
                                 "--out", str(out)])
            if code != 0:
                raise AssertionError("nash-gap exited %d" % code)
            blobs = {f.name: f.read_bytes() for f in sorted(out.iterdir())
                     if f.name != "manifest.json"}
            outputs.append(blobs)
        if outputs[0].keys() != outputs[1].keys():
            raise AssertionError("the reruns produced different files")
        for name in outputs[0]:
            if outputs[0][name] != outputs[1][name]:
                raise AssertionError("%s differs between reruns" % name)
    return "%d files byte-identical across two nash-gap runs" % len(outputs[0])


SUITES: Dict[str, Callable[[], str]] = {
    "riccati_scalar_oracle": _suite_riccati_scalar_oracle,
    "euler_equality": _suite_euler_equality,
    "extended_terminal_conditions": _suite_extended_terminal_conditions,
    "consistency_fixed_point": _suite_consistency_fixed_point,
    "infinite_horizon": _suite_infinite_horizon,
    "nash_gap_sign": _suite_nash_gap_sign,
    "cli_determinism": _suite_cli_determinism,
}


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def run_suites(names: Optional[Sequence[str]] = None) -> List[SuiteResult]:
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            results.append(SuiteResult(name, False, "unknown suite", 0.0))
            continue
        start = time.monotonic()
        try:
            detail = SUITES[name]()
            passed = True
        except (AssertionError, MmlqgError) as exc:
            detail = str(exc)
            passed = False
        results.append(SuiteResult(name, passed, detail,
                                   time.monotonic() - start))
    return results


def exit_code(results: Sequence[SuiteResult]) -> int:
    return min(sum(1 for r in results if not r.passed), 125)
