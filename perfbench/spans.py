"""Outside-in span tracer for the traced run, and its per-layer metrics.

The package itself is not instrumented.  Before the operation runs,
``Recorder.install`` replaces each public function named in ``LAYERS``
with a timing wrapper on every ``mmlqg`` module attribute that refers to
it, so callers that did ``from .numerics import rk4_backward_indexed``
see the wrapper too.  Each call records a span (name, start, end, parent
span, run id) in memory; the spans are written once, at the end.

Run as a script it performs one traced operation in-process:

    python3 perfbench/spans.py --workload solve --config game.json \\
        --out run/ --spans spans.json
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import Counter
from pathlib import Path

# Modules whose self time is reported; the root span belongs to cli_app.
MODULES = ("numerics", "lqg_single", "mfg_model", "mfg_solver",
           "population_sim", "nash_gap", "cli_app")

# Layer span name -> (defining module, public function, figures to keep).
LAYERS = {
    "numerics.rk4_sweep": ("numerics", "rk4_backward_indexed", "steps"),
    "numerics.integrate_backward": ("numerics", "integrate_backward", "steps"),
    "lqg_single.are": ("lqg_single", "solve_discounted_are", None),
    "mfg_model.build_extended_major": ("mfg_model", "build_extended_major", None),
    "mfg_model.build_extended_minor": ("mfg_model", "build_extended_minor", None),
    "mfg_solver.fixed_point_finite": ("mfg_solver", "solve_consistency_finite",
                                      "fixed_point"),
    "mfg_solver.fixed_point_infinite": ("mfg_solver",
                                        "solve_consistency_infinite",
                                        "fixed_point"),
    "population_sim.simulate": ("population_sim", "simulate_population",
                                "agent_steps"),
    "population_sim.study": ("population_sim", "mean_field_convergence_study",
                             None),
    "population_sim.expected_cost_exact": ("population_sim",
                                           "expected_cost_exact", None),
    "nash_gap.row": ("nash_gap", "gap_vs_population", "row"),
    "nash_gap.epsilon_nash_gap": ("nash_gap", "epsilon_nash_gap", "gap"),
    "nash_gap.build_joint": ("nash_gap", "build_joint_closed_loop", "joint"),
    "nash_gap.equilibrium_cost": ("nash_gap", "equilibrium_cost_ode", None),
    "nash_gap.best_response": ("nash_gap", "solve_best_response", None),
}
# Counted, not timed: R^-1 solves run ~1e5 times per fixed point.
R_SOLVER = ("lqg_single", "spd_solver")


def _figures(kind, bound, result) -> dict:
    """Work counts read off one call's arguments and result."""
    if kind == "steps":
        return {"steps": bound["grid"].num_steps}
    if kind == "fixed_point":
        return {"iterations": result.report.iterations,
                "residual": result.report.residual}
    if kind == "agent_steps":
        cfg = bound["cfg"]
        return {"agent_steps": cfg.N * cfg.num_paths
                * bound["p"].grid.num_steps}
    if kind == "row":
        return {"N": [int(N) for N in bound["Ns"]]}
    if kind == "gap":
        return dict(result.diagnostics)
    if kind == "joint":
        return {"D": result.D}
    return {}


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent, figures]
        self.stack = []
        self.errors = Counter()
        self.r_solves = 0
        self.missing = []
        self.import_s = 0.0
        self.wall_s = 0.0

    def _wrap(self, name, fn, kind):
        from mmlqg.errors import MmlqgError

        sig = inspect.signature(fn)
        module = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except MmlqgError:
                self.errors[module] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if kind is not None:
                bound = sig.bind(*args, **kwargs)
                span[4] = _figures(kind, bound.arguments, result)
            return result

        return wrapper

    def _counting_solver(self, factory):
        def counted_factory(*args, **kwargs):
            solve = factory(*args, **kwargs)

            def counted(X):
                self.r_solves += 1
                return solve(X)
            return counted
        return counted_factory

    def install(self):
        """Wrap every alias of every layer function in the loaded package."""
        import mmlqg
        import mmlqg.cli_app  # noqa: F401  (loads config and verify too)

        modules = [importlib.import_module("mmlqg." + m.name)
                   for m in pkgutil.iter_modules(mmlqg.__path__)]
        modules.append(mmlqg)

        def patch(home, fname, make):
            original = getattr(sys.modules["mmlqg." + home], fname, None)
            if original is None:
                self.missing.append("mmlqg.%s.%s" % (home, fname))
                return
            patched = make(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, patched)

        for name, (home, fname, kind) in LAYERS.items():
            patch(home, fname, lambda fn: self._wrap(name, fn, kind))
        patch(*R_SOLVER, self._counting_solver)

    def run_root(self, fn, *args):
        """Call ``fn(*args)`` as the root span."""
        span = ["cli_app.main", time.perf_counter(), None, -1, {}]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        return result

    def dump(self, path: Path, exit_code: int):
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "exit_code": exit_code,
            "spans": self.spans,
            "errors": dict(self.errors),
            "r_solves": self.r_solves,
            "missing": self.missing,
            "import_s": self.import_s,
            "wall_s": self.wall_s,
        }))


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(doc: dict, untraced_wall: float, traced_wall: float,
                  bytes_written: int) -> dict:
    """Per-layer metrics of one traced run, by name."""
    import workloads

    spans = doc["spans"]
    own = self_times(spans)
    by_name = {}
    for i, (name, start, end, parent, fig) in enumerate(spans):
        by_name.setdefault(name, []).append((end - start, fig, parent, i))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(d for d, _, _, _ in by_name.get(name, ()))

    def fig_sum(name, key):
        return sum(f.get(key, 0) for _, f, _, _ in by_name.get(name, ()))

    def fig_max(name, key):
        return max([f.get(key, 0.0) for _, f, _, _ in by_name.get(name, ())],
                   default=0.0)

    m = {}
    for layer in ("numerics.rk4_sweep", "numerics.integrate_backward"):
        m[layer + ".calls"] = calls(layer)
        m[layer + ".s"] = total(layer)
        m[layer + ".steps"] = fig_sum(layer, "steps")
    m["lqg_single.are.calls"] = calls("lqg_single.are")
    m["lqg_single.are.s"] = total("lqg_single.are")
    m["lqg_single.are.ms_per_call"] = (
        1e3 * m["lqg_single.are.s"] / m["lqg_single.are.calls"]
        if m["lqg_single.are.calls"] else 0.0)
    m["lqg_single.r_solves"] = doc["r_solves"]
    builds = ("mfg_model.build_extended_major", "mfg_model.build_extended_minor")
    m["mfg_model.build_extended.calls"] = sum(calls(b) for b in builds)
    m["mfg_model.build_extended.s"] = sum(total(b) for b in builds)

    fps = ("mfg_solver.fixed_point_finite", "mfg_solver.fixed_point_infinite")
    m["mfg_solver.fixed_point.s"] = sum(total(f) for f in fps)
    m["mfg_solver.iterations"] = sum(fig_sum(f, "iterations") for f in fps)
    m["mfg_solver.s_per_iteration"] = (
        m["mfg_solver.fixed_point.s"] / m["mfg_solver.iterations"]
        if m["mfg_solver.iterations"] else 0.0)
    m["mfg_solver.residual"] = max(fig_max(f, "residual") for f in fps)

    sims = by_name.get("population_sim.simulate", [])
    study_ids = {i for _, _, _, i in by_name.get("population_sim.study", ())}
    m["population_sim.paths.s"] = sum(d for d, _, parent, _ in sims
                                      if parent not in study_ids)
    m["population_sim.study.s"] = total("population_sim.study")
    sim_s = sum(d for d, _, _, _ in sims)
    m["population_sim.agent_steps_per_s"] = (
        fig_sum("population_sim.simulate", "agent_steps") / sim_s
        if sim_s else 0.0)
    m["population_sim.expected_cost_exact.calls"] = calls(
        "population_sim.expected_cost_exact")
    m["population_sim.expected_cost_exact.s"] = total(
        "population_sim.expected_cost_exact")

    m["nash_gap.epsilon_nash_gap.calls"] = calls("nash_gap.epsilon_nash_gap")
    m["nash_gap.epsilon_nash_gap.s"] = total("nash_gap.epsilon_nash_gap")
    m["nash_gap.build_joint.s"] = total("nash_gap.build_joint")
    m["nash_gap.equilibrium_cost.s"] = total("nash_gap.equilibrium_cost")
    m["nash_gap.best_response.s"] = total("nash_gap.best_response")
    rows = {}
    for d, fig, _, _ in by_name.get("nash_gap.row", ()):
        for N in fig.get("N", ()):
            rows[N] = rows.get(N, 0.0) + d / len(fig["N"])
    for N in workloads.PINNED["nash"]["Ns"]:
        m["nash_gap.row_s.N%d" % N] = rows.get(N, 0.0)
    m["nash_gap.joint_dim.max"] = fig_max("nash_gap.build_joint", "D")
    m["nash_gap.route_mismatch.max"] = fig_max("nash_gap.epsilon_nash_gap",
                                               "route_mismatch")
    m["nash_gap.assembly_crosscheck.max"] = fig_max(
        "nash_gap.epsilon_nash_gap", "assembly_crosscheck")

    module_self = dict.fromkeys(MODULES, 0.0)
    for (name, *_), t in zip(spans, own):
        module_self[name.split(".", 1)[0]] += t
    for mod in MODULES:
        m[mod + ".self_s"] = module_self[mod]
        m[mod + ".errors"] = doc["errors"].get(mod, 0)
    m["cli_app.errors"] += int(doc["exit_code"] != 0)
    m["cli_app.bytes_written"] = bytes_written

    root_wall = sum(end - start for _, start, end, parent, _ in spans
                    if parent < 0)
    m["trace.wall_s"] = root_wall
    m["trace.import_s"] = doc["import_s"]
    # share of the traced script's wall (all but interpreter start and exit)
    m["trace.accounted"] = (sum(module_self.values()) + doc["import_s"]) \
        / doc["wall_s"]
    m["trace.overhead"] = traced_wall / untraced_wall
    m["trace.missing"] = len(doc["missing"])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one traced operation")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import workloads

    rec = Recorder(run_id="%s-%d" % (args.workload, os.getpid()))
    rec.install()
    rec.import_s = time.perf_counter() - started
    if args.workload == "stationary":
        import stationary_op
        code = rec.run_root(stationary_op.main,
                            ["--config", args.config, "--out", args.out])
    else:
        from mmlqg import cli_app
        code = rec.run_root(cli_app.main, [
            workloads.COMMANDS[args.workload], "--config", args.config,
            "--out", args.out, "--threads", "1"])
    rec.wall_s = time.perf_counter() - started
    rec.dump(Path(args.spans), code)
    return code


if __name__ == "__main__":
    sys.exit(main())
