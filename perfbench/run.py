"""Benchmark runner for mmlqg.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn; its result line keys
each metric by workload (``solve.wall_s``).

Run from a checkout of the repository; the package is imported from its
``src/``.  With ``--trace 0`` the runner generates the workload's config
from the seed, then until ``--seconds`` are used (and at least twice) it
times ``import mmlqg`` in a fresh interpreter (setup) and runs the
operation in a fresh process, checking every output (see ``gate.py``).  It
prints the end-to-end metrics: median wall time, setup time and peak
resident memory of an operation.

With ``--trace 1`` it runs the operation once untraced and once traced
in-process (``spans.py``) and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SETUPS = 5
MIN_OPS = 2          # the byte-identity check needs a second run
OP_TIMEOUT_S = 120
ACCOUNTED_TOL = 0.05


def child_env() -> dict:
    """One busy core: package threads and BLAS threads pinned to 1."""
    env = dict(os.environ)
    env.pop("MFG_LQG_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_process(argv, env, log: Path):
    """Run one process to completion: (exit code, wall s, peak RSS MB)."""
    with log.open("ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4, not wait: it returns the child's own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    """What a result must carry so that results are never compared blindly."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": dict({v: "1" for v in THREAD_VARS}, cli="--threads 1"),
        "commit": commit,
    }


class Run:
    """One invocation: its work directory, config and operation records."""

    def __init__(self, workload: str, seed: int, workdir: Path, sizes: dict):
        import gate
        import workloads

        self.workload = workload
        self.sizes = sizes
        self.workdir = workdir
        self.env = child_env()
        self.log = workdir / "ops.log"
        cfg = workloads.make_config(workload, seed, sizes)
        self.config_problems = ["config differs from coupled_toy at %s" % k
                                for k in workloads.config_mismatches(cfg)]
        self.config = workloads.write_config(cfg, workdir / "config.json")
        self.reference = gate.load_reference(workload, sizes)
        self.first_hashes = None
        self.failures = []       # (operation index, reason)
        self.attempted = 0

    def operation(self, argv=None, keep=False):
        """Run and check one operation: (wall s, peak RSS MB, out dir)."""
        import gate
        import workloads

        index = self.attempted
        self.attempted += 1
        out = self.workdir / ("op%d" % index)
        if argv is None:
            argv = workloads.op_argv(self.workload, self.config, out)
        code, wall, rss = run_process(argv, self.env, self.log)
        hashes = gate.data_hashes(out) if out.is_dir() else {}
        bad = gate.check(self.workload, code, out, self.sizes, self.reference,
                         hashes, self.first_hashes)
        if self.first_hashes is None and not bad:
            self.first_hashes = hashes
        self.failures += [(index, reason) for reason in bad]
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return wall, rss, out

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.failures})


def end_to_end(run: Run, seconds: float) -> dict:
    # Setup samples alternate with the operations, so that both spread
    # over the whole run instead of sharing one moment's machine speed.
    setup_argv = [sys.executable, "-c", "import mmlqg"]
    run_process(setup_argv, run.env, run.log)     # warm the bytecode cache
    setups, walls, rss = [], [], []
    start = time.perf_counter()
    while True:
        setups.append(run_process(setup_argv, run.env, run.log)[1])
        wall, peak, _ = run.operation()
        walls.append(wall)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        per_op = statistics.median(walls) + statistics.median(setups)
        if len(walls) >= MIN_OPS and elapsed + per_op > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run_process(setup_argv, run.env, run.log)[1])
    print("wall_s      %8.3f s   median of %d: %s" % (
        statistics.median(walls), len(walls),
        " ".join("%.3f" % w for w in walls)))
    print("setup_s     %8.3f s   median of %d: %s" % (
        statistics.median(setups), len(setups),
        " ".join("%.3f" % s for s in setups)))
    print("peak_rss_mb %8.1f MB  median of %d" % (statistics.median(rss), len(rss)))
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def per_layer(run: Run) -> dict:
    import spans

    untraced_wall, _, _ = run.operation()
    out = run.workdir / ("op%d" % run.attempted)
    span_file = run.workdir / "spans.json"
    argv = [sys.executable, str(HERE / "spans.py"), "--workload", run.workload,
            "--config", str(run.config), "--out", str(out),
            "--spans", str(span_file)]
    traced_wall, _, out = run.operation(argv, keep=True)
    if not span_file.exists():
        run.failures.append((run.attempted - 1, "traced run wrote no spans"))
        return {}
    written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
    shutil.rmtree(out, ignore_errors=True)
    doc = json.loads(span_file.read_text())
    metrics = spans.layer_metrics(doc, untraced_wall, traced_wall, written)
    for name in doc["missing"]:
        print("trace: wrapped function %s no longer exists; its layer reads 0"
              % name)
    if not abs(metrics["trace.accounted"] - 1.0) <= ACCOUNTED_TOL:
        run.failures.append((run.attempted - 1,
                             "self times cover %.1f%% of the traced wall"
                             % (100 * metrics["trace.accounted"])))
    for name, value in metrics.items():
        print("%-40s %.6g" % (name, value))
    units = _layer_units()
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def _layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(run: Run, trace: bool, seconds: float) -> dict:
    """Measure one workload; its result object."""
    metrics = per_layer(run) if trace else end_to_end(run, seconds)
    problems = run.config_problems + [
        "op%d: %s" % failure for failure in run.failures]
    for problem in problems:
        print("FAILED %s" % problem)
    if problems and run.log.exists():
        sys.stderr.write(run.log.read_text()[-4000:])
    print("error_rate  %8.3f     share: %d failed of %d attempted" % (
        run.failed / max(run.attempted, 1), run.failed, run.attempted))
    return {"correct": not problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mmlqg benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("solve", "simulate", "nash", "stationary",
                                 "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run once and store the outputs as the reference")
    args = parser.parse_args(argv)

    if not (SRC / "mmlqg" / "__init__.py").is_file():
        print("error: no mmlqg package under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mmlqg
    if Path(mmlqg.__file__).resolve().parent != (SRC / "mmlqg").resolve():
        print("error: imported mmlqg from %s, not from %s"
              % (mmlqg.__file__, SRC), file=sys.stderr)
        return 2
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    print("env %s" % json.dumps(environment(), sort_keys=True))
    results = {}
    for name in names:
        WORK.mkdir(exist_ok=True)
        workdir = WORK / ("%s-%d" % (name, os.getpid()))
        workdir.mkdir()
        try:
            run = Run(name, args.seed, workdir, workloads.PINNED)
            print("workload %s  seed %d  master_seed %d"
                  % (name, args.seed, workloads.master_seed(args.seed)))
            if args.record_reference:
                if record_reference(run):
                    return 1
                continue
            results[name] = run_workload(run, args.trace, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass
    if args.record_reference:
        return 0
    if args.workload != "all":
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (name, key): value
                        for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


def record_reference(run: Run) -> int:
    """Store this workload's outputs in reference.json (a new baseline)."""
    import gate

    run.reference = None
    _, _, out = run.operation(keep=True)
    if run.failures:
        print("not recorded: %s" % run.failures, file=sys.stderr)
        return 1
    refs = (json.loads(gate.REFERENCE.read_text())
            if gate.REFERENCE.exists() else {})
    refs[run.workload] = gate.record(run.workload, out, run.sizes)
    gate.REFERENCE.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
    print("recorded %d reference values for %s"
          % (len(refs[run.workload]["values"]), run.workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
