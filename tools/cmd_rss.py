"""Print the median wall time and peak resident memory of one benchmark
operation, each run in a fresh process the way perfbench/run.py runs it.

    python3 tools/cmd_rss.py simulate --runs 7 --seed 1

The workload (solve, simulate, nash or stationary) runs on the config
perfbench/workloads.make_config builds for the seed at the PINNED sizes.
The package is imported from this checkout's src/.  Wall time is measured
around the process and peak RSS is ru_maxrss from os.wait4.
"""

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import run  # noqa: E402
import workloads  # noqa: E402

parser = argparse.ArgumentParser(description="median wall time and peak RSS")
parser.add_argument("workload", choices=workloads.WORKLOADS)
parser.add_argument("--runs", type=int, default=5)
parser.add_argument("--seed", type=int, default=1)
args = parser.parse_args()

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    cfg = workloads.make_config(args.workload, args.seed, workloads.PINNED)
    cfg_path = workloads.write_config(cfg, tmp / "config.json")
    log, walls, peaks = tmp / "ops.log", [], []
    for i in range(args.runs):
        argv = workloads.op_argv(args.workload, cfg_path, tmp / ("op%d" % i))
        code, wall, peak = run.run_process(argv, run.child_env(), log)
        if code != 0:
            sys.exit("run %d exited with %d:\n%s" % (i, code, log.read_text()))
        walls.append(wall)
        peaks.append(peak)
print("%s: %d runs, median wall %.3f s, median peak RSS %.1f MB (max %.1f)" % (
    args.workload, args.runs, statistics.median(walls), statistics.median(peaks),
    max(peaks)))
