"""Print the median wall time and peak resident memory of one benchmark
operation, each run in a fresh process the way perfbench/run.py runs it.

    python3 tools/cmd_rss.py simulate --runs 7 --seed 1
    python3 tools/cmd_rss.py setup --runs 20 --against ../parent

The workload (solve, simulate, nash or stationary) runs on the config
perfbench/workloads.make_config builds for the seed at the PINNED sizes;
the `setup` pseudo-workload times `python -c "import mmlqg"`, the
harness's setup_s.  Every process gets run.child_env(), the harness's
environment, with the package imported from this checkout's src/.  Wall
time is measured around the process and peak RSS is ru_maxrss from
os.wait4.

With --against OTHER, each of the --runs pairs runs this checkout's src/
and OTHER's, the side that goes first alternating from pair to pair.
Per side it prints the median and quartiles of both metrics, and per
metric how many pairs this side won (lower) and tied.
"""

import argparse
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import run  # noqa: E402
import workloads  # noqa: E402

parser = argparse.ArgumentParser(description="median wall time and peak RSS")
parser.add_argument("workload", choices=workloads.WORKLOADS + ("setup",))
parser.add_argument("--runs", type=int, default=5)
parser.add_argument("--seed", type=int, default=1)
parser.add_argument("--against", type=Path, metavar="OTHER_CHECKOUT",
                    help="root of another checkout to alternate runs with")
args = parser.parse_args()

sides = [("this", ROOT)]
if args.against is not None:
    other = args.against.resolve()
    if not (other / "src" / "mmlqg" / "__init__.py").is_file():
        sys.exit("no mmlqg package under %s" % (other / "src"))
    sides.append(("other", other))


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    if args.workload == "setup":
        argv = [sys.executable, "-c", "import mmlqg"]
    else:
        cfg = workloads.make_config(args.workload, args.seed, workloads.PINNED)
        argv = workloads.op_argv(args.workload, workloads.write_config(
            cfg, tmp / "config.json"), tmp / "op")
    log = tmp / "ops.log"
    walls = {name: [] for name, _ in sides}
    peaks = {name: [] for name, _ in sides}
    for i in range(args.runs):
        for name, root in sides[::-1] if i % 2 else sides:
            env = run.child_env()
            env["PYTHONPATH"] = str(root / "src")
            code, wall, peak = run.run_process(argv, env, log)
            if code != 0:
                sys.exit("%s run %d exited with %d:\n%s" % (name, i, code, log.read_text()))
            shutil.rmtree(tmp / "op", ignore_errors=True)
            walls[name].append(wall)
            peaks[name].append(peak)

for name, _ in sides:
    (w1, w2, w3), (p1, p2, p3) = quartiles(walls[name]), quartiles(peaks[name])
    print("%s %s: %d runs, median wall %.3f s (quartiles %.3f, %.3f), median peak "
          "RSS %.1f MB (quartiles %.1f, %.1f; max %.1f)" % (
              name, args.workload, args.runs, w2, w1, w3, p2, p1, p3, max(peaks[name])))
if args.against is not None:
    for metric, values in (("wall", walls), ("peak RSS", peaks)):
        pairs = list(zip(values["this"], values["other"]))
        print("%s: this won %d of %d pairs, tied %d" % (
            metric, sum(a < b for a, b in pairs), len(pairs),
            sum(a == b for a, b in pairs)))
