"""Check that another checkout's package writes the same data files as
this one on every benchmark operation.

    python3 tools/same_outputs.py ../parent --seed 1

Each workload runs on its perfbench/workloads.make_config config at the
PINNED sizes in a fresh process, with this checkout's src/ and OTHER's.
So do eight operations the benchmark does not run:
- solve-lqg on the pinned 2-state config LQG below;
- lqg-inf, solve_infinite_horizon on that config (rho = 0.5, constant
  b), which no command reaches: LQG_INF writes its Pi, s, K, k and
  are_residual to stationary.json;
- verify --out;
- sim-wide, simulate with N = 4500 minors at M = 10 and no study, whose
  (N + 1) x n rows per node exceed cli_app.CSV_BLOCK, so that states.csv
  takes the writer's branch where the trailing axes do not fit in a block;
- sim-empty, simulate on the pinned game with pi = [1, 0], N = 3, 2 paths
  and study Ns [1, 2, 4], so that type 1 has no minors and an empty type
  is covered end to end;
- nash-large, nash-gap on the pinned game at M = 100 with Ns [100, 10^4,
  10^6], whose gaps lie nearest roundoff: a change in how the exact costs
  round shows there first;
- sim-n3, simulate on n3_game(), 3 states and 3 types with pi = [0.5, 0,
  0.5], N = 5, 2 paths and study Ns [1, 3, 8], so that an empty middle
  type and n != 2 are covered end to end;
- nash-n3, nash-gap on n3_game() with pi = [0.3, 0.3, 0.4] and Ns [10,
  1000, 10^5], so that the per-agent steps of the type assignment with
  K >= 3 types, at scale, and a 3-type gap table are covered.
Per operation it prints the data files (all but manifest.json) whose
sha256 differs and, for the workloads, each side's largest departure
from the values in perfbench/reference.json, in tolerances.  For each
differing CSV or JSON file it also prints the largest absolute and
relative difference over the numeric cells both sides hold, so a
roundoff change shows as one, and the key paths of up to five
differing non-numeric cells (a changed string, such as a verify suite's
detail).  It exits 1 on any difference.
"""

import argparse
import csv
import functools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MAX_NAMED = 5   # differing non-numeric cells named per file


def largest_move(w, out, ref):
    """Largest |value - reference| of the recorded values, in tolerances."""
    vals = gate.values(w, out)
    return max((abs(vals.get(k, math.inf) - v) / (ref["atol"] + ref["rtol"] * abs(v))
                for k, v in ref["values"].items()), default=0.0)


def file_cells(path: Path) -> dict:
    """Every cell of a CSV file by (row, column), or every leaf of a JSON
    file by key path: numbers as floats, other cells as they are."""
    if path.suffix == ".json":
        cells = {}

        def walk(node, key):
            items = node.items() if isinstance(node, dict) else \
                enumerate(node) if isinstance(node, list) else None
            if items is not None:
                for k, v in items:
                    walk(v, key + (k,))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                cells[key] = float(node)
            else:
                cells[key] = node

        walk(json.loads(path.read_text()), ())
        return cells
    cells = {}
    with path.open() as fh:
        for i, row in enumerate(csv.reader(fh)):
            for j, v in enumerate(row):
                try:
                    cells[i, j] = float(v)
                except ValueError:
                    cells[i, j] = v
    return cells


def largest_difference(a: Path, b: Path) -> str:
    """The largest absolute and relative difference between the numeric
    cells of two data files, the key paths (CSV: row/column) of up to
    MAX_NAMED differing other cells, and how many cells only one of them
    holds."""
    x, y = file_cells(a), file_cells(b)
    differ = [k for k in x if k in y and not x[k] == y[k]]

    def numeric(k):
        return isinstance(x[k], float) and isinstance(y[k], float)

    diffs = [(abs(x[k] - y[k]), abs(x[k] - y[k]) / max(abs(x[k]), abs(y[k])))
             for k in differ if numeric(k)]
    text = "largest difference %.3g abs, %.3g rel" % tuple(
        max((d[i] for d in diffs), default=0.0) for i in (0, 1))
    other = [k for k in differ if not numeric(k)]
    if other:
        text += "; %d non-numeric cells differ: %s%s" % (
            len(other), ", ".join("/".join(map(str, k)) for k in other[:MAX_NAMED]),
            ", ..." if len(other) > MAX_NAMED else "")
    unmatched = len(x.keys() ^ y.keys())
    return text + ("; %d cells on one side only" % unmatched if unmatched else "")


# noise, discount, a cross weight, both targets, a constant b and x0
LQG = {"kind": "lqg", "grid": {"T": 1.0, "M": 200}, "rho": 0.5,
       "A": [[0.1, 0.4], [-0.3, -0.2]], "B": [[1.0], [0.5]], "b": [[0.1], [-0.05]],
       "sigma": [[0.3, 0.0], [0.1, 0.2]], "Q": [[1.0, 0.2], [0.2, 0.8]],
       "N": [[0.1], [0.0]], "R": [[1.5]], "Qhat": [[0.5, 0.0], [0.0, 0.3]],
       "eta": [[0.2], [-0.1]], "n": [[0.05]], "x0": [[1.0], [-0.5]]}
CLI = [sys.executable, "-m", "mmlqg.cli_app"]
# python -c LQG_INF CONFIG OUT: the standalone stationary front end's data file
LQG_INF = """import json, sys
from pathlib import Path
from mmlqg import config
from mmlqg.lqg_single import solve_infinite_horizon
st = solve_infinite_horizon(config.parse_lqg_problem(config.load_config(sys.argv[1])))
out = Path(sys.argv[2])
out.mkdir(parents=True, exist_ok=True)
(out / "stationary.json").write_text(json.dumps(dict(
    Pi=st.Pi.tolist(), s=st.s.tolist(), K=st.K.tolist(), k=st.k.tolist(),
    are_residual=st.are_residual), sort_keys=True) + "\\n")
"""


def n3_game() -> dict:
    """A 3-state, 2-input game of 3 minor types, the middle one empty:
    stable drifts, positive definite weights and moderate couplings, drawn
    once from a fixed seed and rounded to 3 decimals."""
    rng = np.random.default_rng(0)
    n, m = 3, 2

    def mat(rows, cols, scale):
        return rng.normal(scale=scale, size=(rows, cols))

    def spd(d, floor):
        L = mat(d, d, 0.5)
        return L @ L.T + floor * np.eye(d)

    def agent(suffix, extra):
        values = dict(A=-0.5 * np.eye(n) + mat(n, n, 0.2), B=mat(n, m, 1.0), b=mat(n, 1, 0.2),
                      sigma=0.2 * np.eye(n), Qhat=spd(n, 0.1), Q=spd(n, 0.5),
                      N=mat(n, m, 0.05), R=spd(m, 0.5), H=mat(n, n, 0.2), eta=mat(n, 1, 0.3),
                      **extra)
        return {key + suffix: np.round(values[key], 3).tolist() for key in values}

    return {"kind": "mfg", "grid": {"T": 1.0, "M": 20}, "pi": [0.5, 0.0, 0.5],
            "major": agent("0", dict(F=mat(n, n, 0.2))),
            "minors": [agent("k", dict(F=mat(n, n, 0.2), G=mat(n, n, 0.2),
                                       Hhat=mat(n, n, 0.2))) for _ in range(3)],
            "init_cov_major": (0.2 * np.eye(n)).tolist(),
            "init_cov_minor": (0.2 * np.eye(n)).tolist()}


parser = argparse.ArgumentParser(description="compare data files with another checkout")
parser.add_argument("other", type=Path, help="root of the other checkout")
parser.add_argument("--seed", type=int, default=1)
args = parser.parse_args()

failed = False
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    ops = []      # (name, argv of an output directory, reference or None)
    for w in workloads.WORKLOADS:
        cfg_path = workloads.write_config(workloads.make_config(w, args.seed, workloads.PINNED),
                                          tmp / (w + ".json"))
        ops.append((w, functools.partial(workloads.op_argv, w, cfg_path),
                    gate.load_reference(w, workloads.PINNED)))
    lqg_path = workloads.write_config(LQG, tmp / "lqg.json")
    ops.append(("solve-lqg", lambda out: CLI + ["solve-lqg", "--config", str(lqg_path),
                                                "--out", str(out)], None))
    ops.append(("lqg-inf", lambda out: [sys.executable, "-c", LQG_INF, str(lqg_path),
                                        str(out)], None))
    ops.append(("verify", lambda out: CLI + ["verify", "--out", str(out)], None))
    wide_path = workloads.write_config(dict(workloads.game_config(10), population={
        "N": 4500, "num_paths": 1, "master_seed": workloads.master_seed(args.seed)}),
        tmp / "wide.json")
    ops.append(("sim-wide", lambda out: CLI + ["simulate", "--config", str(wide_path),
                                               "--out", str(out)], None))
    empty = workloads.make_config("simulate", args.seed, workloads.PINNED)
    empty.update(pi=[1.0, 0.0], study={"Ns": [1, 2, 4]})
    empty["population"].update(N=3, num_paths=2)
    empty_path = workloads.write_config(empty, tmp / "empty.json")
    ops.append(("sim-empty", lambda out: CLI + ["simulate", "--config", str(empty_path),
                                                "--out", str(out)], None))
    large_path = workloads.write_config(dict(workloads.game_config(100), nash={
        "Ns": [100, 10 ** 4, 10 ** 6], "master_seed": workloads.master_seed(args.seed)}),
        tmp / "large.json")
    ops.append(("nash-large", lambda out: CLI + ["nash-gap", "--config", str(large_path),
                                                 "--out", str(out)], None))
    n3_path = workloads.write_config(dict(n3_game(), study={"Ns": [1, 3, 8]}, population={
        "N": 5, "num_paths": 2, "master_seed": workloads.master_seed(args.seed)}),
        tmp / "n3.json")
    ops.append(("sim-n3", lambda out: CLI + ["simulate", "--config", str(n3_path),
                                             "--out", str(out)], None))
    n3_nash_path = workloads.write_config(dict(n3_game(), pi=[0.3, 0.3, 0.4], nash={
        "Ns": [10, 1000, 10 ** 5], "master_seed": workloads.master_seed(args.seed)}),
        tmp / "n3_nash.json")
    ops.append(("nash-n3", lambda out: CLI + ["nash-gap", "--config", str(n3_nash_path),
                                              "--out", str(out)], None))
    for w, argv, ref in ops:
        hashes, moves, outs = [], [], []
        for side, root in (("this", ROOT), ("other", args.other.resolve())):
            out, env, log = tmp / w / side, run.child_env(), tmp / "ops.log"
            outs.append(out)
            env["PYTHONPATH"] = str(root / "src")
            code, _, _ = run.run_process(argv(out), env, log)
            if code != 0:
                sys.exit("%s: %s run exited with %d:\n%s" % (w, side, code, log.read_text()))
            hashes.append(gate.data_hashes(out))
            moves.append("%.3g" % largest_move(w, out, ref) if ref else "-")
        differ = sorted(k for k in set(hashes[0]) | set(hashes[1])
                        if hashes[0].get(k) != hashes[1].get(k))
        failed = failed or bool(differ)
        print("%-10s %d data files %s; largest move against the reference: this %s, "
              "other %s tolerances" % (w, len(hashes[0]), "differ: " + ", ".join(differ)
                                       if differ else "byte-identical", *moves))
        for name in differ:
            if name in hashes[0] and name in hashes[1] and Path(name).suffix in (".csv", ".json"):
                print("    %s: %s" % (name, largest_difference(*(out / name for out in outs))))
sys.exit(1 if failed else 0)
