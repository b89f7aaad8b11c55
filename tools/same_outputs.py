"""Check that another checkout's package writes the same data files as
this one on every benchmark operation.

    python3 tools/same_outputs.py ../parent --seed 1

Each workload runs on its perfbench/workloads.make_config config at the
PINNED sizes in a fresh process, with this checkout's src/ and OTHER's.
Per workload it prints the data files (all but manifest.json) whose
sha256 differs and each side's largest departure from the values in
perfbench/reference.json, in tolerances.  It exits 1 on any difference.
"""

import argparse
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def largest_move(w, out, ref):
    """Largest |value - reference| of the recorded values, in tolerances."""
    vals = gate.values(w, out)
    return max((abs(vals.get(k, math.inf) - v) / (ref["atol"] + ref["rtol"] * abs(v))
                for k, v in ref["values"].items()), default=0.0)


parser = argparse.ArgumentParser(description="compare data files with another checkout")
parser.add_argument("other", type=Path, help="root of the other checkout")
parser.add_argument("--seed", type=int, default=1)
args = parser.parse_args()

failed = False
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    for w in workloads.WORKLOADS:
        cfg = workloads.make_config(w, args.seed, workloads.PINNED)
        cfg_path = workloads.write_config(cfg, tmp / (w + ".json"))
        ref = gate.load_reference(w, workloads.PINNED)
        hashes, moves = [], []
        for side, root in (("this", ROOT), ("other", args.other.resolve())):
            out, env, log = tmp / w / side, run.child_env(), tmp / "ops.log"
            env["PYTHONPATH"] = str(root / "src")
            code, _, _ = run.run_process(workloads.op_argv(w, cfg_path, out), env, log)
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
sys.exit(1 if failed else 0)
