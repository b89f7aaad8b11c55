"""The ``stationary`` workload's operation: the infinite-horizon fixed point.

No CLI command reaches ``solve_consistency_infinite``, so this script
plays the CLI's part: it loads the game from its config, solves the
stationary consistency problem and writes ``summary.json`` (scalars) and
``stationary.json`` (every matrix of the solution, floats in full
precision), with the CLI's exit codes on failure.

    python3 perfbench/stationary_op.py --config game.json --out run/
"""

import argparse
import json
import sys
from pathlib import Path

from mmlqg import config, mfg_solver
from mmlqg.errors import AssumptionViolationError, NumericalError, SchemaError


def run(config_path: str, out: Path) -> int:
    cfg = config.load_config(config_path)
    p = config.parse_mfg_problem(cfg)
    fp = config.parse_fixed_point(cfg) or mfg_solver.FixedPointConfig()
    # looked up on the module, so the traced run's wrapper sees the call
    sol = mfg_solver.solve_consistency_infinite(p, fp)
    out.mkdir(parents=True, exist_ok=True)
    data = {
        "Pi0": sol.Pi0.tolist(), "s0": sol.s0.tolist(),
        "Pik": [P.tolist() for P in sol.Pik], "sk": [s.tolist() for s in sol.sk],
        "Abar": sol.Abar.tolist(), "Gbar": sol.Gbar.tolist(),
        "mbar": sol.mbar.tolist(),
        "major_gain": sol.major_gain.tolist(),
        "minor_gains": [G.tolist() for G in sol.minor_gains],
    }
    (out / "stationary.json").write_text(json.dumps(data, sort_keys=True) + "\n")
    (out / "summary.json").write_text(json.dumps({
        "iterations": sol.report.iterations,
        "residual": sol.report.residual,
        "converged": sol.report.converged,
        "tol": fp.tol,
    }, sort_keys=True, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        return run(args.config, Path(args.out))
    except SchemaError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except AssumptionViolationError as exc:
        print("assumption violation: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
