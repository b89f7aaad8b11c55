"""Command-line batch interface.

Subcommands: solve-lqg, solve-mfg, simulate, nash-gap, verify.  Each
data command writes data files that are a pure function of (config
bytes, master seed) and returns the seed it used; `main` times it and,
only once it succeeds, writes manifest.json, the one file that moves
between reruns.  --threads is accepted and ignored.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 assumption violation.

Each command imports only what it runs.  This module loads config,
errors, numerics, lqg_single, mfg_model and mfg_solver, all that
solve-lqg and solve-mfg need; simulate adds population_sim, nash-gap
adds nash_gap (which imports population_sim), and verify loads every
module.  hashlib loads only when the manifest is written.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config
from .errors import AssumptionViolationError, NumericalError, SchemaError
from .lqg_single import expected_cost, solve_finite_horizon
from .mfg_solver import solve_consistency_finite
from .numerics import _as_seed


# Rows formatted and written at a time: a file's memory stays that of a block.
CSV_BLOCK = 2 ** 13


def _write_blocks(path: Path, header, blocks):
    """The header, then each block of equal-length columns, integer ones as
    %d and the rest as %.17g: one format string covers the block's rows
    and is applied, in one call, to the flat tuple of its cells in row
    order."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for cols in blocks:
            line = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                            for c in cols) + "\n"
            cells = [None] * (len(cols[0]) * len(cols))
            for i, c in enumerate(cols):
                cells[i::len(cols)] = c.tolist()
            fh.write((line * len(cols[0])) % tuple(cells))


def _write_csv(path: Path, header, columns):
    """CSV of equal-length columns, CSV_BLOCK rows at a time."""
    cols = [np.asarray(c) for c in columns]
    rows = len(cols[0]) if cols else 0
    _write_blocks(path, header, ([c[a:a + CSV_BLOCK] for c in cols]
                                 for a in range(0, rows, CSV_BLOCK)))


def _write_table(path: Path, header, values: np.ndarray):
    """Long format of an n-d table: per entry its indices, then its value;
    each block's indices come from its own range of flat positions."""
    values = np.asarray(values, dtype=float)
    flat = values.reshape(-1)
    _write_blocks(path, header, (
        np.unravel_index(np.arange(a, min(a + CSV_BLOCK, flat.size)), values.shape)
        + (flat[a:a + CSV_BLOCK],) for a in range(0, flat.size, CSV_BLOCK)))


def _write_grid_tables(out: Path, tables: dict):
    """(node, row, col, value) files of (nodes, r, c) tables, by file name."""
    for name, values in tables.items():
        _write_table(out / name, ("node", "row", "col", "value"), values)


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_manifest(out: Path, command: str, cfg_path: str, cfg: dict,
                    seed, timings: dict):
    payload = {
        "command": command,
        "config_path": cfg_path,
        "config_sha256": config.canonical_hash(cfg),
        "master_seed": seed,
        "artifact_version": __version__,
        "out_dir": str(out),
        "timings": timings,
    }
    _write_json(out / "manifest.json", payload)


def _report_dict(report) -> dict:
    return {
        "passed": report.ok,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    }


def cmd_solve_lqg(cfg: dict, out: Path, seed):
    p = config.parse_lqg_problem(cfg)
    sol = solve_finite_horizon(p)
    J = expected_cost(p, sol)
    # feedforward.csv holds -k: u = -K x - feedforward
    _write_grid_tables(out, {"pi.csv": sol.Pi.values, "s.csv": sol.s.values,
                             "gains.csv": sol.law.K.values,
                             "feedforward.csv": -sol.law.k.values})
    _write_json(out / "summary.json", {
        "J_star": J,
        "Pi0": sol.Pi.values[0].tolist(),
        "s0": sol.s.values[0].tolist(),
        "validation": _report_dict(sol.validation),
        "grid": {"T": p.grid.t_end, "M": p.grid.num_steps},
    })
    return seed


def cmd_solve_mfg(cfg: dict, out: Path, seed):
    p = config.parse_mfg_problem(cfg)
    sol = solve_consistency_finite(p, config.parse_fixed_point(cfg))
    tables = {"pi_major.csv": sol.Pi0.values, "s_major.csv": sol.s0.values,
              "gains_major.csv": sol.major_law.K.values,
              "mf_Abar.csv": sol.mf_law.Abar.values,
              "mf_Gbar.csv": sol.mf_law.Gbar.values,
              "mf_mbar.csv": sol.mf_law.mbar.values}
    for k in range(p.K):
        tables["pi_minor%d.csv" % k] = sol.Pik[k].values
        tables["s_minor%d.csv" % k] = sol.sk[k].values
        tables["gains_minor%d.csv" % k] = sol.minor_laws[k].K.values
    _write_grid_tables(out, tables)
    _write_table(out / "residuals.csv", ("iteration", "residual"),
                 sol.report.residual_history)
    term_gap = max(
        [float(np.abs(sol.Pi0.values[-1] - sol.ext_major.Qhat).max())]
        + [float(np.abs(sol.Pik[k].values[-1] - sol.ext_minors[k].Qhat).max())
           for k in range(p.K)])
    _write_json(out / "summary.json", {
        "iterations": sol.report.iterations,
        "residual": sol.report.residual,
        "converged": sol.report.converged,
        "terminal_weight_gap": term_gap,
        "assumptions": _report_dict(sol.validation),
        "grid": {"T": p.grid.t_end, "M": p.grid.num_steps},
    })
    return seed


def cmd_simulate(cfg: dict, out: Path, seed):
    from .population_sim import (PopulationConfig, mean_field_convergence_study,
                                 simulate_population)

    p = config.parse_mfg_problem(cfg)
    pop = config.parse_population(cfg)
    if "N" not in pop:
        raise SchemaError("$.population: missing key 'N'")
    if seed is not None:
        pop["master_seed"] = seed
    study = config.parse_study(cfg)
    sol = solve_consistency_finite(p, config.parse_fixed_point(cfg))
    pcfg = PopulationConfig(N=pop["N"], num_paths=pop["num_paths"],
                            master_seed=pop["master_seed"],
                            record_states=pop["record_states"])
    bundle = simulate_population(p, sol, pcfg)
    if pcfg.record_states:
        _write_table(out / "states.csv", ("path", "node", "agent", "row", "value"),
                     bundle.states)
    _write_table(out / "mean_field.csv", ("path", "node", "row", "value"),
                 bundle.xbar)
    _write_table(out / "empirical_mean.csv", ("path", "node", "row", "value"),
                 bundle.empirical_types)
    summary = {
        "N": pop["N"],
        "num_paths": pop["num_paths"],
        "master_seed": pop["master_seed"],
        "grid": {"T": p.grid.t_end, "M": p.grid.num_steps},
    }
    if study is not None:
        result = mean_field_convergence_study(p, sol, study["Ns"])
        _write_csv(out / "convergence.csv", ("N", "rms"),
                   zip(*result.rows))       # rows to columns
        summary["convergence_slope"] = result.slope
    _write_json(out / "summary.json", summary)
    return pop["master_seed"]


def cmd_nash_gap(cfg: dict, out: Path, seed):
    from .nash_gap import gap_vs_population

    p = config.parse_mfg_problem(cfg)
    nash = config.parse_nash(cfg)
    if seed is not None:
        nash["master_seed"] = seed
    sol = solve_consistency_finite(p, config.parse_fixed_point(cfg))
    rows = gap_vs_population(p, sol, nash["Ns"]).rows
    header = (["N", "major_gap"]
              + ["type%d_gap" % k for k in range(p.K)] + ["max_gap"])
    _write_csv(out / "gaps.csv", header,
               zip(*([row.N, row.major_gap] + list(row.type_gaps) + [row.max_gap]
                     for row in rows)))
    _write_json(out / "summary.json", {
        "Ns": [row.N for row in rows],
        "max_gaps": [row.max_gap for row in rows],
        "identity_mismatch": [row.identity_mismatch for row in rows],
        "assembly_crosscheck": [row.assembly_crosscheck for row in rows],
        "all_nonnegative": bool(all(
            g >= -1e-8 for row in rows
            for g in [row.major_gap] + list(row.type_gaps))),
        "master_seed": nash["master_seed"],
    })
    return nash["master_seed"]


def cmd_verify(out) -> int:
    from . import verify

    results = verify.run_suites()
    width = max(len(r.name) for r in results)
    for r in results:
        print("%s  %-*s  %5.1fs  %s" % (
            "PASS" if r.passed else "FAIL", width, r.name, r.seconds,
            r.detail))
    failed = verify.exit_code(results)
    print("%d/%d suites passed" % (len(results) - failed, len(results)))
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "verify_report.json", {
            "suites": [{"name": r.name, "passed": r.passed,
                        "detail": r.detail} for r in results],
            "failed": failed,
        })
    return failed


_COMMANDS = {
    "solve-lqg": cmd_solve_lqg,
    "solve-mfg": cmd_solve_mfg,
    "simulate": cmd_simulate,
    "nash-gap": cmd_nash_gap,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmlqg",
        description="Major-minor LQG mean-field game solver and simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored; commands run serially")
    sp = sub.add_parser("verify")
    sp.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.out)
        seed = None if args.seed is None else _as_seed(args.seed, "--seed")
        cfg = config.load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        seed = _COMMANDS[args.command](cfg, out, seed)
        _write_manifest(out, args.command, args.config, cfg, seed,
                        {"wall_s": time.monotonic() - started})
        return 0
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
