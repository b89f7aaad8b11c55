"""Correctness gate: what makes one benchmark operation count as failed.

An operation fails on any of:

- a non-zero exit code;
- a broken invariant of its workload (see ``invariants``);
- a value further than the stated tolerance from the reference recorded
  in ``reference.json`` (only when the run uses the recorded sizes);
- data files (every output but ``manifest.json``) that are not
  byte-identical to the first operation of the same invocation.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# The demonstration game: state dimension and number of minor types.
N_STATE, K_TYPES = 2, 2
FIXED_POINT_TOL = 1e-8          # the solver default every workload uses
GAP_FLOOR = -1e-8               # roundoff allowance on a nonnegative gap
SLOPE, SLOPE_TOL = -0.5, 0.15   # acceptance criterion 6
GAP_DECAY = 0.5                 # acceptance criterion 7

# Reference tolerances, |value - ref| <= atol + rtol * |ref|.  They admit
# a different fixed-point algorithm stopping at the same tolerance.
TOLERANCES = {
    "solve": {"atol": 1e-7, "rtol": 1e-6},
    "nash": {"atol": 1e-8, "rtol": 1e-5},
    "stationary": {"atol": 1e-7, "rtol": 1e-6},
}


def data_hashes(out: Path) -> dict:
    """sha256 of every data file of one operation (manifest excluded)."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())
            if f.is_file() and f.name != "manifest.json"}


def _node0(path: Path) -> dict:
    """Node-0 entries of a long-format grid CSV (node,row,col,value)."""
    vals = {}
    with path.open() as fh:
        rows = csv.reader(fh)
        next(rows)
        for node, r, c, v in rows:
            if node != "0":
                break
            vals["%s[%s,%s]" % (path.stem, r, c)] = float(v)
    return vals


def _lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _gap_rows(out: Path) -> list:
    with (out / "gaps.csv").open() as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def values(workload: str, out: Path) -> dict:
    """Seed-independent outputs compared against the reference."""
    if workload == "solve":
        vals = {}
        for f in sorted(out.glob("*.csv")):
            if f.name != "residuals.csv":
                vals.update(_node0(f))
        return vals
    if workload == "nash":
        return {"N%d.%s" % (row["N"], key): v
                for row in _gap_rows(out) for key, v in row.items()
                if key != "N"}
    if workload == "stationary":
        data = json.loads((out / "stationary.json").read_text())
        vals = {}

        def flatten(prefix, v):
            if isinstance(v, list):
                for i, item in enumerate(v):
                    flatten("%s[%d]" % (prefix, i), item)
            else:
                vals[prefix] = float(v)
        for key, v in data.items():
            flatten(key, v)
        return vals
    return {}  # simulate: every output depends on the seed


def invariants(workload: str, out: Path, sizes: dict) -> list:
    """Broken invariants of one operation's outputs, as messages."""
    s = sizes[workload]
    bad = []
    summary = json.loads((out / "summary.json").read_text())
    if workload in ("solve", "stationary"):
        if summary["converged"] is not True:
            bad.append("fixed point not converged")
        if not summary["residual"] < FIXED_POINT_TOL:
            bad.append("residual %.3e >= tol" % summary["residual"])
    if workload == "solve" and summary["terminal_weight_gap"] != 0:
        bad.append("terminal_weight_gap %r != 0"
                   % summary["terminal_weight_gap"])
    if workload == "simulate":
        slope = summary["convergence_slope"]
        if not abs(slope - SLOPE) <= SLOPE_TOL:
            bad.append("convergence slope %.4f outside %.2f +- %.2f"
                       % (slope, SLOPE, SLOPE_TOL))
        with (out / "convergence.csv").open() as fh:
            rows = [(int(r["N"]), float(r["rms"])) for r in csv.DictReader(fh)]
        if [N for N, _ in rows] != list(s["study_Ns"]):
            bad.append("convergence.csv lists N %s" % [N for N, _ in rows])
        rms = [v for _, v in rows]
        if not all(a > b for a, b in zip(rms, rms[1:])):
            bad.append("RMS does not fall with N: %s" % rms)
        nodes = s["num_paths"] * (s["M"] + 1)
        for name, per_node in (("states.csv", (s["N"] + 1) * N_STATE),
                               ("mean_field.csv", N_STATE * K_TYPES),
                               ("empirical_mean.csv", N_STATE * K_TYPES)):
            got = _lines(out / name)
            if got != nodes * per_node + 1:
                bad.append("%s has %d lines, expected %d"
                           % (name, got, nodes * per_node + 1))
    if workload == "nash":
        rows = _gap_rows(out)
        if [int(r["N"]) for r in rows] != list(s["Ns"]):
            bad.append("gaps.csv lists N %s" % [r["N"] for r in rows])
        cols = ["major_gap"] + ["type%d_gap" % k for k in range(K_TYPES)]
        for row in rows:
            for col in cols:
                if not row[col] >= GAP_FLOOR:
                    bad.append("N=%d %s = %.3e < %.0e"
                               % (row["N"], col, row[col], GAP_FLOOR))
        if rows:
            first, last = rows[0], rows[-1]
            for col in cols:
                if not last[col] < GAP_DECAY * first[col]:
                    bad.append("%s at N=%d (%.3e) not below %.1f x N=%d (%.3e)"
                               % (col, last["N"], last[col], GAP_DECAY,
                                  first["N"], first[col]))
    return bad


def departures(vals: dict, ref: dict) -> list:
    """Values further from the reference than its tolerance."""
    bad = []
    atol, rtol = ref["atol"], ref["rtol"]
    for key, want in ref["values"].items():
        got = vals.get(key)
        if got is None:
            bad.append("missing reference value %s" % key)
        elif not abs(got - want) <= atol + rtol * abs(want):
            bad.append("%s = %r, reference %r" % (key, got, want))
    return bad


def load_reference(workload: str, sizes: dict):
    """The recorded reference for this workload at these sizes, or None."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload)
    if ref is None or ref["sizes"] != sizes[workload]:
        return None
    return ref


def check(workload: str, returncode: int, out: Path, sizes: dict,
          reference=None, hashes=None, first_hashes=None) -> list:
    """Every reason this operation failed; empty when it passed.

    ``hashes`` are this operation's ``data_hashes``, ``first_hashes`` those
    of the invocation's first operation.
    """
    if returncode != 0:
        return ["exit code %d" % returncode]
    try:
        bad = invariants(workload, out, sizes)
        if reference is not None:
            bad += departures(values(workload, out), reference)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return ["unreadable output: %r" % exc]
    if first_hashes is not None and hashes != first_hashes:
        diff = sorted(k for k in set(hashes) | set(first_hashes)
                      if hashes.get(k) != first_hashes.get(k))
        bad.append("data files differ from the first run: %s"
                   % ", ".join(diff))
    return bad


def record(workload: str, out: Path, sizes: dict) -> dict:
    """A reference entry for ``reference.json`` from one passing output."""
    return dict(sizes=sizes[workload], values=values(workload, out),
                **TOLERANCES[workload])
