"""The benchmark's four pinned workloads and the configs they run.

Every workload plays the package's demonstration game
(``mmlqg.toys.coupled_toy``: n = 2, K = 2 minor types).  The game is
written out as a CLI JSON config, so the program under test sees only
that generated file; the benchmark seed becomes the config's master
seed and the convergence-study seeds are offsets from it.

Workloads, and why each was chosen:

- ``solve``: ``solve-mfg`` at M = 100 with the default damped fixed point
  (theta 0.5, tol 1e-8, 28 evaluations).  The consistency fixed point
  every command pays: RK4 Riccati/offset sweeps and R^-1 solves dominate.
- ``simulate``: ``simulate`` at M = 50, N = 128 agents x 8 recorded
  paths, plus the RMS convergence study over N in {16..4096} x 6 seeds.
  The Euler-Maruyama simulator used both ways, and the CSV writer.
- ``nash``: ``nash-gap`` at M = 25 with Ns = {2, 8, 32, 96}, so the dense
  joint dimension D = n(N+1) + nK runs from 10 to 198.  Best-response
  sweeps and moment recursions dominate; N = 2 is Python-bound, N = 96
  BLAS-bound.
- ``stationary``: the same game with rho = 4, theta = 1, solved by
  ``solve_consistency_infinite`` in a fresh interpreter.  No CLI command
  reaches the discounted ARE layer; this workload does.

One operation takes about 3-4 s on a 2-core Xeon VM, so a measured run
holds enough operations for a steady median.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Sizes the benchmark measures.  TINY runs the same code paths in a few
# seconds; the benchmark's own smoke test uses it.
PINNED = {
    "solve": {"M": 100},
    "simulate": {"M": 50, "N": 128, "num_paths": 8,
                 "study_Ns": [16, 64, 256, 1024, 4096], "study_seeds": 6},
    "nash": {"M": 25, "Ns": [2, 8, 32, 96]},
    "stationary": {"M": 10, "rho": 4.0, "theta": 1.0},
}
TINY = {
    "solve": {"M": 20},
    "simulate": {"M": 20, "N": 8, "num_paths": 2,
                 "study_Ns": [16, 64, 256], "study_seeds": 4},
    "nash": {"M": 20, "Ns": [2, 8]},
    "stationary": {"M": 4, "rho": 8.0, "theta": 1.0},
}
WORKLOADS = tuple(PINNED)

# CLI subcommand per workload; stationary runs its own script instead.
COMMANDS = {"solve": "solve-mfg", "simulate": "simulate", "nash": "nash-gap"}

_MAJOR_KEYS = ("A0", "F0", "B0", "b0", "sigma0", "Qhat0", "Q0", "N0", "R0",
               "H0", "eta0")
_MINOR_KEYS = ("Ak", "Fk", "Gk", "Bk", "bk", "sigmak", "Qhatk", "Qk", "Nk",
               "Rk", "Hk", "Hhatk", "etak")
_DRIFTS = ("b0", "bk")


def master_seed(seed: int) -> int:
    """The program's master seed for a benchmark seed (any integer)."""
    return int(seed) % (2 ** 32)


def _matrix(value, key: str) -> list:
    if key in _DRIFTS:  # a GridFunction; the toy's drifts are constant
        values = value.values
        if not np.all(values == values[0]):
            raise ValueError("drift %s is not constant" % key)
        value = values[0]
    return np.asarray(value, dtype=float).tolist()


def game_config(M: int, rho: float = 0.0) -> dict:
    """``coupled_toy(M, rho)`` as a CLI game config (no run sections)."""
    from mmlqg.toys import coupled_toy

    p = coupled_toy(M=M, rho=rho)
    return {
        "kind": "mfg",
        "grid": {"T": p.grid.t_end, "M": p.grid.num_steps},
        "rho": p.rho,
        "pi": p.pi.tolist(),
        "major": {k: _matrix(getattr(p.major, k), k) for k in _MAJOR_KEYS},
        "minors": [{k: _matrix(getattr(mn, k), k) for k in _MINOR_KEYS}
                   for mn in p.minors],
        "init_cov_major": p.init_cov_major.tolist(),
        "init_cov_minor": p.init_cov_minor.tolist(),
    }


def make_config(workload: str, seed: int, sizes: dict) -> dict:
    """The full config one workload runs, derived from its seed."""
    s = sizes[workload]
    ms = master_seed(seed)
    cfg = game_config(s["M"], s.get("rho", 0.0))
    if workload == "simulate":
        cfg["population"] = {"N": s["N"], "num_paths": s["num_paths"],
                             "master_seed": ms}
        cfg["study"] = {"Ns": list(s["study_Ns"]),
                        "seeds": [ms + i for i in range(s["study_seeds"])]}
    elif workload == "nash":
        cfg["nash"] = {"Ns": list(s["Ns"]), "master_seed": ms}
    elif workload == "stationary":
        cfg["fixed_point"] = {"theta": s["theta"]}
    return cfg


def config_mismatches(cfg: dict) -> list:
    """Fields where the parsed config differs from ``coupled_toy``.

    An empty list means the program reads exactly the toy game.
    """
    from mmlqg.config import parse_mfg_problem
    from mmlqg.toys import coupled_toy

    parsed = parse_mfg_problem(cfg)
    toy = coupled_toy(M=cfg["grid"]["M"], rho=cfg.get("rho", 0.0))
    pairs = [("grid", parsed.grid, toy.grid), ("rho", parsed.rho, toy.rho),
             ("pi", parsed.pi, toy.pi),
             ("init_cov_major", parsed.init_cov_major, toy.init_cov_major),
             ("init_cov_minor", parsed.init_cov_minor, toy.init_cov_minor)]
    for key in _MAJOR_KEYS:
        pairs.append(("major." + key, getattr(parsed.major, key),
                      getattr(toy.major, key)))
    for k, (a, b) in enumerate(zip(parsed.minors, toy.minors)):
        for key in _MINOR_KEYS:
            pairs.append(("minors[%d].%s" % (k, key), getattr(a, key),
                          getattr(b, key)))
    if len(parsed.minors) != len(toy.minors):
        pairs.append(("minors", len(parsed.minors), len(toy.minors)))
    bad = []
    for name, a, b in pairs:
        a = getattr(a, "values", a)
        b = getattr(b, "values", b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            same = np.array_equal(np.asarray(a), np.asarray(b))
        else:
            same = a == b
        if not same:
            bad.append(name)
    return bad


def op_argv(workload: str, cfg_path: Path, out: Path) -> list:
    """Command line of one operation, run from the checkout root."""
    if workload == "stationary":
        return [sys.executable, str(HERE / "stationary_op.py"),
                "--config", str(cfg_path), "--out", str(out)]
    return [sys.executable, "-m", "mmlqg.cli_app", COMMANDS[workload],
            "--config", str(cfg_path), "--out", str(out), "--threads", "1"]


def write_config(cfg: dict, path: Path) -> Path:
    path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
    return path
