"""Strict JSON configuration layer for the command-line tools.

One document describes one problem.  Matrices are row-major nested
arrays; time-varying drifts may be a constant vector or an array sampled
at every grid node.  Unknown keys are rejected, and every message
carries a JSON-path location like ``$.major.A0`` so a typo is findable
without reading this module.
"""

import hashlib
import json
from typing import Optional

import numpy as np

from .errors import SchemaError
from .lqg_single import LqgProblem
from .mfg_model import MajorParams, MinorTypeParams, MmMfgProblem
from .mfg_solver import FixedPointConfig
from .numerics import GridFunction, TimeGrid


def load_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError("cannot read config %s: %s" % (path, exc))
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise SchemaError("$: config document must be a JSON object")
    return cfg


def canonical_hash(cfg: dict) -> str:
    """Hash of the canonicalized config bytes (key order irrelevant)."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise SchemaError("%s: missing key '%s'" % (path, key))
    return d[key]


def _reject_unknown(d: dict, path: str, allowed):
    for k in d:
        if k not in allowed:
            raise SchemaError("%s: unknown key '%s'" % (path, k))


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise SchemaError("%s: expected an object" % path)
    return v


def _as_list(v, path: str) -> list:
    if not isinstance(v, list):
        raise SchemaError("%s: expected an array" % path)
    return v


def _scalar(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError("%s: expected a number" % path)
    return float(v)


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError("%s: expected an integer" % path)
    return int(v)


def _matrix(v, path: str, rows: Optional[int] = None,
            cols: Optional[int] = None) -> np.ndarray:
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError("%s: expected a rectangular numeric array" % path)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1) if cols == 1 else arr.reshape(1, -1)
    if arr.ndim != 2:
        raise SchemaError("%s: expected a 2-d array, got %d-d" % (path, arr.ndim))
    if rows is not None and arr.shape[0] != rows:
        raise SchemaError("%s: expected %d rows, got %d" % (path, rows, arr.shape[0]))
    if cols is not None and arr.shape[1] != cols:
        raise SchemaError("%s: expected %d columns, got %d" % (path, cols, arr.shape[1]))
    return arr


def _column(v, path: str, n: int) -> np.ndarray:
    return _matrix(v, path, rows=n, cols=1)


def _grid_column(v, path: str, grid: TimeGrid, n: int):
    """Constant column (flat list of n numbers) or per-node samples."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim <= 1:
        return _column(v, path, n)
    if arr.ndim == 2:
        if arr.shape == (n, 1):
            return arr
        if arr.shape == (grid.num_nodes, n):
            return GridFunction(grid, arr[:, :, None])
        raise SchemaError(
            "%s: expected shape (%d,) constant or (%d, %d) node samples, got %s"
            % (path, n, grid.num_nodes, n, arr.shape))
    raise SchemaError("%s: too many dimensions" % path)


def parse_grid(cfg: dict) -> TimeGrid:
    g = _as_dict(_require(cfg, "grid", "$"), "$.grid")
    _reject_unknown(g, "$.grid", {"T", "M"})
    T = _scalar(_require(g, "T", "$.grid"), "$.grid.T")
    M = _integer(_require(g, "M", "$.grid"), "$.grid.M")
    try:
        return TimeGrid(T, M)
    except SchemaError as exc:
        raise SchemaError("$.grid: %s" % exc)


_LQG_KEYS = {"kind", "grid", "rho", "A", "B", "b", "sigma", "Qhat", "Q",
             "N", "R", "eta", "n", "x0", "population"}


def parse_lqg_problem(cfg: dict) -> LqgProblem:
    _reject_unknown(cfg, "$", _LQG_KEYS)
    grid = parse_grid(cfg)
    rho = _scalar(cfg.get("rho", 0.0), "$.rho")
    A = _matrix(_require(cfg, "A", "$"), "$.A")
    n = A.shape[0]
    A = _matrix(A, "$.A", n, n)
    B = _matrix(_require(cfg, "B", "$"), "$.B", rows=n)
    m = B.shape[1]
    Q = _matrix(_require(cfg, "Q", "$"), "$.Q", n, n)
    R = _matrix(_require(cfg, "R", "$"), "$.R", m, m)
    Qhat = _matrix(_require(cfg, "Qhat", "$"), "$.Qhat", n, n)
    N = _matrix(cfg["N"], "$.N", n, m) if "N" in cfg else np.zeros((n, m))
    eta = _column(cfg["eta"], "$.eta", n) if "eta" in cfg else np.zeros((n, 1))
    n_lin = _column(cfg["n"], "$.n", m) if "n" in cfg else np.zeros((m, 1))
    x0 = _column(cfg["x0"], "$.x0", n) if "x0" in cfg else np.zeros((n, 1))
    b = _grid_column(cfg["b"], "$.b", grid, n) if "b" in cfg else np.zeros((n, 1))
    sigma = _matrix(cfg["sigma"], "$.sigma", rows=n) if "sigma" in cfg \
        else np.zeros((n, 1))
    return LqgProblem(A=A, B=B, b=b, sigma=sigma, Qhat=Qhat, Q=Q, N_cross=N,
                      R=R, eta=eta, n_lin=n_lin, rho=rho, grid=grid, x0=x0)


_MAJOR_KEYS = {"A0", "F0", "B0", "b0", "sigma0", "Qhat0", "Q0", "N0", "R0",
               "H0", "eta0"}
_MINOR_KEYS = {"Ak", "Fk", "Gk", "Bk", "bk", "sigmak", "Qhatk", "Qk", "Nk",
               "Rk", "Hk", "Hhatk", "etak"}
_MFG_KEYS = {"kind", "grid", "rho", "pi", "major", "minors",
             "init_cov_major", "init_cov_minor", "fixed_point",
             "population", "study", "nash"}


def _parse_major(cfg: dict, grid: TimeGrid) -> MajorParams:
    d = _as_dict(_require(cfg, "major", "$"), "$.major")
    path = "$.major"
    _reject_unknown(d, path, _MAJOR_KEYS)
    A0 = _matrix(_require(d, "A0", path), path + ".A0")
    n = A0.shape[0]
    A0 = _matrix(A0, path + ".A0", n, n)
    B0 = _matrix(_require(d, "B0", path), path + ".B0", rows=n)
    m = B0.shape[1]

    def mat(key, rows, cols):
        if key in d:
            return _matrix(d[key], path + "." + key, rows, cols)
        return np.zeros((rows, cols))

    sigma0 = _matrix(d["sigma0"], path + ".sigma0", rows=n) if "sigma0" in d \
        else np.zeros((n, 1))
    b0 = _grid_column(d["b0"], path + ".b0", grid, n) if "b0" in d \
        else np.zeros((n, 1))
    return MajorParams(
        A0=A0, F0=mat("F0", n, n), B0=B0, b0=b0, sigma0=sigma0,
        Qhat0=_matrix(_require(d, "Qhat0", path), path + ".Qhat0", n, n),
        Q0=_matrix(_require(d, "Q0", path), path + ".Q0", n, n),
        N0=mat("N0", n, m),
        R0=_matrix(_require(d, "R0", path), path + ".R0", m, m),
        H0=mat("H0", n, n), eta0=mat("eta0", n, 1),
    )


def _parse_minor(d, grid: TimeGrid, n: int, m: int, path: str) -> MinorTypeParams:
    d = _as_dict(d, path)
    _reject_unknown(d, path, _MINOR_KEYS)

    def mat(key, rows, cols):
        if key in d:
            return _matrix(d[key], path + "." + key, rows, cols)
        return np.zeros((rows, cols))

    sigmak = _matrix(d["sigmak"], path + ".sigmak", rows=n) if "sigmak" in d \
        else np.zeros((n, 1))
    bk = _grid_column(d["bk"], path + ".bk", grid, n) if "bk" in d \
        else np.zeros((n, 1))
    return MinorTypeParams(
        Ak=_matrix(_require(d, "Ak", path), path + ".Ak", n, n),
        Fk=mat("Fk", n, n), Gk=mat("Gk", n, n),
        Bk=_matrix(_require(d, "Bk", path), path + ".Bk", n, m),
        bk=bk, sigmak=sigmak,
        Qhatk=_matrix(_require(d, "Qhatk", path), path + ".Qhatk", n, n),
        Qk=_matrix(_require(d, "Qk", path), path + ".Qk", n, n),
        Nk=mat("Nk", n, m),
        Rk=_matrix(_require(d, "Rk", path), path + ".Rk", m, m),
        Hk=mat("Hk", n, n), Hhatk=mat("Hhatk", n, n), etak=mat("etak", n, 1),
    )


def parse_mfg_problem(cfg: dict) -> MmMfgProblem:
    _reject_unknown(cfg, "$", _MFG_KEYS)
    parse_population(cfg)   # rejects stray population keys for every command
    grid = parse_grid(cfg)
    rho = _scalar(cfg.get("rho", 0.0), "$.rho")
    major = _parse_major(cfg, grid)
    n, m = major.A0.shape[0], major.B0.shape[1]
    raw_minors = _as_list(_require(cfg, "minors", "$"), "$.minors")
    if not raw_minors:
        raise SchemaError("$.minors: at least one minor type is required")
    minors = [_parse_minor(d, grid, n, m, "$.minors[%d]" % k)
              for k, d in enumerate(raw_minors)]
    pi = np.asarray(_as_list(_require(cfg, "pi", "$"), "$.pi"), dtype=float)
    kwargs = {}
    if "init_cov_major" in cfg:
        kwargs["init_cov_major"] = _matrix(cfg["init_cov_major"],
                                           "$.init_cov_major", n, n)
    if "init_cov_minor" in cfg:
        kwargs["init_cov_minor"] = _matrix(cfg["init_cov_minor"],
                                           "$.init_cov_minor", n, n)
    try:
        return MmMfgProblem(major=major, minors=minors, pi=pi, grid=grid,
                            rho=rho, **kwargs)
    except SchemaError as exc:
        raise SchemaError("$: %s" % exc)


def parse_fixed_point(cfg: dict) -> Optional[FixedPointConfig]:
    if "fixed_point" not in cfg:
        return None
    d = _as_dict(cfg["fixed_point"], "$.fixed_point")
    _reject_unknown(d, "$.fixed_point", {"theta", "tol", "max_iters"})
    kwargs = {}
    if "theta" in d:
        kwargs["theta"] = _scalar(d["theta"], "$.fixed_point.theta")
    if "tol" in d:
        kwargs["tol"] = _scalar(d["tol"], "$.fixed_point.tol")
    if "max_iters" in d:
        kwargs["max_iters"] = _integer(d["max_iters"], "$.fixed_point.max_iters")
    try:
        return FixedPointConfig(**kwargs)
    except SchemaError as exc:
        raise SchemaError("$.fixed_point: %s" % exc)


def parse_population(cfg: dict) -> dict:
    """Population section: sizes, paths, seed; commands pick what they use."""
    d = _as_dict(cfg.get("population", {}), "$.population")
    if "Ns" in d:
        raise SchemaError(
            "$.population.Ns: population sweeps are not read here; give the "
            "RMS study sizes as $.study.Ns and the gap sizes as $.nash.Ns")
    _reject_unknown(d, "$.population",
                    {"N", "num_paths", "master_seed", "record_states"})
    out = {}
    if "N" in d:
        out["N"] = _integer(d["N"], "$.population.N")
    out["num_paths"] = _integer(d.get("num_paths", 1), "$.population.num_paths")
    out["master_seed"] = _integer(d.get("master_seed", 0),
                                  "$.population.master_seed")
    rec = d.get("record_states", True)
    if not isinstance(rec, bool):
        raise SchemaError("$.population.record_states: expected a boolean")
    out["record_states"] = rec
    return out


def parse_study(cfg: dict) -> Optional[dict]:
    if "study" not in cfg:
        return None
    d = _as_dict(cfg["study"], "$.study")
    _reject_unknown(d, "$.study", {"Ns", "seeds"})
    Ns = [_integer(v, "$.study.Ns[%d]" % i)
          for i, v in enumerate(_as_list(_require(d, "Ns", "$.study"),
                                         "$.study.Ns"))]
    seeds = [_integer(v, "$.study.seeds[%d]" % i)
             for i, v in enumerate(_as_list(_require(d, "seeds", "$.study"),
                                            "$.study.seeds"))]
    return {"Ns": Ns, "seeds": seeds}


def parse_nash(cfg: dict) -> dict:
    d = _as_dict(cfg.get("nash", {}), "$.nash")
    _reject_unknown(d, "$.nash", {"Ns", "master_seed"})
    Ns = [_integer(v, "$.nash.Ns[%d]" % i)
          for i, v in enumerate(_as_list(d.get("Ns", [2, 4, 8, 16, 32]),
                                         "$.nash.Ns"))]
    return {"Ns": Ns,
            "master_seed": _integer(d.get("master_seed", 0),
                                    "$.nash.master_seed")}
