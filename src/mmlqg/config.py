"""Strict JSON configuration layer for the command-line tools.

One document describes one problem.  Its keys are the fields of the
library records, which own every shape and zero default
(lqg_single.field_table); this module only checks JSON types and keys
and builds the records.  Each run section (grid, fixed_point,
population, study, nash) is a table of keys read by _section.  Unknown
keys are rejected, sizes and seeds are range-checked here with the
library's bounds, so a bad value stops before any solve, and every
message carries a JSON path like ``$.major.A0``.
"""

import hashlib
import json
from typing import Optional

from .errors import SchemaError
from .lqg_single import LqgProblem, field_table
from .mfg_model import MajorParams, MinorTypeParams, MmMfgProblem
from .mfg_solver import FixedPointConfig
from .numerics import TimeGrid, _as_count, _as_seed


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


def _count(v, path: str) -> int:
    """A size: an integer >= 1, the bound the library records check."""
    return _as_count(_integer(v, path), path, 1)


def _seed(v, path: str) -> int:
    """A master seed in the library records' range."""
    return _as_seed(_integer(v, path), path)


def _boolean(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError("%s: expected a boolean" % path)
    return v


def _list_of(read):
    """A reader of a JSON array: entry i is read by read at path[i]."""
    return lambda v, path: [read(x, "%s[%d]" % (path, i))
                            for i, x in enumerate(_as_list(v, path))]


def _section(cfg: dict, name: str, readers: dict, defaults: dict) -> dict:
    """The object at $.name (absent reads as {}): each key present is read
    by readers[key] at $.name.key, an absent one takes defaults[key] if it
    has one, and a key with no reader is rejected."""
    path = "$." + name
    d = _as_dict(cfg.get(name, {}), path)
    _reject_unknown(d, path, readers)
    out = dict(defaults)
    out.update((key, readers[key](v, "%s.%s" % (path, key))) for key, v in d.items())
    return out


def parse_grid(cfg: dict) -> TimeGrid:
    _require(cfg, "grid", "$")
    g = _section(cfg, "grid", {"T": _scalar, "M": _integer}, {})
    T, M = [_require(g, key, "$.grid") for key in ("T", "M")]
    return _located("$.grid", lambda: TimeGrid(T, M), {"t_end": "T", "num_steps": "M"})


def _located(path: str, make, json_names=None):
    """make(), with a SchemaError placed under the JSON path path.

    An error about one field names path.field, the field renamed by
    json_names; any other error reads "path: message".
    """
    try:
        return make()
    except SchemaError as exc:
        if exc.field is None:
            raise SchemaError("%s: %s" % (path, exc))
        name = (json_names or {}).get(exc.field, exc.field)
        raise SchemaError(exc.detail, field="%s.%s" % (path, name))


def _record(cls, d, path: str, json_names=None, other_keys=(), **given):
    """cls built from the JSON object d at path and the given arguments.

    The object's keys are cls's shaped fields (field_table), renamed by
    json_names, plus the given arguments and other_keys, which the
    caller reads; a required field must be present.  An omitted field
    takes the record's zero default, so an explicit null is rejected
    rather than read as one.
    """
    d = _as_dict(d, path)
    json_names = json_names or {}
    keys = {json_names.get(name, name): (name, required)
            for name, _, _, required in field_table(cls)}
    _reject_unknown(d, path, set(keys) | set(given) | set(other_keys))
    for key, (name, required) in keys.items():
        if key not in d:
            if required:
                raise SchemaError("%s: missing key '%s'" % (path, key))
        elif d[key] is None:
            raise SchemaError("%s.%s: expected a number or an array" % (path, key))
        else:
            given[name] = d[key]
    return _located(path, lambda: cls(**given), json_names)


def parse_lqg_problem(cfg: dict) -> LqgProblem:
    return _record(LqgProblem, cfg, "$", {"N_cross": "N", "n_lin": "n"},
                   {"kind", "population"}, grid=parse_grid(cfg),
                   rho=_scalar(cfg.get("rho", 0.0), "$.rho"))


def parse_mfg_problem(cfg: dict) -> MmMfgProblem:
    parse_population(cfg)   # rejects stray population keys for every command
    minors = _as_list(_require(cfg, "minors", "$"), "$.minors")
    return _record(
        MmMfgProblem, cfg, "$", other_keys={"kind", "fixed_point", "population",
                                            "study", "nash"},
        major=_record(MajorParams, _require(cfg, "major", "$"), "$.major"),
        minors=[_record(MinorTypeParams, d, "$.minors[%d]" % k)
                for k, d in enumerate(minors)],
        pi=_as_list(_require(cfg, "pi", "$"), "$.pi"), grid=parse_grid(cfg),
        rho=_scalar(cfg.get("rho", 0.0), "$.rho"))


def parse_fixed_point(cfg: dict) -> Optional[FixedPointConfig]:
    if "fixed_point" not in cfg:
        return None
    d = _section(cfg, "fixed_point",
                 {"theta": _scalar, "tol": _scalar, "max_iters": _integer}, {})
    return _located("$.fixed_point", lambda: FixedPointConfig(**d))


def _no_sweep(v, path: str):
    raise SchemaError("%s: population sweeps are not read here; give the RMS study sizes "
                      "as $.study.Ns and the gap sizes as $.nash.Ns" % path)


def parse_population(cfg: dict) -> dict:
    """Population section: sizes, paths, seed; commands pick what they use."""
    return _section(cfg, "population", {"N": _count, "num_paths": _count, "master_seed": _seed,
                                        "record_states": _boolean, "Ns": _no_sweep},
                    {"num_paths": 1, "master_seed": 0, "record_states": True})


def parse_study(cfg: dict) -> Optional[dict]:
    if "study" not in cfg:
        return None
    d = _section(cfg, "study", {"Ns": _list_of(_count), "seeds": _list_of(_seed)}, {})
    for key in ("Ns", "seeds"):
        _require(d, key, "$.study")
    if d["Ns"] and not d["seeds"]:
        raise SchemaError("$.study.seeds: the convergence study needs at least one seed")
    return d


def parse_nash(cfg: dict) -> dict:
    return _section(cfg, "nash", {"Ns": _list_of(_count), "master_seed": _seed},
                    {"Ns": [2, 4, 8, 16, 32], "master_seed": 0})
