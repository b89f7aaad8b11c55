import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mmlqg
from mmlqg import (cli_app, config, lqg_single, mfg_model, mfg_solver, population_sim,
                   verify)
from mmlqg.errors import SchemaError
from mmlqg.lqg_single import LqgProblem, field_table
from mmlqg.mfg_model import MajorParams, MinorTypeParams, MmMfgProblem
from mmlqg.mfg_solver import FixedPointConfig
from mmlqg.numerics import TimeGrid
from mmlqg.population_sim import PopulationConfig
from oracles import write_csv_rows


def _lqg_cfg(**extra):
    cfg = {
        "kind": "lqg",
        "grid": {"T": 1.0, "M": 400},
        "A": [[0.0]],
        "B": [[1.0]],
        "Q": [[1.0]],
        "R": [[1.0]],
        "Qhat": [[0.0]],
    }
    cfg.update(extra)
    return cfg


def _mfg_cfg(**extra):
    cfg = {
        "kind": "mfg",
        "grid": {"T": 1.0, "M": 40},
        "pi": [0.6, 0.4],
        "major": {"A0": [[0.1, 0.2], [0.0, -0.3]], "B0": [[1.0], [0.5]],
                  "Qhat0": [[0.5, 0.0], [0.0, 0.5]],
                  "Q0": [[1.0, 0.0], [0.0, 1.0]], "R0": [[1.0]]},
        "minors": [
            {"Ak": [[-0.2, 0.1], [0.0, -0.4]], "Bk": [[1.0], [0.3]],
             "Qhatk": [[0.4, 0.0], [0.0, 0.4]],
             "Qk": [[1.0, 0.0], [0.0, 1.0]], "Rk": [[1.0]]},
            {"Ak": [[0.0, -0.1], [0.2, -0.5]], "Bk": [[0.8], [1.0]],
             "Qhatk": [[0.3, 0.0], [0.0, 0.3]],
             "Qk": [[1.2, 0.0], [0.0, 1.2]], "Rk": [[1.2]]},
        ],
    }
    cfg.update(extra)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(argv):
    return cli_app.main(argv)


# ------------------------------------------------------------------ config


def test_missing_key_names_the_field():
    cfg = _lqg_cfg()
    del cfg["R"]
    with pytest.raises(SchemaError, match="'R'"):
        config.parse_lqg_problem(cfg)


def test_unknown_key_rejected_with_path():
    cfg = _mfg_cfg()
    cfg["major"]["bogus"] = 1
    with pytest.raises(SchemaError, match=r"\$\.major.*'bogus'"):
        config.parse_mfg_problem(cfg)


def test_wrong_shape_names_location():
    cfg = _mfg_cfg()
    cfg["minors"][1]["Rk"] = [[1.0, 0.0]]
    with pytest.raises(SchemaError, match=r"\$\.minors\[1\]\.Rk"):
        config.parse_mfg_problem(cfg)


def test_pi_length_mismatch_rejected():
    cfg = _mfg_cfg(pi=[0.5, 0.3, 0.2])
    with pytest.raises(SchemaError):
        config.parse_mfg_problem(cfg)


def test_non_numeric_matrix_rejected():
    cfg = _lqg_cfg(A=[["x"]])
    with pytest.raises(SchemaError, match=r"\$\.A"):
        config.parse_lqg_problem(cfg)


def test_sampled_drift_accepted():
    cfg = _lqg_cfg()
    M = cfg["grid"]["M"]
    cfg["b"] = [[0.1 * j, -0.1 * j] for j in range(M + 1)]
    cfg["A"] = [[0.0, 0.0], [0.0, 0.0]]
    cfg["B"] = [[1.0], [0.0]]
    cfg["Q"] = [[1.0, 0.0], [0.0, 1.0]]
    cfg["Qhat"] = [[0.0, 0.0], [0.0, 0.0]]
    p = config.parse_lqg_problem(cfg)
    assert p.b.values.shape == (M + 1, 2, 1)
    assert p.b.values[3, 0, 0] == pytest.approx(0.3)


def test_canonical_hash_ignores_key_order():
    a = {"kind": "lqg", "grid": {"T": 1.0, "M": 4}}
    b = {"grid": {"M": 4, "T": 1.0}, "kind": "lqg"}
    assert config.canonical_hash(a) == config.canonical_hash(b)
    assert config.canonical_hash(a) != config.canonical_hash(
        {"kind": "lqg", "grid": {"T": 1.0, "M": 5}})


_BAD_MATRIX = {"non-numeric": [["x"]], "ragged": [[1.0], [1.0, 2.0]],
               "wrong-shape": [[1.0], [2.0], [3.0]], "non-finite": [[math.nan]]}
_BAD_SCALAR = {"non-numeric": "x", "ragged": [[1.0], [1.0, 2.0]],
               "wrong-shape": [1.0, 2.0], "non-finite": math.nan}
_SCALARS = {"rho", "t_end", "num_steps", "theta", "tol", "max_iters"}
_LQG_JSON = {"N_cross": "N", "n_lin": "n"}

# (config kind, record field as the library names it, JSON path or None)
_FIELDS = (
    [("lqg", name, "$." + _LQG_JSON.get(name, name))
     for name, *_ in field_table(LqgProblem)]
    + [("lqg", "rho", "$.rho")]
    + [("mfg", "major." + name, "$.major." + name)
       for name, *_ in field_table(MajorParams)]
    + [("mfg", "minors[1]." + name, "$.minors[1]." + name)
       for name, *_ in field_table(MinorTypeParams)]
    + [("mfg", name, "$." + name)
       for name in ("pi", "rho", "init_cov_major", "init_cov_minor")]
    + [("mfg", "t_end", "$.grid.T"), ("mfg", "num_steps", "$.grid.M")]
    + [("mfg", name, "$.fixed_point." + name)
       for name in ("theta", "tol", "max_iters")]
)


def _put(cfg: dict, json_path: str, value):
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", json_path)]
    for key in keys[:-1]:
        cfg = cfg.setdefault(key, {}) if isinstance(key, str) else cfg[key]
    cfg[keys[-1]] = value


def _records(cfg: dict):
    """The library records a config describes, built without mmlqg.config."""
    grid = TimeGrid(cfg["grid"]["T"], cfg["grid"]["M"])
    FixedPointConfig(**cfg.get("fixed_point", {}))
    fields = {k: v for k, v in cfg.items()
              if k not in ("kind", "grid", "fixed_point")}
    if cfg["kind"] == "lqg":
        names = {v: k for k, v in _LQG_JSON.items()}
        return LqgProblem(grid=grid, **{names.get(k, k): v for k, v in fields.items()})
    fields["major"] = MajorParams(**fields["major"])
    fields["minors"] = [MinorTypeParams(**d) for d in fields["minors"]]
    return MmMfgProblem(grid=grid, **fields)


@pytest.mark.parametrize("kind, field, json_path, bad", [
    pytest.param(kind, field, json_path, bad, id="-".join((kind, field, bad)))
    for kind, field, json_path in _FIELDS for bad in _BAD_MATRIX
])
def test_malformed_field_is_a_schema_error_naming_it(tmp_path, capsys, kind,
                                                     field, json_path, bad):
    value = (_BAD_SCALAR if field in _SCALARS else _BAD_MATRIX)[bad]
    cfg = _lqg_cfg() if kind == "lqg" else _mfg_cfg()
    _put(cfg, json_path, value)
    with pytest.raises(SchemaError) as exc:
        _records(cfg)
    assert exc.value.field == field
    code = _run(["solve-" + kind, "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: %s: " % json_path)


# ---------------------------------------------------------------- solve-lqg


def test_solve_lqg_tanh_summary(tmp_path):
    cfg_path = _write(tmp_path, _lqg_cfg())
    out = tmp_path / "run"
    assert _run(["solve-lqg", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["Pi0"][0][0] == pytest.approx(math.tanh(1.0), abs=1e-6)
    assert summary["validation"]["passed"]
    header = (out / "pi.csv").read_text().splitlines()[0]
    assert header == "node,row,col,value"


@pytest.mark.parametrize("command", ["solve-lqg", "solve-mfg"])
def test_each_solve_runs_its_validator_once(tmp_path, monkeypatch, command):
    # the solver's report is the one the summary writes: no second check
    calls = []
    for original in (lqg_single.validate_convexity, mfg_model.validate_problem):
        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)
        for module in (mmlqg, cli_app, lqg_single, mfg_model, mfg_solver):
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    lqg = command == "solve-lqg"
    cfg_path = _write(tmp_path, _lqg_cfg() if lqg else _mfg_cfg())
    out = tmp_path / "run"
    assert _run([command, "--config", cfg_path, "--out", str(out)]) == 0
    assert calls == ["validate_convexity" if lqg else "validate_problem"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["validation" if lqg else "assumptions"]["passed"]


def test_solve_lqg_feedforward_file_is_minus_k(tmp_path):
    # the file keeps its sign, u = -K x - feedforward, while the library's
    # law is u = -K x + k
    cfg = _lqg_cfg(b=[[0.3]], N=[[0.1]], eta=[[0.2]], n=[[0.1]])
    out = tmp_path / "run"
    assert _run(["solve-lqg", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    law = lqg_single.solve_finite_horizon(config.parse_lqg_problem(cfg)).law
    assert np.all(law.k.values != 0.0)
    cli_app._write_grid_tables(tmp_path, {"minus_k.csv": -law.k.values})
    assert (out / "feedforward.csv").read_bytes() == (tmp_path / "minus_k.csv").read_bytes()


def test_solve_lqg_missing_R_exits_2(tmp_path, capsys):
    cfg = _lqg_cfg()
    del cfg["R"]
    cfg_path = _write(tmp_path, cfg)
    code = _run(["solve-lqg", "--config", cfg_path,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "'R'" in capsys.readouterr().err


def test_solve_lqg_rerun_is_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, _lqg_cfg())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run(["solve-lqg", "--config", cfg_path, "--out", str(out1)]) == 0
    assert _run(["solve-lqg", "--config", cfg_path, "--out", str(out2)]) == 0
    names = sorted(f.name for f in out1.iterdir())
    assert "manifest.json" in names
    for name in names:
        if name == "manifest.json":
            continue  # timing manifest is the one file allowed to move
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_indefinite_weights_exit_4(tmp_path):
    cfg_path = _write(tmp_path, _lqg_cfg(R=[[-1.0]]))
    code = _run(["solve-lqg", "--config", cfg_path,
                 "--out", str(tmp_path / "run")])
    assert code == 4


# ---------------------------------------------------------------- solve-mfg


def test_solve_mfg_decoupled_outputs(tmp_path):
    cfg_path = _write(tmp_path, _mfg_cfg(fixed_point={"theta": 1.0}))
    out = tmp_path / "run"
    assert _run(["solve-mfg", "--config", cfg_path, "--out", str(out)]) == 0
    residuals = (out / "residuals.csv").read_text().splitlines()
    assert len(residuals) - 1 <= 2  # header plus at most two iterations
    summary = json.loads((out / "summary.json").read_text())
    assert summary["terminal_weight_gap"] == 0.0
    assert summary["converged"]
    assert (out / "pi_minor1.csv").exists()
    assert (out / "mf_Abar.csv").exists()


def test_solve_mfg_nondistribution_pi_exits_4(tmp_path, capsys):
    cfg_path = _write(tmp_path, _mfg_cfg(pi=[0.7, 0.7]))
    code = _run(["solve-mfg", "--config", cfg_path,
                 "--out", str(tmp_path / "run")])
    assert code == 4
    assert "pi" in capsys.readouterr().err


def test_solve_mfg_nonconvergence_exits_3(tmp_path):
    cfg = _mfg_cfg(fixed_point={"max_iters": 1, "theta": 0.5, "tol": 1e-14})
    cfg["major"]["F0"] = [[0.3, 0.0], [0.1, 0.2]]
    cfg["major"]["H0"] = [[0.4, 0.0], [0.0, 0.3]]
    cfg["minors"][0]["Gk"] = [[0.3, 0.0], [0.1, 0.2]]
    cfg_path = _write(tmp_path, cfg)
    code = _run(["solve-mfg", "--config", cfg_path,
                 "--out", str(tmp_path / "run")])
    assert code == 3


@pytest.mark.parametrize("where,token", [
    (("fixed_point", "tol"), "1e309"),
    (("major", "Q0", 0, 0), "NaN"),
    (("major", "R0", 0, 0), "NaN"),
    (("grid", "T"), "1e309"),
    (("minors", 1, "bk", 3, 0), "-Infinity"),
])
def test_solve_mfg_non_finite_input_exits_2(tmp_path, capsys, where, token):
    # JSON readers turn 1e309 into inf and accept NaN and Infinity
    cfg = _mfg_cfg(grid={"T": 1.0, "M": 20}, fixed_point={"tol": 1e-8})
    cfg["minors"][1]["bk"] = [[0.1, -0.2]] * 21
    node = cfg
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = "__X__"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"__X__"', token))
    code = _run(["solve-mfg", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")     # numpy's overflow warning included
@pytest.mark.parametrize("agent,key,what", [
    ("major", "H0", "major"), (0, "Hk", "minor[0]"), (0, "Hhatk", "minor[0]")])
def test_solve_mfg_overflowing_lifted_weight_exits_2(tmp_path, capsys, agent, key, what):
    # a finite input whose lifted terminal weight C'QC overflows to inf
    cfg = _mfg_cfg(grid={"T": 1.0, "M": 8})
    block = cfg["major"] if agent == "major" else cfg["minors"][agent]
    block[key] = [[1e300, 0.0], [0.0, 0.0]]
    cfg_path = _write(tmp_path, cfg)
    code = _run(["solve-mfg", "--config", cfg_path, "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.strip() == "config error: %s Qhat is not finite" % what


def test_overflowing_lifted_weight_prints_one_line(tmp_path):
    # in a fresh interpreter, so that stderr holds numpy's warnings too
    cfg = _mfg_cfg(grid={"T": 1.0, "M": 8})
    cfg["major"]["H0"] = [[1e300, 0.0], [0.0, 0.0]]
    env = dict(os.environ, PYTHONPATH=str(Path(mmlqg.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "mmlqg.cli_app", "solve-mfg", "--config",
         _write(tmp_path, cfg), "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "config error: major Qhat is not finite\n"


# ----------------------------------------------------------------- simulate


_MINORS = "N = %d minors: " % 10 ** 18


@pytest.mark.parametrize("command, cfg, named", [
    ("simulate", _mfg_cfg(grid={"T": 1.0, "M": 4}, population={"N": 10 ** 18}), _MINORS),
    ("nash-gap", _mfg_cfg(grid={"T": 1.0, "M": 4}, nash={"Ns": [10 ** 18]}), _MINORS),
    ("solve-lqg", _lqg_cfg(grid={"T": 1.0, "M": 10 ** 12}), "shape (%d," % (10 ** 12 + 1)),
    ("solve-mfg", _mfg_cfg(grid={"T": 1.0, "M": 10 ** 12}), "shape (%d," % (10 ** 12 + 1)),
    ("simulate", _mfg_cfg(grid={"T": 1.0, "M": 4}, population={"N": 3, "num_paths": 10 ** 12}),
     "shape (%d," % 10 ** 12),
    ("simulate", _mfg_cfg(grid={"T": 1.0, "M": 4}, population={"N": 3},
                          study={"Ns": [10 ** 18]}), _MINORS),
], ids=["simulate-N", "nash-gap-Ns", "solve-lqg-M", "solve-mfg-M", "simulate-num_paths",
        "simulate-study-Ns"])
def test_a_size_too_large_to_hold_exits_2_in_one_line(tmp_path, capsys, monkeypatch,
                                                     command, cfg, named):
    # these allocations fail at once, before any memory is touched: the
    # type indices of 10^18 minors name N, the others numpy's shape.
    # simulate allocates its run, and simulate and nash-gap the type
    # indices of their largest population, before they solve the game, so
    # no data file is written
    solves = []

    def solve(*args):
        solves.append(args)
        return mfg_solver.solve_consistency_finite(*args)

    monkeypatch.setattr(cli_app, "solve_consistency_finite", solve)
    cfg_path = _write(tmp_path, cfg)
    assert _run([command, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: ") and named in err
    if command in ("simulate", "nash-gap"):
        assert solves == []
        assert not [f for f in (tmp_path / "run").iterdir() if f.suffix in (".csv", ".json")]


def test_simulate_zero_noise_states_are_zero(tmp_path):
    cfg = _mfg_cfg(population={"N": 3, "num_paths": 2, "master_seed": 5})
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert _run(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    body = (out / "states.csv").read_text().splitlines()[1:]
    values = {line.rsplit(",", 1)[1] for line in body}
    assert values == {"0"}


def test_simulate_seed_reproducibility_and_override(tmp_path):
    cfg = _mfg_cfg(population={"N": 3, "num_paths": 1, "master_seed": 5})
    cfg["major"]["sigma0"] = [[0.2, 0.0], [0.0, 0.2]]
    for mn in cfg["minors"]:
        mn["sigmak"] = [[0.2, 0.0], [0.0, 0.2]]
    cfg_path = _write(tmp_path, cfg)
    outs = [tmp_path / name for name in ("a", "b", "c")]
    assert _run(["simulate", "--config", cfg_path, "--out", str(outs[0])]) == 0
    assert _run(["simulate", "--config", cfg_path, "--out", str(outs[1])]) == 0
    assert _run(["simulate", "--config", cfg_path, "--out", str(outs[2]),
                 "--seed", "6"]) == 0
    same = (outs[0] / "states.csv").read_bytes()
    assert same == (outs[1] / "states.csv").read_bytes()
    assert same != (outs[2] / "states.csv").read_bytes()


def test_simulate_record_states_false_skips_states_csv(tmp_path):
    outs = {}
    for record in (True, False):
        cfg = _mfg_cfg(population={"N": 3, "num_paths": 2, "master_seed": 5,
                                   "record_states": record})
        cfg["major"]["sigma0"] = [[0.2, 0.0], [0.0, 0.2]]
        for mn in cfg["minors"]:
            mn["sigmak"] = [[0.2, 0.0], [0.0, 0.2]]
        cfg_path = _write(tmp_path, cfg, "cfg_%s.json" % record)
        outs[record] = tmp_path / ("run_%s" % record)
        assert _run(["simulate", "--config", cfg_path,
                     "--out", str(outs[record])]) == 0
    assert (outs[True] / "states.csv").exists()
    assert not (outs[False] / "states.csv").exists()
    for name in ("mean_field.csv", "empirical_mean.csv"):
        assert (outs[False] / name).read_bytes() == (outs[True] / name).read_bytes()


def test_population_ns_rejected_with_pointer(tmp_path, capsys):
    cfg = _mfg_cfg(population={"N": 3, "Ns": [2, 4]})
    cfg_path = _write(tmp_path, cfg)
    for command in ("simulate", "nash-gap", "solve-mfg"):
        assert _run([command, "--config", cfg_path,
                     "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert "$.population.Ns" in err
        assert "$.study.Ns" in err and "$.nash.Ns" in err


@pytest.mark.parametrize("command, sections, extra, path", [
    ("simulate", {"population": {"N": 0}}, [], "$.population.N"),
    ("simulate", {"population": {"N": 2, "num_paths": 0}}, [], "$.population.num_paths"),
    ("simulate", {"population": {"N": 2, "master_seed": -1}}, [],
     "$.population.master_seed"),
    ("simulate", {"population": {"N": 2}, "study": {"Ns": [0], "seeds": [0]}}, [],
     "$.study.Ns[0]"),
    ("simulate", {"population": {"N": 2}, "study": {"Ns": [4], "seeds": [-1]}}, [],
     "$.study.seeds[0]"),
    ("simulate", {"population": {"N": 2}, "study": {"Ns": [4], "seeds": "0"}}, [],
     "$.study.seeds"),
    ("simulate", {"population": {"N": 2}}, ["--seed", "-1"], "--seed"),
    ("nash-gap", {"nash": {"Ns": [0]}}, [], "$.nash.Ns[0]"),
    ("nash-gap", {"nash": {"Ns": [-1]}}, [], "$.nash.Ns[0]"),
    ("nash-gap", {"nash": {"master_seed": -1}}, [], "$.nash.master_seed"),
])
def test_run_section_values_are_checked_before_the_solve(tmp_path, capsys, monkeypatch,
                                                         command, sections, extra, path):
    def no_solve(*args, **kwargs):
        raise AssertionError("the fixed point ran before the config was checked")

    monkeypatch.setattr(cli_app, "solve_consistency_finite", no_solve)
    cfg_path = _write(tmp_path, _mfg_cfg(**sections))
    assert _run([command, "--config", cfg_path, "--out", str(tmp_path / "out")]
                + extra) == 2
    assert path in capsys.readouterr().err


_SEED_RANGE = "must be an integer >= 0 and < 18446744073709551616, got -1"


@pytest.mark.parametrize("section, cfg, message", [
    ("grid", {}, "$: missing key 'grid'"),
    ("grid", {"grid": [1]}, "$.grid: expected an object"),
    ("grid", {"grid": {"T": 1.0, "M": 4, "h": 0.1}}, "$.grid: unknown key 'h'"),
    ("grid", {"grid": {"T": 1.0}}, "$.grid: missing key 'M'"),
    ("grid", {"grid": {"M": 4}}, "$.grid: missing key 'T'"),
    ("grid", {"grid": {"T": "1", "M": 4}}, "$.grid.T: expected a number"),
    ("grid", {"grid": {"T": 1.0, "M": 2.5}}, "$.grid.M: expected an integer"),
    ("grid", {"grid": {"T": 1.0, "M": 0}}, "$.grid.M: must be an integer >= 1, got 0"),
    ("grid", {"grid": {"T": -1.0, "M": 4}}, "$.grid.T: must be positive and finite"),
    ("fixed_point", {"fixed_point": 1}, "$.fixed_point: expected an object"),
    ("fixed_point", {"fixed_point": {"damping": 0.5}},
     "$.fixed_point: unknown key 'damping'"),
    ("fixed_point", {"fixed_point": {"theta": "0.5"}},
     "$.fixed_point.theta: expected a number"),
    ("fixed_point", {"fixed_point": {"theta": 2.0}},
     "$.fixed_point.theta: damping must lie in (0, 1]"),
    ("fixed_point", {"fixed_point": {"tol": None}}, "$.fixed_point.tol: expected a number"),
    ("fixed_point", {"fixed_point": {"tol": 0}},
     "$.fixed_point.tol: must be positive and finite"),
    ("fixed_point", {"fixed_point": {"max_iters": 7.0}},
     "$.fixed_point.max_iters: expected an integer"),
    ("fixed_point", {"fixed_point": {"max_iters": 0}},
     "$.fixed_point.max_iters: must be an integer >= 1, got 0"),
    ("population", {"population": "N"}, "$.population: expected an object"),
    ("population", {"population": {"n": 3}}, "$.population: unknown key 'n'"),
    ("population", {"population": {"Ns": [2]}},
     "$.population.Ns: population sweeps are not read here; give the RMS study "
     "sizes as $.study.Ns and the gap sizes as $.nash.Ns"),
    ("population", {"population": {"N": 3.5}}, "$.population.N: expected an integer"),
    ("population", {"population": {"record_states": 1}},
     "$.population.record_states: expected a boolean"),
    ("study", {"study": []}, "$.study: expected an object"),
    ("study", {"study": {"Ns": [4], "seeds": [0], "N": 4}}, "$.study: unknown key 'N'"),
    ("study", {"study": {"Ns": [4], "seeds": [-1]}}, "$.study.seeds[0]: " + _SEED_RANGE),
    ("study", {"study": {"seeds": [0]}}, "$.study: missing key 'Ns'"),
    ("study", {"study": {"Ns": 4, "seeds": [0]}}, "$.study.Ns: expected an array"),
    ("study", {"study": {"Ns": [4], "seeds": 0}}, "$.study.seeds: expected an array"),
    ("study", {"study": {"Ns": [4, 0], "seeds": [0]}},
     "$.study.Ns[1]: must be an integer >= 1, got 0"),
    ("study", {"study": {"Ns": [4], "seeds": [0.5]}}, "$.study.seeds[0]: expected an integer"),
    ("nash", {"nash": None}, "$.nash: expected an object"),
    ("nash", {"nash": {"seed": 0}}, "$.nash: unknown key 'seed'"),
    ("nash", {"nash": {"Ns": 8}}, "$.nash.Ns: expected an array"),
    ("nash", {"nash": {"Ns": [2, True]}}, "$.nash.Ns[1]: expected an integer"),
    ("nash", {"nash": {"master_seed": -1}}, "$.nash.master_seed: " + _SEED_RANGE),
])
def test_each_section_fault_has_its_one_message(section, cfg, message):
    with pytest.raises(SchemaError) as exc:
        getattr(config, "parse_" + section)(cfg)
    assert str(exc.value) == message


def test_absent_run_sections_read_their_defaults():
    assert config.parse_fixed_point({}) is None
    assert config.parse_study({}) is None
    assert config.parse_population({}) == {
        "num_paths": 1, "master_seed": 0, "record_states": True}
    assert config.parse_nash({}) == {"Ns": [2, 4, 8, 16, 32], "master_seed": 0}
    assert config.parse_study({"study": {"Ns": [], "seeds": []}}) == {"Ns": [], "seeds": []}
    # the study is exact: seeds is optional, and read only to reject a bad value
    assert config.parse_study({"study": {"Ns": [4]}}) == {"Ns": [4]}


def test_population_config_holds_what_the_population_section_sets(monkeypatch):
    # the library record's fields are the keys parse_population reads, less
    # the rejected sweep Ns: every population is assign_types(pi, N) and
    # starts at mean zero, so neither a type list nor an initial mean field
    # is settable
    readers = {}

    def spy(cfg, name, reader_table, defaults):
        readers[name] = set(reader_table)
        return section(cfg, name, reader_table, defaults)

    section = config._section
    monkeypatch.setattr(config, "_section", spy)
    config.parse_population({})
    fields = {f.name for f in dataclasses.fields(PopulationConfig)}
    assert fields == readers["population"] - {"Ns"} == {
        "N", "num_paths", "master_seed", "record_states"}
    params = inspect.signature(population_sim.ReducedPopulation).parameters
    assert list(params) == ["p", "sol", "counts", "own_type"]
    for gone in ("_type_indices", "_type_of", "_initial_mean_field"):
        assert not hasattr(population_sim, gone)


def test_simulate_writes_convergence_slope(tmp_path):
    cfg = _mfg_cfg(population={"N": 2, "num_paths": 1, "master_seed": 0},
                   study={"Ns": [16, 64]})
    cfg["major"]["sigma0"] = [[0.2, 0.0], [0.0, 0.2]]
    for mn in cfg["minors"]:
        mn["sigmak"] = [[0.2, 0.0], [0.0, 0.2]]
    cfg["init_cov_major"] = [[0.2, 0.0], [0.0, 0.2]]
    cfg["init_cov_minor"] = [[0.2, 0.0], [0.0, 0.2]]
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert _run(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # plumbing check only: a slope through two N values, so just pin the
    # sign and a generous band
    assert -1.2 < summary["convergence_slope"] < -0.1
    lines = (out / "convergence.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per N


# ----------------------------------------------------------------- nash-gap


def test_nash_gap_decoupled_table(tmp_path):
    cfg = _mfg_cfg(nash={"Ns": [2, 3, 4]})
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert _run(["nash-gap", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "gaps.csv").read_text().splitlines()
    assert len(lines) == 4  # header + one row per requested N
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        assert all(g >= -1e-8 for g in cells[1:])
        assert max(abs(g) for g in cells[1:]) <= 1e-6
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_nonnegative"]


def test_nash_gap_threads_do_not_change_bytes(tmp_path):
    cfg = _mfg_cfg(nash={"Ns": [2, 3]})
    cfg["major"]["F0"] = [[0.3, 0.0], [0.1, 0.2]]
    cfg["major"]["H0"] = [[0.4, 0.0], [0.0, 0.3]]
    cfg["major"]["sigma0"] = [[0.2, 0.0], [0.0, 0.2]]
    cfg["minors"][0]["Gk"] = [[0.3, 0.0], [0.1, 0.2]]
    for mn in cfg["minors"]:
        mn["sigmak"] = [[0.2, 0.0], [0.0, 0.2]]
    cfg_path = _write(tmp_path, cfg)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert _run(["nash-gap", "--config", cfg_path, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert _run(["nash-gap", "--config", cfg_path, "--out", str(out4),
                 "--threads", "4"]) == 0
    assert (out1 / "gaps.csv").read_bytes() == (out4 / "gaps.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == \
        (out4 / "summary.json").read_bytes()


def test_nash_gap_summary_reports_row_diagnostics(tmp_path):
    cfg = _mfg_cfg(nash={"Ns": [2, 3]})
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert _run(["nash-gap", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    p = config.parse_mfg_problem(cfg)
    sol = mfg_solver.solve_consistency_finite(p, config.parse_fixed_point(cfg))
    rows = mmlqg.gap_vs_population(p, sol, summary["Ns"]).rows
    for key in ("identity_mismatch", "assembly_crosscheck"):
        assert summary[key] == [getattr(row, key) for row in rows]
        assert all(math.isfinite(v) and v >= 0.0 for v in summary[key])
    assert all(v <= 1e-8 for v in summary["assembly_crosscheck"])


def test_no_command_starts_a_thread(tmp_path, monkeypatch):
    # nash-gap rows are small numpy products under the interpreter lock, so
    # every command runs on the calling thread whatever --threads says
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    cfg_path = _write(tmp_path, _mfg_cfg(population={"N": 3, "num_paths": 2},
                                         nash={"Ns": [2, 3, 4]}))
    for command in ("nash-gap", "simulate"):
        assert _run([command, "--config", cfg_path, "--out",
                     str(tmp_path / command), "--threads", "4"]) == 0
    assert started == []


@pytest.mark.parametrize("argv, seed", [
    (["simulate"], 5),
    (["simulate", "--seed", "6"], 6),
    (["nash-gap"], 7),
])
def test_manifest_records_the_seed_the_command_used(tmp_path, argv, seed):
    cfg_path = _write(tmp_path, _mfg_cfg(population={"N": 3, "master_seed": 5},
                                         nash={"Ns": [2], "master_seed": 7}))
    out = tmp_path / "run"
    assert _run(argv + ["--config", cfg_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["master_seed"] == seed


def _unconverged_cfg():
    cfg = _mfg_cfg(fixed_point={"max_iters": 1, "tol": 1e-14})
    cfg["major"]["F0"] = [[0.3, 0.0], [0.1, 0.2]]
    return cfg


@pytest.mark.parametrize("command, cfg, code", [
    ("simulate", _mfg_cfg(), 2),            # no population.N
    ("solve-mfg", _unconverged_cfg(), 3),
    ("solve-lqg", _lqg_cfg(R=[[-1.0]]), 4),
])
def test_failed_command_writes_no_manifest(tmp_path, command, cfg, code):
    # each failure is raised inside the command, after --out exists
    out = tmp_path / "run"
    assert _run([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == code
    assert out.is_dir() and not (out / "manifest.json").exists()


# ------------------------------------------------------------------- verify


def test_verify_suites_all_pass_and_exit_zero():
    results = verify.run_suites()
    assert all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed]
    assert verify.exit_code(results) == 0


def test_verify_names_a_corrupted_fixture(monkeypatch):
    # a coupled game is not decoupled: the one-shot fixed point must miss
    from mmlqg.toys import coupled_toy
    monkeypatch.setattr(verify, "decoupled_toy", coupled_toy)
    results = verify.run_suites(["consistency_fixed_point"])
    assert len(results) == 1
    assert not results[0].passed
    assert results[0].name == "consistency_fixed_point"


def test_verify_exit_code_counts_failures_capped():
    good = verify.SuiteResult("a", True, "", 0.0)
    bad = verify.SuiteResult("b", False, "boom", 0.0)
    assert verify.exit_code([good, bad, bad]) == 2
    assert verify.exit_code([bad] * 300) == 125


def test_manifest_carries_config_hash(tmp_path):
    cfg = _lqg_cfg()
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert _run(["solve-lqg", "--config", cfg_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config.canonical_hash(cfg)
    assert manifest["command"] == "solve-lqg"
    assert "wall_s" in manifest["timings"]


# ---------------------------------------------------------------- writer

_CELLS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
          3.0, -7.0, 2.0 ** 53, 0.1, 1.0 / 3.0, -2.5e-7, math.inf, math.nan]


def _matches_the_row_loop(tmp_path, values):
    header = tuple("abcd"[:values.ndim]) + ("value",)
    cli_app._write_table(tmp_path / "new.csv", header, values)
    write_csv_rows(tmp_path / "old.csv", header,
                   [ix + (values[ix],) for ix in np.ndindex(*values.shape)])
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("shape", [(14,), (2, 3, 4), (2, 3, 2, 5), (0, 3, 2)])
def test_table_writer_matches_the_row_loop(tmp_path, shape):
    assert _matches_the_row_loop(tmp_path, np.resize(_CELLS, math.prod(shape)).reshape(shape))


# a trailing group larger than a block, a last axis longer than a block, a
# 1-d table longer than a block, and a zero-length middle and last axis
@pytest.mark.parametrize("block", [3, 4])
@pytest.mark.parametrize("shape", [(14,), (2, 3, 4), (2, 3, 2, 5), (0, 3, 2), (2, 4, 2),
                                   (3, 7), (11,), (2, 0, 3), (2, 3, 0), (5, 1, 1)])
def test_table_writer_in_small_blocks_matches_the_row_loop(tmp_path, monkeypatch,
                                                           shape, block):
    monkeypatch.setattr(cli_app, "CSV_BLOCK", block)
    assert _matches_the_row_loop(tmp_path, np.resize(_CELLS, math.prod(shape)).reshape(shape))


@pytest.mark.parametrize("block", [3, 4, cli_app.CSV_BLOCK])
def test_table_writer_reads_a_noncontiguous_view(tmp_path, monkeypatch, block):
    monkeypatch.setattr(cli_app, "CSV_BLOCK", block)
    values = np.resize(_CELLS, 24).reshape(2, 3, 4).transpose(2, 0, 1)
    assert not values.flags.c_contiguous
    assert _matches_the_row_loop(tmp_path, values)


def test_column_writer_matches_the_row_loop(tmp_path):
    rows = [(2, 1e300, -0.0, 0.1), (96, 5e-324, 3.0, -1e300), (10 ** 6, 0.0, math.nan, 7.0)]
    header = ("N", "major_gap", "type0_gap", "max_gap")
    cli_app._write_csv(tmp_path / "new.csv", header, zip(*rows))
    write_csv_rows(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_writers_in_blocks_of_three_rows_match_the_row_loop(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(cli_app, "CSV_BLOCK", 3)
    values = np.resize(_CELLS, rows * 2).reshape(rows, 2)
    header = ("a", "b", "value")
    cli_app._write_table(tmp_path / "new.csv", header, values)
    write_csv_rows(tmp_path / "old.csv", header,
                   [ix + (values[ix],) for ix in np.ndindex(*values.shape)])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    table = [(10 ** 6 * i - 3, *np.resize(_CELLS[i:], 2)) for i in range(rows)]
    header = ("N", "x", "y")
    cli_app._write_csv(tmp_path / "new.csv", header, zip(*table))
    write_csv_rows(tmp_path / "old.csv", header, table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_table_writer_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    block = 400
    monkeypatch.setattr(cli_app, "CSV_BLOCK", block)

    def peak(rows):
        values = np.resize(_CELLS, rows).reshape(-1, 5, 2, 4)
        tracemalloc.start()
        try:
            cli_app._write_table(tmp_path / "t.csv", ("a", "b", "c", "d", "value"), values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 5 blocks against 40: a writer that held the whole table would grow 8x
    small, large = peak(5 * block), peak(40 * block)
    assert large <= 1.5 * small, (small, large)


@pytest.mark.parametrize("shape", [(3, -1), (-1, 1, 2)])
def test_table_writer_memory_does_not_grow_with_a_long_axis(tmp_path, monkeypatch, shape):
    # a last axis longer than a block, cut into pieces; many leading groups
    # of two rows, 200 to a block
    block = 400
    monkeypatch.setattr(cli_app, "CSV_BLOCK", block)

    def peak(rows):
        values = np.resize(_CELLS, rows).reshape(shape)
        tracemalloc.start()
        try:
            cli_app._write_table(tmp_path / "t.csv", tuple("abc"[:len(shape)]) + ("value",),
                                 values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 15 blocks against 120: (3, 2000) against (3, 16000), and
    # (3000, 1, 2) against (24000, 1, 2)
    small, large = peak(3 * 5 * block), peak(3 * 40 * block)
    assert large <= 1.5 * small, (small, large)
