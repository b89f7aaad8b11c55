"""Import guards: scipy stays out of the package, numpy out of config,
and each step loads only the modules its work runs.

The package runs on numpy alone, the stationary ARE and the costate
oracle included; scipy is a test-only oracle.  Every command and the
stationary solve run in a fresh interpreter, since this test process has
scipy loaded already, and no module of the package may import it.  The
same interpreter records after each step which of numpy, hashlib and the
package's submodules are loaded: `import mmlqg` loads none of them, and
`solve-mfg` none of the simulator, gap, toy or verify modules.

The public namespace is lazy: every name of `__all__` resolves, on first
access, to the object its home submodule defines.

The records declare every field's shape and default (field_table), so
the config layer needs no numpy and names no field itself: its keys are
the tables'.
"""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmlqg
from mmlqg import config
from mmlqg.errors import SchemaError
from mmlqg.lqg_single import LqgProblem, field_table
from mmlqg.mfg_model import MajorParams, MinorTypeParams, MmMfgProblem
from mmlqg.mfg_solver import FixedPointConfig
from test_config_cli import _lqg_cfg, _mfg_cfg

SRC = str(Path(mmlqg.__file__).resolve().parent.parent)

SCRIPT = r"""
import json, sys
from pathlib import Path

out, cfg_path, stationary_path = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
seen, loaded = {}, {}


def watched():
    return sorted(name for name in sys.modules
                  if name in ("numpy", "hashlib") or name.startswith("mmlqg."))


import mmlqg
seen["import mmlqg"] = "scipy" in sys.modules
loaded["import mmlqg"] = watched()
from mmlqg import config, mfg_solver
mfg_solver.solve_consistency_infinite(
    config.parse_mfg_problem(config.load_config(stationary_path)))
loaded["stationary solve from config"] = watched()
from mmlqg import cli_app
seen["import mmlqg.cli_app"] = "scipy" in sys.modules
for command in ("solve-mfg", "simulate", "nash-gap"):
    code = cli_app.main([command, "--config", cfg_path, "--out", str(out / command)])
    assert code == 0, (command, code)
    seen[command] = "scipy" in sys.modules
    loaded[command] = watched()
code = cli_app.main(["verify", "--out", str(out / "verify")])
assert code == 0, ("verify", code)
seen["verify"] = "scipy" in sys.modules
from mmlqg import coupled_toy, solve_consistency_infinite
solve_consistency_infinite(coupled_toy(M=4, rho=4.0))
seen["stationary solve"] = "scipy" in sys.modules
print(json.dumps({"scipy": seen, "loaded": loaded}))
"""


def _config():
    cfg = _mfg_cfg(population={"N": 3, "num_paths": 2, "master_seed": 5},
                   study={"Ns": [16, 64], "seeds": [0, 1]},
                   nash={"Ns": [2, 3]})
    cfg["grid"]["M"] = 10
    cfg["major"]["sigma0"] = [[0.2, 0.0], [0.0, 0.2]]
    for mn in cfg["minors"]:
        mn["sigmak"] = [[0.2, 0.0], [0.0, 0.2]]
    return cfg


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """What the fresh interpreter of SCRIPT saw after each step."""
    tmp_path = tmp_path_factory.mktemp("imports")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config()))
    stationary_path = tmp_path / "stationary.json"
    stationary_path.write_text(json.dumps(_mfg_cfg(rho=4.0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(cfg_path),
         str(stationary_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_command_loads_scipy(fresh_run):
    seen = fresh_run["scipy"]
    assert seen == {
        "import mmlqg": False,
        "import mmlqg.cli_app": False,
        "solve-mfg": False,
        "simulate": False,
        "nash-gap": False,
        "verify": False,
        "stationary solve": False,
    }


def test_each_step_loads_only_what_it_runs(fresh_run):
    loaded = {step: set(names) for step, names in fresh_run["loaded"].items()}
    # the namespace is lazy: no numpy, no submodule
    assert loaded["import mmlqg"] == set()
    # the manifest's hash is the only user of hashlib
    assert "hashlib" not in loaded["stationary solve from config"]
    assert {"mmlqg.config", "mmlqg.mfg_solver", "numpy"} <= \
        loaded["stationary solve from config"]
    # solve-mfg runs neither the simulator, the gap table, the toys nor verify
    assert loaded["solve-mfg"].isdisjoint(
        {"mmlqg.population_sim", "mmlqg.nash_gap", "mmlqg.toys", "mmlqg.verify"})
    assert "hashlib" in loaded["solve-mfg"]
    assert "mmlqg.population_sim" in loaded["simulate"]
    assert "mmlqg.nash_gap" in loaded["nash-gap"]


def _imported_modules(tree) -> set:
    """Top-level names of the absolute imports in a module's AST."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_no_package_module_imports_scipy():
    for path in sorted(Path(mmlqg.__file__).parent.glob("*.py")):
        assert "scipy" not in _imported_modules(ast.parse(path.read_text())), path.name


def _names(record) -> set:
    return {name for name, *_ in field_table(record)}


def test_config_imports_no_numpy_and_names_no_record_field():
    tree = ast.parse(Path(config.__file__).read_text())
    assert "numpy" not in _imported_modules(tree)
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    fields = set().union(*map(_names, (LqgProblem, MajorParams, MinorTypeParams,
                                       MmMfgProblem)))
    # only the two LQG renames; every other key comes from the tables
    assert literals & fields == {"N_cross", "n_lin"}


def test_config_sections_accept_exactly_the_record_tables():
    # every field but the scalars and sub-records is in its record's table
    def fields(cls, own=()):
        return {f.name for f in dataclasses.fields(cls)} - set(own)

    assert fields(LqgProblem, ("rho", "grid")) == _names(LqgProblem)
    assert fields(MajorParams) == _names(MajorParams)
    assert fields(MinorTypeParams) == _names(MinorTypeParams)
    assert fields(MmMfgProblem, ("major", "minors", "pi", "grid", "rho")) \
        == _names(MmMfgProblem)

    def fill(section, record, dims, json_names={}):
        for name, rows, cols, _ in field_table(record):
            section[json_names.get(name, name)] = np.full(
                (dims[rows], dims[cols]), 0.25).tolist()

    def read(record):
        return [getattr(getattr(record, name), "values", getattr(record, name))
                for name in _names(record)]

    # every table key is accepted under its JSON name and reaches its field
    dims = {"n": 1, "m": 1, "r": 1, 1: 1}
    cfg = _lqg_cfg()
    fill(cfg, LqgProblem, dims, {"N_cross": "N", "n_lin": "n"})
    for value in read(config.parse_lqg_problem(cfg)):
        assert np.all(value == 0.25)
    dims["n"] = 2
    cfg = _mfg_cfg()
    fill(cfg, MmMfgProblem, dims)
    fill(cfg["major"], MajorParams, dims)
    for minor in cfg["minors"]:
        fill(minor, MinorTypeParams, dims)
    p = config.parse_mfg_problem(cfg)
    for record in [p, p.major] + p.minors:
        for value in read(record):
            assert np.all(value == 0.25)

    # $.fixed_point accepts every FixedPointConfig field, each key reaches
    # its field, and any other key is rejected: no fixed-point knob exists
    # in the library alone
    values = {"theta": 0.5, "tol": 1e-6, "max_iters": 7}
    assert fields(FixedPointConfig) == set(values)
    fp = config.parse_fixed_point({"fixed_point": values})
    assert dataclasses.asdict(fp) == values
    with pytest.raises(SchemaError, match=r"^\$\.fixed_point: unknown key 'extra'$"):
        config.parse_fixed_point({"fixed_point": dict(values, extra=1)})


# The public names, the submodules the package binds included, by home.
PUBLIC = {
    "errors": ["errors", "AreSolveError", "AssumptionViolationError",
               "DimensionGuardError", "DivergedPathError", "FixedPointError",
               "IntegrationDivergedError", "MmlqgError", "NumericalError",
               "OutOfRangeError", "RiccatiBlowupError", "SchemaError",
               "UnsupportedOracleError"],
    "numerics": ["numerics", "GridFunction", "TimeGrid"],
    "lqg_single": ["lqg_single", "FeedbackLaw", "LqgProblem", "LqgSolution",
                   "StationarySolution", "expected_cost", "gateaux_derivative_det",
                   "solve_discounted_are", "solve_finite_horizon",
                   "solve_infinite_horizon", "validate_convexity"],
    "mfg_model": ["mfg_model", "MajorParams", "MinorTypeParams", "MmMfgProblem",
                  "build_extended_major", "build_extended_minor",
                  "build_mean_field_matrices", "validate_problem"],
    "mfg_solver": ["mfg_solver", "FixedPointConfig", "MfgSolution",
                   "StationaryMfgSolution", "solve_consistency_finite",
                   "solve_consistency_infinite"],
    "population_sim": ["population_sim", "PopulationConfig", "TrajectoryBundle",
                       "expected_cost_exact", "mean_field_convergence_study",
                       "simulate_population"],
    "nash_gap": ["nash_gap", "BestResponse", "NashGapReport",
                 "build_joint_closed_loop", "epsilon_nash_gap",
                 "gap_vs_population", "solve_best_response"],
    "toys": ["toys", "coupled_toy", "decoupled_toy"],
}


def test_public_names_are_unchanged_and_resolve_to_their_home():
    names = [name for home in PUBLIC.values() for name in home]
    assert len(names) == 57
    assert sorted(mmlqg.__all__) == sorted(names)
    for home, members in PUBLIC.items():
        module = importlib.import_module("mmlqg." + home)
        assert getattr(mmlqg, home) is module
        for name in members[1:]:
            assert getattr(mmlqg, name) is getattr(module, name), name
    assert set(names) <= set(dir(mmlqg))
    star = {}
    exec("from mmlqg import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        mmlqg.no_such_name
