"""Every input ends in an exit code: no exception leaves `cli_app.main`.

Each example takes the pinned config of one data command at M = 8 (the
coupled toy game, or a 2-state LQG for solve-lqg), replaces one or two
of its leaves (a number, string, bool, null or empty list) by a hostile
JSON value, writes it with NaN and Infinity tokens where they occur, and
runs the command in-process.  Whatever the value, the command returns 0,
2 (config error), 3 (numerical failure) or 4 (assumption violation).
The JSON reader rejects a float size, so no example allocates more than
the pinned sizes (at most 16 agents).
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmlqg import cli_app
from mmlqg.lqg_single import field_table
from mmlqg.mfg_model import MajorParams, MinorTypeParams
from mmlqg.toys import coupled_toy

VALUES = [math.nan, math.inf, -math.inf, -1, 0, 0.5, 1e300, "x", None, True,
          [], {}, [[1]], [1, 2, 3]]


def _plain(value):
    """A record field as JSON: a constant grid table by its first node."""
    values = getattr(value, "values", None)
    return np.asarray(value if values is None else values[0]).tolist()


def _game(M: int) -> dict:
    p = coupled_toy(M=M)
    return {
        "kind": "mfg", "grid": {"T": p.grid.t_end, "M": M}, "pi": p.pi.tolist(),
        "major": {name: _plain(getattr(p.major, name))
                  for name, *_ in field_table(MajorParams)},
        "minors": [{name: _plain(getattr(mn, name))
                    for name, *_ in field_table(MinorTypeParams)}
                   for mn in p.minors],
        "init_cov_major": p.init_cov_major.tolist(),
        "init_cov_minor": p.init_cov_minor.tolist(),
    }


BASE = {
    "solve-lqg": {
        "kind": "lqg", "grid": {"T": 1.0, "M": 8}, "rho": 0.5,
        "A": [[0.1, 0.4], [-0.3, -0.2]], "B": [[1.0], [0.5]], "b": [[0.1], [-0.05]],
        "sigma": [[0.3, 0.0], [0.1, 0.2]], "Q": [[1.0, 0.2], [0.2, 0.8]],
        "N": [[0.1], [0.0]], "R": [[1.5]], "Qhat": [[0.5, 0.0], [0.0, 0.3]],
        "eta": [[0.2], [-0.1]], "n": [[0.05]], "x0": [[1.0], [-0.5]]},
    "solve-mfg": dict(_game(8), fixed_point={"theta": 0.8, "tol": 1e-8,
                                             "max_iters": 50}),
    "simulate": dict(_game(8), population={"N": 5, "num_paths": 2, "master_seed": 3,
                                           "record_states": True},
                     study={"Ns": [4, 16], "seeds": [0]}),
    "nash-gap": dict(_game(8), nash={"Ns": [2, 3], "master_seed": 1}),
}


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


LEAVES = {command: list(_leaves(cfg)) for command, cfg in BASE.items()}


def _mutated(command: str, changes) -> tuple:
    """(command, its base config with each (leaf path, value) set)."""
    cfg = copy.deepcopy(BASE[command])
    for path, value in changes:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    return command, cfg


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    paths = draw(st.lists(st.sampled_from(LEAVES[command]), min_size=1,
                          max_size=2, unique=True))
    return _mutated(command, [(path, draw(st.sampled_from(VALUES))) for path in paths])


def test_every_base_config_runs():
    with tempfile.TemporaryDirectory() as tmp:
        for command, cfg in BASE.items():
            path = Path(tmp) / (command + ".json")
            path.write_text(json.dumps(cfg))
            assert cli_app.main([command, "--config", str(path),
                                 "--out", str(Path(tmp) / command)]) == 0, command


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(mutated_configs())
# the lifted weight C'QC overflows: these escaped as numpy's LinAlgError
@example(_mutated("solve-mfg", [(("major", "H0", 0, 0), 1e300)]))
@example(_mutated("simulate", [(("minors", 0, "Hk", 0, 0), 1e300)]))
@example(_mutated("nash-gap", [(("minors", 1, "Hhatk", 1, 1), 1e300)]))
def test_every_mutated_config_ends_in_an_exit_code(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = cli_app.main([command, "--config", str(path),
                             "--out", str(Path(tmp) / "run")])
    assert code in (0, 2, 3, 4), (command, code)
