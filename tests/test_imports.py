"""scipy stays out of the package: import and CLI start cost.

The package runs on numpy alone, the stationary ARE and the costate
oracle included; scipy is a test-only oracle.  Every command and the
stationary solve run in a fresh interpreter, since this test process has
scipy loaded already, and no module of the package may import it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import mmlqg
from test_config_cli import _mfg_cfg

SRC = str(Path(mmlqg.__file__).resolve().parent.parent)

SCRIPT = r"""
import json, sys
from pathlib import Path

out, cfg_path = Path(sys.argv[1]), sys.argv[2]
seen = {}
import mmlqg
seen["import mmlqg"] = "scipy" in sys.modules
from mmlqg import cli_app
seen["import mmlqg.cli_app"] = "scipy" in sys.modules
for command in ("solve-mfg", "simulate", "nash-gap"):
    code = cli_app.main([command, "--config", cfg_path, "--out", str(out / command)])
    assert code == 0, (command, code)
    seen[command] = "scipy" in sys.modules
code = cli_app.main(["verify", "--out", str(out / "verify")])
assert code == 0, ("verify", code)
seen["verify"] = "scipy" in sys.modules
from mmlqg import coupled_toy, solve_consistency_infinite
solve_consistency_infinite(coupled_toy(M=4, rho=4.0))
seen["stationary solve"] = "scipy" in sys.modules
print(json.dumps(seen))
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


def test_no_command_loads_scipy(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {
        "import mmlqg": False,
        "import mmlqg.cli_app": False,
        "solve-mfg": False,
        "simulate": False,
        "nash-gap": False,
        "verify": False,
        "stationary solve": False,
    }


def test_no_package_module_imports_scipy():
    for path in sorted(Path(mmlqg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name
