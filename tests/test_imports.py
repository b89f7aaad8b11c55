"""scipy stays out of the finite-horizon paths: import and CLI start cost.

Only the infinite-horizon ARE (and its Lyapunov polish) and the costate
oracle need scipy, and they import it when called.  Each check runs in a
fresh interpreter, since this test process has scipy loaded already.
"""

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


def test_scipy_is_loaded_only_by_the_stationary_solver(tmp_path):
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
        "stationary solve": True,
    }
