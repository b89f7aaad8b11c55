"""Tests of the benchmark itself: configs, the correctness gate, a smoke run.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_op(tmp_path, workload, cfg=None):
    """Run one tiny operation: (exit code, output directory)."""
    cfg = cfg or workloads.make_config(workload, 5, workloads.TINY)
    cfg_path = workloads.write_config(cfg, tmp_path / (workload + ".json"))
    out = tmp_path / (workload + "-out")
    code, _, _ = runner.run_process(
        workloads.op_argv(workload, cfg_path, out), runner.child_env(),
        tmp_path / "ops.log")
    return code, out


@pytest.mark.parametrize("sizes", [workloads.PINNED, workloads.TINY])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_config_parses_to_coupled_toy(workload, sizes):
    cfg = workloads.make_config(workload, 12345, sizes)
    assert workloads.config_mismatches(cfg) == []
    assert cfg == workloads.make_config(workload, 12345, sizes)


def test_config_self_check_names_a_changed_matrix():
    cfg = workloads.make_config("solve", 1, workloads.TINY)
    cfg["minors"][1]["Hhatk"][0][1] += 1e-12
    assert workloads.config_mismatches(cfg) == ["minors[1].Hhatk"]


def test_seed_sets_master_and_study_seeds():
    cfg = workloads.make_config("simulate", 41, workloads.TINY)
    assert cfg["population"]["master_seed"] == 41
    assert cfg["study"]["seeds"] == [41, 42, 43, 44]
    assert workloads.make_config("nash", -1, workloads.TINY)["nash"][
        "master_seed"] == 2 ** 32 - 1


def test_gate_flags_a_flipped_digit_in_gaps_csv(tmp_path):
    code, out = tiny_op(tmp_path, "nash")
    assert code == 0
    ref = gate.record("nash", out, workloads.TINY)
    hashes = gate.data_hashes(out)
    assert gate.check("nash", code, out, workloads.TINY, ref, hashes,
                      hashes) == []

    bad = tmp_path / "flipped"
    shutil.copytree(out, bad)
    text = (bad / "gaps.csv").read_text()
    at = text.index("\n2,0.00") + len("\n2,0.00")   # first digit of a gap
    flipped = "1" if text[at] != "1" else "2"
    (bad / "gaps.csv").write_text(text[:at] + flipped + text[at + 1:])
    problems = gate.check("nash", 0, bad, workloads.TINY, ref,
                          gate.data_hashes(bad), hashes)
    assert any("N2.major_gap" in p for p in problems)
    assert any("differ from the first run: gaps.csv" in p for p in problems)


def test_gate_flags_a_nonzero_exit(tmp_path):
    cfg = workloads.make_config("solve", 1, workloads.TINY)
    cfg["fixed_point"] = {"max_iters": 1}     # cannot converge: exit 3
    code, out = tiny_op(tmp_path, "solve", cfg)
    assert code == 3
    assert gate.check("solve", code, out, workloads.TINY) == ["exit code 3"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(tmp_path, workload):
    run = runner.Run(workload, 3, tmp_path, workloads.TINY)
    assert run.config_problems == []
    metrics = runner.per_layer(run)      # one untraced, one traced operation
    assert run.attempted == 2
    assert run.failures == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.missing"]["value"] == 0


@pytest.mark.parametrize("workload", ["solve", "nash", "stationary"])
def test_reference_is_recorded_at_the_pinned_sizes(workload):
    assert gate.load_reference(workload, workloads.PINNED) is not None


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert got.returncode != 0
    assert "correct" not in got.stdout
