"""Smoke tests of the benchmark at toy size. They check the output contract
and the correctness checks, never a timing, and are not part of the tier-1
suite (pytest's testpaths is `tests/`). Run them with

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace), "--toy"],
                          capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int) -> dict:
    proc = _run(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_definition(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_the_definition(workload):
    metrics = _result(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["autodiff.nodes_per_sample"]["value"] > 0
    assert metrics["autodiff.eval_nodes_per_sample"]["value"] == 0
    assert metrics["encoders.lstm.nodes_per_frame"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path / HERE.name / "run.py", "train_short", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
