"""Smoke tests for the benchmark itself: `python -m pytest bench`.

Every workload runs at the smoke size with all output checks on; timings
are not gated.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _copy_checkout(dst: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(HERE, dst / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def test_refuses_a_checkout_without_the_library(tmp_path):
    root = _copy_checkout(tmp_path, with_src=False)
    proc = run_bench(root, "--workload", WORKLOADS[0], "--seed", "0", "--smoke")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_changed_output_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path, with_src=True)
    pins_path = root / "bench" / "pins.json"
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    pinned = pins["smoke"]["large-instance"]["0"]
    pinned["reverse_match"] += 1
    pins_path.write_text(json.dumps(pins), encoding="utf-8")
    proc = run_bench(root, "--workload", "large-instance", "--seed", "0", "--smoke")
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] == 1
    assert "FAIL output 'reverse_match'" in proc.stdout
