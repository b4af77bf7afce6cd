"""Smoke test of the benchmark harness at tiny catalogue sizes.

    python3 -m pytest bench

Runs every workload untraced and traced through the real command line and
checks the result line against BENCHMARK.json, so the harness cannot break
silently.  The full-size runs are far too slow for a test.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_N = {"compile-10k": 150, "verify-1000": 120, "maintain-600": 120}


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(TINY_N)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_N))
def test_tiny_run(tmp_path, workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
               "--trace", str(trace), "--n", str(TINY_N[workload]), "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    record = json.loads((tmp_path / f"{workload}-seed5-trace{trace}.json").read_text())
    assert record["provenance"]["n"] == TINY_N[workload]
    if trace:
        spans = record["trace"]["spans"]
        assert spans and all(s["end"] >= s["start"] for s in spans)


def test_same_seed_same_counts(tmp_path):
    args = ("--workload", "maintain-600", "--seed", "2", "--seconds", "0",
            "--trace", "0", "--n", "120", "--out", str(tmp_path))
    first, second = (json.loads(run(ROOT, *args).stdout.strip().splitlines()[-1]) for _ in "ab")
    assert first["metrics"]["negatives"] == second["metrics"]["negatives"]
    assert first["metrics"]["snapshot_mb"] == second["metrics"]["snapshot_mb"]


def test_host_speed_factor():
    sys.path.insert(0, str(HERE))
    from hostspeed import MIN_SAMPLES, NOMINAL_MS, HostSpeed

    speed = HostSpeed()
    speed.at = [float(t) for t in range(20)]
    speed.ms = [2 * NOMINAL_MS] * 10 + [4 * NOMINAL_MS] * 10
    assert speed.factor(0.0, 9.0) == 0.5
    assert speed.factor(10.0, 19.0) == 0.25
    # Too few samples inside: the nearest MIN_SAMPLES stand in.
    assert MIN_SAMPLES <= 10 and speed.factor(2.5, 2.5) == 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(tmp_path, "--workload", "compile-10k", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
