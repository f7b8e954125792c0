"""Smoke tests of the benchmark, on tiny variants of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, run_py: Path = BENCH / "run.py"):
    cmd = [sys.executable, str(run_py), "--scale", "tiny", "--seconds", "0.3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result(done) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    info, res = result(bench("--workload", workload, "--seed", "0", "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    assert info["recorded_outputs_checked"]
    if trace:
        assert info["counts_vs_reference"] == "match"
        assert not info["counts_drift_within_run"]


@pytest.mark.parametrize("corrupt", ["drop-edge", "digest"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_in_fail_ratio(workload, corrupt):
    info, res = result(bench("--workload", workload, "--seed", "0", "--corrupt", corrupt))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert info["fail_ratio"] == 1.0
    assert res["metrics"]["pass_ratio"]["value"] == 0.0


def test_unrecorded_seed_still_checks_invariants():
    info, res = result(bench("--workload", "random-lgg-real", "--seed", "7"))
    assert res["correct"] and not info["recorded_outputs_checked"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "grid-300", "--seed", "0", cwd=tmp_path,
                 run_py=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(30)]
    assert tail(samples) == (19.0, 100.0 * 20 / 30, 10)
    assert tail(samples[:20]) == (19.0, 100.0, 0)
