"""Smoke test of the benchmark harness.

Runs every workload of BENCHMARK.json at reduced size, untraced and
traced, and checks the result line: every declared metric with its unit,
no failed operation, and the BLAS thread pin read back as one thread;
and checks that the core-speed probe samples while it runs.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    *_, context_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    context = json.loads(context_line)["context"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert context["fail_rate"] == 0.0
    assert context["blas_threads"] == 1
    assert all(lib["threads"] == 1 for lib in context["machine"]["openblas"])
    if trace:
        assert result["metrics"]["fail_rate"]["value"] == 0.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "desk_adaptive", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_speed_probe_samples_while_running():
    from speed import INTERVAL_S, MIN_SAMPLES, SpeedProbe

    probe = SpeedProbe()
    with probe.running():
        deadline = time.perf_counter() + 3 * INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(probe.gemm) == len(probe.loop) >= 4  # entry, exit and the timer's
    while len(probe.gemm) < 2 * MIN_SAMPLES:
        probe.sample()
    n = len(probe.gemm)
    # a window shorter than MIN_SAMPLES widens about its middle, within the samples
    assert probe.speed(3, 4) == probe.speed(1, 1 + MIN_SAMPLES)
    assert probe.speed(n - 1, n) == probe.speed(n - MIN_SAMPLES, n)
    assert probe.speed() > 0
