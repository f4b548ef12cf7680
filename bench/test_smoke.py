"""Smoke test of the benchmark on tiny inputs; it checks names, units and directions, never timings.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          timeout=300, cwd=cwd)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_unit_and_direction(workload, trace, key):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m for m in SPEC[key]}
    assert set(result["metrics"]) == set(expected)
    rows = {line.split()[0]: line.split()[1:] for line in report if line.startswith("  ")}
    for name, m in expected.items():
        got = result["metrics"][name]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert rows[name][-2:] == [m["unit"], m["better"]], name
    if trace == 0:
        assert rows["fail_ratio"] == ["0", "ratio", "lower"]


def test_benchmark_json_matches_spec():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import spec
    finally:
        del sys.path[:2]
    assert spec.benchmark_json() == SPEC


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "svx-dense", "--smoke", cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
