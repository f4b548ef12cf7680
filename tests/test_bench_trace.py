"""The benchmark at smoke size: every traced function is still called, and
BENCHMARK.json is the one ``bench/spec.py`` generates.

The traced run (``bench/run.py --trace 1``) fails when a function it times
records no call, so a refactor that stops calling one fails here, in the
unit suite, and not only when the benchmark is run. The run must also count
each fused frame's masks once. Timings are not checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RUN = BENCH / "run.py"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]] if SPEC.is_file() else []

pytestmark = pytest.mark.skipif(not RUN.is_file(), reason="bench/run.py is absent")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--smoke", "--trace", "1",
         "--seconds", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["fusion.foreground_counts_per_frame"]["value"] == 1.0


@pytest.mark.skipif(not (BENCH / "spec.py").is_file(), reason="bench/spec.py is absent")
def test_benchmark_json_matches_spec():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import spec
    finally:
        del sys.path[:2]
    assert json.loads(SPEC.read_text()) == spec.benchmark_json()
