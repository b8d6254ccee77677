"""The traced benchmark run: each workload's child process prints one JSON
result line whose trace wraps every target and reports every per-layer
metric that BENCHMARK.json declares."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: per-layer metrics that perfbench/run.py adds from the untraced wall time
FROM_RUNNER = {"harness.traced_wall_s", "harness.trace_overhead_s"}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_child_reports_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--workload", workload, "--seed", "0", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("READY ")
    report = json.loads(lines[-1])
    assert report["passed"], report["notes"]
    assert report["trace"]["missing"] == []
    expected = {m["name"] for m in BENCHMARK["per_layer"]} - FROM_RUNNER
    assert set(report["trace"]["metrics"]) == expected
