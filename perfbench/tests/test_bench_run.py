"""The benchmark command end to end: the metrics BENCHMARK.json declares,
correct results, and a refusal to run without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import Sessions

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seconds="0.01"):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "11",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_end_to_end_metrics(workload):
    proc = _run(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_declared_per_layer_metrics():
    proc = _run(ROOT, "sessions", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # Per traced round: noiseless honest sessions at every pair count plus
    # the noisy ones at one.
    honest = Sessions.per_kind * (len(Sessions.pair_counts) + 1)
    assert result["metrics"]["protocol.run_honest.calls"]["value"] == honest


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "sessions", trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
