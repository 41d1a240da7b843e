"""Smoke test of the benchmark itself: tiny inputs, every declared metric.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at `--size tiny` untraced and traced; the last stdout
line must carry exactly the metrics BENCHMARK.json declares, with their
units, and every oracle check must pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", SPEC["workloads"], ids=lambda w: w["name"])
def test_every_declared_metric_is_printed(workload, trace):
    proc = _run(workload["name"], trace)
    assert f"# {workload['why']}\n" in proc.stdout
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in printed.items()}
    for name, metric in printed.items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def _counts(workload, seed):
    metrics = _result(_run(workload, 1, seed=seed))["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_across_processes(workload):
    first = _counts(workload, 3)
    assert any(first.values())
    assert first == _counts(workload, 3)


def test_seed_changes_the_inputs():
    assert _counts("sat-threshold", 3) != _counts("sat-threshold", 4)


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("compile", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        work = ROOT / ".perfbench_work"
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
