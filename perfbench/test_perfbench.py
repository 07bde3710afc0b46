"""Smoke tests for the benchmark itself.

Run from the repository root (about two minutes):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = 7) -> dict:
    """One tiny run (the smallest pool: one round, or one traced pair)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    return {"result": json.loads(lines[-1]), "lines": lines[:-1]}


def check_metrics(out: dict, specs: list):
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert isinstance(metric["value"], (int, float)), spec["name"]
        assert any(line.split()[:1] == [spec["name"]] and line.endswith(" " + spec["unit"])
                   for line in out["lines"]), f"{spec['name']} not printed with its unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    out = run(workload, 0)
    check_metrics(out, SPEC["end_to_end"])
    assert all(out["result"]["metrics"][s["name"]]["value"] > 0 for s in SPEC["end_to_end"])
    assert any(line.startswith("# fail_ratio: ") for line in out["lines"])
    assert any(line.startswith("# tail_percentile: ") for line in out["lines"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly_at_one_seed(workload):
    first, second = run(workload, 1), run(workload, 1)
    check_metrics(first, SPEC["per_layer"])
    counts = [{k: v["value"] for k, v in out["result"]["metrics"].items() if v["unit"] == "count"}
              for out in (first, second)]
    assert counts[0] == counts[1]
    for name in ("calls", "karcher_steps", "transitions", "pairs", "levels_built"):
        assert any(k.endswith(name) for k in counts[0]), name


def test_refuses_to_run_without_the_package_source():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for f in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(f, bare / "perfbench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
