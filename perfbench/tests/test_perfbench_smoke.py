"""Smoke check of the benchmark harness: every workload runs at tiny size,
traced and untraced, and prints every metric it declares.

No timing is asserted: the figures of a tiny run on a shared machine mean
nothing.  Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXTRA_LINES = ("fail_ratio",)  # printed by name but not part of the JSON result


def run_all(trace: int) -> tuple[list[str], dict]:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
            "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed(trace, key):
    lines, result = run_all(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
    for name in list(declared) + list(EXTRA_LINES):
        assert name in printed, f"metric {name} not printed"
    for workload in WORKLOADS:
        for name, unit in declared.items():
            doc = result["metrics"][f"{workload}.{name}"]
            assert doc["unit"] == unit
            assert isinstance(doc["value"], (int, float))
    env = [json.loads(ln[4:]) for ln in lines if ln.startswith("env ")]
    assert len(env) == len(WORKLOADS)
    assert all(e["kernel_backend"] in ("python", "numba", "unknown") for e in env)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    argv = [sys.executable, str(bench / "run.py"), "--workload", "exact",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
