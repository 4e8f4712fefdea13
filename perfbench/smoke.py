"""Smoke tests for the benchmark at tiny sizes (kept out of the Tier-1 suite).

    python3 -m pytest -q perfbench/smoke.py

They run every workload once at a few percent of its size, traced and
untraced, and check the result line against BENCHMARK.json.  About a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import probes  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import count_is_plausible, percentile_tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert "report" in json.loads(lines[-2])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        probes.PER_LAYER_ROWS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["mc-walk", "mc-pattern", "mc-traced"])
def test_mc_workload_tiny(workload, trace):
    result = result_of(bench(ROOT, "--workload", workload, "--seed", "3",
                             "--seconds", "0.1", "--trace", trace, "--scale", "0.02"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_workload_one_cycle():
    result = result_of(bench(ROOT, "--workload", "cli", "--seed", "3",
                             "--seconds", "0.1", "--trace", "0"))
    assert result["correct"] and result["attempted"] == 11
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs():
    from workloads import build_cycle

    for workload in run.WORKLOADS:
        first = build_cycle(workload, 5, 2, 1.0, Path("w"))
        again = build_cycle(workload, 5, 2, 1.0, Path("w"))
        other = build_cycle(workload, 6, 2, 1.0, Path("w"))
        assert first == again
        assert first != other


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "mc-walk", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_keeps_ten_beyond():
    values = [float(v) for v in range(1, 41)]
    tail, pct = percentile_tail(values)
    assert sum(v > tail for v in values) == 10 and pct == 75.0
    assert percentile_tail([1.0, 2.0]) == (2.0, 100.0)


def test_binomial_tolerance():
    assert count_is_plausible(0, 1000, 1e-4)
    assert not count_is_plausible(5, 1000, 1e-4)
    assert count_is_plausible(24, 24, 0.9999, exact=True)
    assert not count_is_plausible(0, 24, 0.9999, exact=True)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    rollup = tracer.rollup()
    outer, inner = rollup["outer"], rollup["inner"]
    assert outer["count"] == inner["count"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert inner["self_s"] == inner["total_s"]
