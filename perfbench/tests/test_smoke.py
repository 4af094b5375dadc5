"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/tests

One operation per workload, timed and traced: every metric is emitted with
its unit, a corrupted output is counted as failed, the metric lists agree
with BENCHMARK.json, and a tree without the package's sources fails cleanly.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (first, so BLAS threads are pinned before numpy loads)

workloads = run.load_workloads()

SCENARIO = "margin_demo"  # waypoints, tracking margins and a tracking section

# Every metric the benchmark was specified to report, with its unit.
END_TO_END = {
    "plan": {"model_ms_p50": "ms", "model_ms_p90": "ms"},
    "verify": {"verify_ms_p50": "ms", "verify_ms_p90": "ms"},
    "track": {"track_ticks_per_s": "1/s", "track_run_s_p50": "s"},
}
EVERY_WORKLOAD = {"setup_s": "s", "peak_rss_mb": "MB", "ops": "count", "ops_failed": "count"}
PER_LAYER = {
    "cli.load_scenario_ms": "ms",
    "planner.compile_position_ms": "ms",
    "planner.compile_velocity_ms": "ms",
    "planner.compile_tilt_cone_ms": "ms",
    "planner.compile_thrust_ms": "ms",
    "planner.compile_rate_ms": "ms",
    "planner.compile_waypoints_ms": "ms",
    "planner.compile_endpoints_ms": "ms",
    "planner.compile_corridor_ms": "ms",
    "planner.compile_interval_ms": "ms",
    "planner.compile_objective_ms": "ms",
    "socp.residuals_ms": "ms",
    "socp.blocks": "count",
    "socp.num_vars": "count",
    "simverify.verify_plan_ms": "ms",
    "simverify.verify_span_minima_ms": "ms",
    "splines.eval_grid_ms": "ms",
    "flatness.tilt_thrust_rates_ms": "ms",
    "simverify.samples": "count",
    "simverify.simulate_s": "s",
    "simverify.reference_us_p50": "us",
    "simverify.reference_us_p99": "us",
    "tracker.controller_us_p50": "us",
    "tracker.controller_us_p99": "us",
    "simverify.loop_self_us": "us",
    "tracker.clamped_ticks": "count",
    "simverify.ticks": "count",
    "trace.overhead_pct": "%",
}


def one_case(seed, tracer):
    return [c for c in workloads.make_cases(seed, tracer) if c.name == SCENARIO]


@pytest.fixture(autouse=True)
def one_op(monkeypatch):
    """Let one set-up, one operation and one traced round stand for a run."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_TIMED_OPS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_ROUNDS", 1)
    monkeypatch.setattr(run, "MIN_BEYOND_TAIL", 0)


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit, _) in metrics.items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    wl = workloads.WORKLOADS[workload]

    timed = run.measure(workload, wl, one_case, 5, 0.0, trace=False)
    assert [(r.traced, r.failed) for r in timed.records] == [(False, False)]
    e2e = run.end_to_end(timed)
    emitted = units(e2e) | units(run.unbounded(workload, timed, e2e))
    assert units(e2e) == run.END_TO_END
    assert emitted.items() >= (END_TO_END[workload] | EVERY_WORKLOAD).items()

    traced = run.measure(workload, wl, one_case, 5, 0.0, trace=True)
    assert [(r.traced, r.failed) for r in traced.records] == [(False, False), (True, False)]
    layers = units(run.per_layer(traced))
    assert layers == run.PER_LAYER
    assert layers.items() >= PER_LAYER.items()


def corrupt_plan(out):
    out["residuals"]["endpoint"] = 1e-6
    return out


def corrupt_verify(out):
    out["derivs"][1] = out["derivs"][1] * (1.0 + 1e-6)
    return out


def corrupt_track(out):
    out["trace"] = dataclasses.replace(out["trace"], r=out["trace"].r + 1e-7)
    return out


@pytest.mark.parametrize(
    "workload, corrupt",
    [("plan", corrupt_plan), ("verify", corrupt_verify), ("track", corrupt_track)],
)
def test_corrupted_output_counts_as_failed(workload, corrupt):
    wl = workloads.WORKLOADS[workload]
    bad = wl._replace(op=lambda case, tracer: corrupt(wl.op(case, tracer)))
    m = run.measure(workload, bad, one_case, 5, 0.0, trace=False)
    assert [r.failed for r in m.records] == [True]


def test_raising_op_counts_as_failed():
    def boom(case, tracer):
        raise ValueError("injected")

    wl = workloads.WORKLOADS["plan"]._replace(op=boom)
    m = run.measure("plan", wl, one_case, 5, 0.0, trace=False)
    assert [r.failed for r in m.records] == [True]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tree_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "plan", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
