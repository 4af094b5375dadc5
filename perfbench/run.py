"""Benchmark of safeflight's plan, verify and track paths.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

One client in a closed loop: each operation starts when the previous one has
finished and its outputs have been checked against an independent oracle.
Operations come in rounds that cover all eight bundled scenarios in a seeded
order, and a run ends with the first whole round after --seconds. The last
line of stdout is one JSON object with the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1); the lines before it name every metric
with its unit and sample count, then the run's provenance. See README.md.
"""

from __future__ import annotations

import os

# BLAS pools size themselves when numpy loads, so pin them before any import.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib.util import find_spec  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7
MIN_BEYOND_TAIL = 10  # a tail percentile needs this many samples beyond it
MIN_TIMED_OPS = 100  # so op_ms_p90 has 10 samples beyond it
MIN_TRACED_ROUNDS = 3  # of each kind; 3 track rounds give 1200 ticks for the p99s

END_TO_END = {
    "setup_s": "s",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Mean time per traced operation spent inside spans of this name.
LAYER_MS = (
    "planner.compile_position",
    "planner.compile_velocity",
    "planner.compile_tilt_cone",
    "planner.compile_thrust",
    "planner.compile_rate",
    "planner.compile_waypoints",
    "planner.compile_endpoints",
    "planner.compile_corridor",
    "planner.compile_interval",
    "planner.compile_objective",
    "socp.residuals",
    "planner.from_dict",
    "simverify.verify_plan",
    "simverify.verify_span_minima",
    "splines.eval_grid",
    "flatness.tilt_thrust_rates",
)
COUNTS = (
    "socp.blocks",
    "socp.num_vars",
    "simverify.samples",
    "simverify.ticks",
    "tracker.clamped_ticks",
)
PER_LAYER = {
    "cli.load_scenario_ms": "ms",
    **{f"{name}_ms": "ms" for name in LAYER_MS},
    **{name: "count" for name in COUNTS},
    "simverify.simulate_s": "s",
    "simverify.reference_us_p50": "us",
    "simverify.reference_us_p99": "us",
    "tracker.controller_us_p50": "us",
    "tracker.controller_us_p99": "us",
    "simverify.loop_self_us": "us",
    "bench.op_self_ms": "ms",
    "trace.untraced_op_ms_p50": "ms",
    "trace.traced_op_ms_p50": "ms",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class OpRecord:
    seconds: float
    traced: bool
    failed: bool


@dataclass
class Measurement:
    records: list[OpRecord]
    counts: dict[str, int]  # count metrics of the first round
    tracer: Tracer
    ops_per_round: int
    setup_seconds: list[float]


def tail(values, q: float) -> float:
    """The q-quantile, refused when fewer than MIN_BEYOND_TAIL samples lie beyond it."""
    values = np.asarray(values, dtype=float)
    if values.size * (1.0 - q) < MIN_BEYOND_TAIL:
        raise ValueError(f"p{q * 100:g} of {values.size} samples has too few beyond it")
    return float(np.quantile(values, q))


def load_workloads():
    """Import the operations against the checkout's own source tree."""
    if not (SRC / "safeflight" / "__init__.py").is_file():
        raise FileNotFoundError(f"no safeflight sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def measure(workload: str, wl, make_cases, seed: int, seconds: float, trace: bool) -> Measurement:
    """Set up, then loop over whole rounds until the time and sample floors are met.

    With trace, rounds alternate untraced and traced. The set-up is repeated
    SETUP_REPEATS times at even intervals across the run, so its median sees
    the same machine as the operations; the repeats yield identical inputs.
    """
    tracer, null = Tracer(), NullTracer()
    setup_tracer = tracer if trace else null
    setup_seconds: list[float] = []

    def set_up():
        tracer.op = -1
        start = time.perf_counter()
        cases = make_cases(seed, setup_tracer)
        setup_seconds.append(time.perf_counter() - start)
        return cases

    begin = time.perf_counter()
    cases = set_up()
    expects = [wl.expect(case) for case in cases]
    order_rng = np.random.default_rng([seed, 1])
    records: list[OpRecord] = []
    counts = None
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        round_counts: Counter = Counter()
        for k in order_rng.permutation(len(cases)):
            case = cases[k]
            tracer.op = len(records)
            start = time.perf_counter()
            try:
                if traced:
                    with tracer.span("bench.op"):
                        out = wl.op(case, tracer)
                else:
                    out = wl.op(case, null)
                elapsed = time.perf_counter() - start
                problems = wl.check(case, out, expects[k])
                round_counts.update(wl.counts(out))
            except Exception:  # noqa: BLE001 - a failed op is counted, never fatal
                elapsed = time.perf_counter() - start
                problems = [traceback.format_exc()]
            records.append(OpRecord(elapsed, traced, bool(problems)))
            if problems:
                print(
                    f"FAILED {workload} op {len(records) - 1} ({case.name}): "
                    + "; ".join(problems),
                    file=sys.stderr,
                )
        if counts is None:
            counts = dict(round_counts)
        rounds += 1
        elapsed = time.perf_counter() - begin
        if len(setup_seconds) < SETUP_REPEATS:
            if elapsed >= len(setup_seconds) * seconds / SETUP_REPEATS:
                set_up()
            continue
        if elapsed < seconds:
            continue
        if trace:
            if rounds >= 2 * MIN_TRACED_ROUNDS:
                break
        elif len(records) >= MIN_TIMED_OPS:
            break
    return Measurement(records, counts, tracer, len(cases), setup_seconds)


def end_to_end(m: Measurement) -> dict:
    """name -> (value, unit, sample count) for the untraced rounds."""
    timed = np.array([r.seconds for r in m.records if not r.traced])
    metrics = {
        "setup_s": (float(np.median(m.setup_seconds)), len(m.setup_seconds)),
        "op_ms_p90": (tail(timed, 0.9) * 1e3, timed.size),
        "ops_per_s": (timed.size / float(timed.sum()), timed.size),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return {name: (value, END_TO_END[name], n) for name, (value, n) in metrics.items()}


def unbounded(workload: str, m: Measurement, e2e: dict) -> dict:
    """The median latency, workload-specific names, and op counts.

    These are printed but not in the JSON result: the median flips between
    the fast and slow modes of a contended host (see README.md), so it is
    reported without a regression bound.
    """
    timed = np.array([r.seconds for r in m.records if not r.traced])
    p50 = (float(np.median(timed)) * 1e3, "ms", timed.size)
    ticks_per_op = m.counts.get("simverify.ticks", 0) / m.ops_per_round
    out = {"op_ms_p50": p50}
    out |= {
        "plan": {"model_ms_p50": p50, "model_ms_p90": e2e["op_ms_p90"]},
        "verify": {"verify_ms_p50": p50, "verify_ms_p90": e2e["op_ms_p90"]},
        "track": {
            "track_run_s_p50": (p50[0] / 1e3, "s", p50[2]),
            "track_ticks_per_s": (e2e["ops_per_s"][0] * ticks_per_op, "1/s", timed.size),
        },
    }[workload]
    attempted = len(m.records)
    out["ops"] = (attempted, "count", attempted)
    out["ops_failed"] = (sum(r.failed for r in m.records), "count", attempted)
    return out


def per_layer(m: Measurement) -> dict:
    """name -> (value, unit, sample count) from the traced rounds' spans."""
    traced_ops = sum(r.traced for r in m.records)
    dur = m.tracer.durations()
    selft = m.tracer.self_times()
    none = np.zeros(0)

    def per_op(name, scale):
        return float(dur.get(name, none).sum()) / traced_ops * scale, traced_ops

    def per_call(name, q, scale):
        values = dur.get(name, none)
        if values.size == 0:
            return 0.0, 0
        value = np.median(values) if q == 0.5 else tail(values, q)
        return float(value) * scale, values.size

    loads = dur["cli.load_scenario"]
    ticks = dur.get("tracker.controller", none).size
    untraced = [r.seconds for r in m.records if not r.traced]
    traced = [r.seconds for r in m.records if r.traced]
    metrics = {
        "cli.load_scenario_ms": (float(np.median(loads)) * 1e3, loads.size),
        **{f"{name}_ms": per_op(name, 1e3) for name in LAYER_MS},
        **{name: (m.counts.get(name, 0), m.ops_per_round) for name in COUNTS},
        "simverify.simulate_s": per_op("simverify.simulate", 1.0),
        "simverify.reference_us_p50": per_call("simverify.reference", 0.5, 1e6),
        "simverify.reference_us_p99": per_call("simverify.reference", 0.99, 1e6),
        "tracker.controller_us_p50": per_call("tracker.controller", 0.5, 1e6),
        "tracker.controller_us_p99": per_call("tracker.controller", 0.99, 1e6),
        "simverify.loop_self_us": (
            float(selft.get("simverify.simulate", none).sum()) / ticks * 1e6 if ticks else 0.0,
            ticks,
        ),
        "bench.op_self_ms": (float(np.mean(selft["bench.op"])) * 1e3, traced_ops),
        "trace.untraced_op_ms_p50": (float(np.median(untraced)) * 1e3, len(untraced)),
        "trace.traced_op_ms_p50": (float(np.median(traced)) * 1e3, traced_ops),
        "trace.overhead_pct": (
            (float(np.median(traced)) / float(np.median(untraced)) - 1.0) * 100.0,
            traced_ops,
        ),
    }
    return {name: (value, PER_LAYER[name], n) for name, (value, n) in metrics.items()}


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "clarabel_importable": find_spec("clarabel") is not None,
        "commit": git_commit(),
        "seed": seed,
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<32} {value:>16.6g} {unit:<6} n={n}")


def main(argv=None) -> int:
    try:
        workloads = load_workloads()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load safeflight: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    m = measure(
        args.workload, wl, workloads.make_cases, args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        metrics = per_layer(m)
        print_metrics(metrics)
        SPAN_DIR.mkdir(exist_ok=True)
        m.tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(m)
        print_metrics(metrics)
        print_metrics(unbounded(args.workload, m, metrics))
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    failed = sum(r.failed for r in m.records)
    result = {
        "correct": failed == 0,
        "attempted": len(m.records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
