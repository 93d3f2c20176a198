"""Tracing + telemetry overhead: the observability zero/low-cost gates.

The observability layer's zero-cost-when-disabled claim is a measurable
property: with the default :class:`~repro.obs.tracer.NullTracer`, a run
must cost the same as before the layer existed (producers check one
``tracer.enabled`` bool per potential event), while the streaming
:class:`~repro.obs.tracer.JsonlTracer` pays JSON serialization per
event.  This benchmark times identical overload runs under both and
reports the ratio.

It also gates **kernel phase profiling**
(:func:`repro.obs.telemetry.enable_phase_profiling`, the hot part of
campaign telemetry): profiling-off and profiling-on runs of the same
task set are timed in back-to-back pairs, the results are asserted
identical (telemetry is observation only), and ``--check`` fails the
process unless the median of the per-pair on/off ratios is ≤ 1.02 —
the ≤2% budget counts ride on existing loop variables and 1-in-128
wall-clock sampling were designed to meet.

Standalone (CI runs this; artifacts are uploaded)::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py \
        --smoke --check --out trace-overhead.json --trace-out sample-trace.jsonl

Also collectable as a pytest benchmark::

    pytest benchmarks/bench_trace_overhead.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
import time
from typing import Any, Dict, Optional

from repro.experiments.runner import run_overload_experiment
from repro.obs.tracer import JsonlTracer
from repro.runtime.spec import MonitorSpec
from repro.workload.generator import generate_taskset
from repro.workload.scenarios import SHORT


def _run_once(ts, tracer=None, horizon: float = 5.0):
    return run_overload_experiment(
        ts, SHORT, MonitorSpec("simple", 0.6), horizon=horizon, tracer=tracer
    )


def _time_runs(ts, reps: int, make_tracer, horizon: float):
    """Wall-clock ns per run; tracers are created/closed inside the timing
    (that's part of the cost a traced sweep cell pays)."""
    samples = []
    for _ in range(reps):
        tracer = make_tracer()
        t0 = time.perf_counter_ns()
        result = _run_once(ts, tracer=tracer, horizon=horizon)
        samples.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.close()
    return samples, result


def measure(
    reps: int = 5,
    seed: int = 2015,
    horizon: float = 5.0,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Compare NullTracer vs. JsonlTracer wall-clock on identical runs."""
    ts = generate_taskset(seed)
    _run_once(ts, horizon=horizon)  # warm-up (imports, allocator)

    null_ns, null_result = _time_runs(ts, reps, lambda: None, horizon)

    trace_path = trace_out or os.path.join(
        tempfile.mkdtemp(prefix="repro-trace-bench-"), "sample-trace.jsonl"
    )

    def make_jsonl():
        return JsonlTracer(trace_path, meta={"scenario": SHORT.name,
                                             "benchmark": "trace_overhead"})

    jsonl_ns, jsonl_result = _time_runs(ts, reps, make_jsonl, horizon)
    with open(trace_path, "r", encoding="utf-8") as fh:
        trace_events = sum(1 for _ in fh)

    # Tracing must not change the simulation.
    assert jsonl_result == null_result, "tracing changed the RunResult"

    def stats(xs):
        return {
            "mean_ms": statistics.mean(xs) / 1e6,
            "min_ms": min(xs) / 1e6,
            "max_ms": max(xs) / 1e6,
        }

    return {
        "format": "repro-trace-overhead",
        "version": 1,
        "reps": reps,
        "seed": seed,
        "horizon": horizon,
        "null_tracer": stats(null_ns),
        "jsonl_tracer": stats(jsonl_ns),
        "overhead_ratio": statistics.mean(jsonl_ns) / statistics.mean(null_ns),
        "trace_path": trace_path,
        "trace_events": trace_events,
        "events_processed": null_result.events,
    }


#: Telemetry-on wall-clock budget relative to telemetry-off (the ≤2% gate).
PHASE_OVERHEAD_BUDGET = 1.02


def measure_phase_overhead(
    pairs: int = 121, seed: int = 2015, horizon: float = 5.0
) -> Dict[str, Any]:
    """Phase profiling off vs. on: the median of per-pair ratios.

    Each pair times one profiling-off and one profiling-on run back to
    back, alternating which goes first, so host drift (thermal, other
    load) hits both runs of a pair alike and a linear trend cancels
    across pairs.  The gate reads the median of the per-pair on/off
    ratios: a disturbed run moves only its own pair's ratio, which the
    median ignores.  One run takes 30-50 ms and one pair's ratio
    scatters by a few percent on a shared host, so it takes about a
    hundred pairs for the median to resolve the 2 % budget.  Also proves
    result-neutrality: every profiled run must produce a
    :class:`~repro.experiments.metrics.RunResult` equal to the
    unprofiled one.
    """
    from repro.obs.telemetry import PHASE_PROFILER, enable_phase_profiling

    ts = generate_taskset(seed)

    def timed(profiling: bool):
        enable_phase_profiling(profiling)
        t0 = time.perf_counter_ns()
        result = _run_once(ts, horizon=horizon)
        return time.perf_counter_ns() - t0, result

    off_ns, on_ns = [], []
    try:
        timed(True)  # warm-up both code paths
        timed(False)
        PHASE_PROFILER.reset()
        for i in range(pairs):
            first = bool(i % 2)
            a_ns, a_result = timed(first)
            b_ns, b_result = timed(not first)
            # Telemetry is observation only: identical results either way.
            assert a_result == b_result, "phase profiling changed the RunResult"
            off, on = (b_ns, a_ns) if first else (a_ns, b_ns)
            off_ns.append(off)
            on_ns.append(on)
    finally:
        enable_phase_profiling(False)

    phases = PHASE_PROFILER.snapshot()
    PHASE_PROFILER.reset()
    return {
        "format": "repro-phase-overhead",
        "version": 2,
        "pairs": pairs,
        "seed": seed,
        "horizon": horizon,
        "off_median_ms": statistics.median(off_ns) / 1e6,
        "on_median_ms": statistics.median(on_ns) / 1e6,
        "pair_ratios": [on / off for on, off in zip(on_ns, off_ns)],
        "overhead_ratio": statistics.median(on / off for on, off in zip(on_ns, off_ns)),
        "budget_ratio": PHASE_OVERHEAD_BUDGET,
        "events_processed": a_result.events,
        "phases": phases,
    }


def bench_trace_overhead(benchmark):
    """pytest-benchmark wrapper around one measured comparison."""
    doc = benchmark.pedantic(lambda: measure(reps=3), rounds=1, iterations=1)
    print()
    print(json.dumps({k: doc[k] for k in
                      ("null_tracer", "jsonl_tracer", "overhead_ratio")}, indent=2))
    benchmark.extra_info["overhead_ratio"] = round(doc["overhead_ratio"], 3)
    # Streaming JSON per event costs real time, but stays within an order
    # of magnitude of the untraced run on this workload.
    assert doc["overhead_ratio"] < 10.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="fast CI mode: fewer repetitions, shorter horizon")
    ap.add_argument("--reps", type=int, default=None,
                    help="timed repetitions per variant (default 5; smoke 3)")
    ap.add_argument("--seed", type=int, default=2015)
    ap.add_argument("--out", metavar="FILE",
                    help="write the comparison as JSON to FILE")
    ap.add_argument("--trace-out", metavar="FILE",
                    help="keep the sample JSONL trace at FILE")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero if telemetry (phase profiling) "
                         f"overhead exceeds {PHASE_OVERHEAD_BUDGET:.2f}x")
    args = ap.parse_args(argv)

    reps = args.reps if args.reps is not None else (3 if args.smoke else 5)
    horizon = 2.0 if args.smoke else 5.0
    doc = measure(reps=reps, seed=args.seed, horizon=horizon,
                  trace_out=args.trace_out)
    phase_doc = measure_phase_overhead(seed=args.seed)
    doc["phase_profiling"] = phase_doc

    print(f"null tracer : {doc['null_tracer']['mean_ms']:8.1f} ms/run")
    print(f"jsonl tracer: {doc['jsonl_tracer']['mean_ms']:8.1f} ms/run "
          f"({doc['trace_events']} events -> {doc['trace_path']})")
    print(f"overhead    : {doc['overhead_ratio']:.2f}x")
    print(f"phase off   : {phase_doc['off_median_ms']:8.1f} ms/run (median)")
    print(f"phase on    : {phase_doc['on_median_ms']:8.1f} ms/run (median)")
    print(f"telemetry   : {phase_doc['overhead_ratio']:.3f}x, median of "
          f"{phase_doc['pairs']} pairs (budget {PHASE_OVERHEAD_BUDGET:.2f}x)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check and phase_doc["overhead_ratio"] > PHASE_OVERHEAD_BUDGET:
        print(f"FAIL: telemetry overhead {phase_doc['overhead_ratio']:.3f}x "
              f"exceeds the {PHASE_OVERHEAD_BUDGET:.2f}x budget")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
