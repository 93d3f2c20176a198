"""Kernel throughput: the soa backend against the reference kernel.

The struct-of-arrays core (``KernelConfig(backend="soa")``) replaces
per-job/event/processor objects with flat parallel arrays and a fused
event loop; its gate is **>= 2x** the reference backend's events/sec on
the 8-CPU cells.

Both backends' trace fingerprints are checked for equality per cell, so
a fast-but-wrong kernel cannot "win".  Each repetition is a pair: one
reference run and one soa run back to back, the order alternating from
pair to pair.  A cell's speedup is the median of the per-pair
reference/soa time ratios, so a load spike inside one pair moves one
ratio and not the gate, and slow drift in machine load cancels within
each pair instead of biasing whichever backend ran last.

Standalone (CI runs this; artifacts are uploaded)::

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py \
        --smoke --out kernel-throughput.json \
        --check benchmarks/baseline_kernel_throughput.json

``--check`` compares the measured soa *speedup ratios* (machine-independent,
unlike raw events/sec) against a recorded baseline and fails if any cell
regressed by more than 30 %; it also enforces the absolute soa gate.

Also collectable as a pytest benchmark::

    pytest benchmarks/bench_kernel_throughput.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from typing import Any, Dict, List, Tuple

from repro.core.monitor import NullMonitor
from repro.model.behavior import ConstantBehavior
from repro.model.task import CriticalityLevel
from repro.sim.backend import create_kernel
from repro.sim.diffcheck import fingerprint
from repro.sim.kernel import KernelConfig
from repro.workload.generator import GeneratorParams, generate_taskset
from repro.workload.traffic import (
    MMPPSource,
    PoissonSource,
    ServerSpec,
    TrafficFlow,
    TrafficSpec,
)

#: Allowed drop in a cell's speedup ratio before --check fails.
CHECK_TOLERANCE = 0.30

#: Required soa-vs-reference throughput ratio on the 8-CPU cells.
SOA_GATE = 2.0

#: (name, m, util_range, traffic) — both 8-CPU cells land >= 64 level-C
#: tasks (light per-task utilizations pack many tasks into the fixed
#: 65 % level-C share).  "aperiodic-4cpu" layers open-system traffic (Poisson + MMPP
#: flows through polling/deferrable server banks) on top of the
#: periodic workload — short server periods make it release-heavy, the
#: regime where grant lookups ride the hot path.  It must not be the
#: last cell: the pytest wrapper pins the final cell to "large-8cpu".
CELLS: Tuple[Tuple[str, int, Tuple[float, float], bool], ...] = (
    ("small-2cpu", 2, (0.1, 0.4), False),
    ("medium-8cpu", 8, (0.04, 0.1), False),
    ("aperiodic-4cpu", 4, (0.1, 0.4), True),
    ("large-8cpu", 8, (0.01, 0.03), False),
)


def _aperiodic_traffic(m: int) -> TrafficSpec:
    """A heavy aperiodic plane: saturating Poisson + bursty MMPP flows."""
    return TrafficSpec(flows=(
        TrafficFlow(
            PoissonSource(rate=150.0 * m, mean_demand=0.002, seed=5),
            ServerSpec(period=0.02, budget=0.004, count=2 * m),
        ),
        TrafficFlow(
            MMPPSource(rates=(20.0 * m, 400.0 * m), dwells=(0.4, 0.1),
                       mean_demand=0.002, seed=7),
            ServerSpec(period=0.025, budget=0.005, level="D",
                       policy="deferrable", count=m),
        ),
    ))

#: The timed kernel backends; "reference" is the pivot of the speedup.
BACKENDS: Tuple[str, ...] = ("reference", "soa")


def _run_once(ts, backend: str, horizon: float, traffic: TrafficSpec = None):
    # TrafficBehavior carries per-run grant state: build it fresh per
    # run (sharing one across repetitions would corrupt the grants).
    behavior = ConstantBehavior()
    if traffic is not None:
        behavior = traffic.build_behavior(behavior, horizon)
    kernel = create_kernel(
        ts,
        behavior=behavior,
        config=KernelConfig(backend=backend),
    )
    monitor = NullMonitor(kernel)
    kernel.attach_monitor(monitor)
    t0 = time.perf_counter_ns()
    trace = kernel.run(horizon)
    elapsed_ns = time.perf_counter_ns() - t0
    return elapsed_ns, kernel, trace, monitor


def _measure_cell(
    name: str,
    m: int,
    util_range: Tuple[float, float],
    seed: int,
    horizon: float,
    reps: int,
    traffic: bool = False,
) -> Dict[str, Any]:
    ts = generate_taskset(seed, GeneratorParams(m=m, util_range=util_range))
    tspec = _aperiodic_traffic(m) if traffic else None
    if tspec is not None:
        ts = tspec.augment(ts)
    n_level_c = sum(1 for t in ts if t.level is CriticalityLevel.C)

    prints: Dict[str, Any] = {}
    elapsed: Dict[str, List[int]] = {backend: [] for backend in BACKENDS}
    events: Dict[str, int] = {}
    for backend in BACKENDS:  # warm-up
        _run_once(ts, backend, min(horizon, 0.25), tspec)
    for rep in range(reps):  # one pair per rep, alternating which runs first
        for backend in BACKENDS if rep % 2 == 0 else BACKENDS[::-1]:
            elapsed_ns, kernel, trace, monitor = _run_once(ts, backend, horizon, tspec)
            elapsed[backend].append(elapsed_ns)
            events[backend] = kernel.events_processed
            prints[backend] = fingerprint(trace, kernel, monitor)
    median_ns = {backend: statistics.median(ns) for backend, ns in elapsed.items()}
    rates = {backend: events[backend] / (median_ns[backend] / 1e9) for backend in BACKENDS}
    # Equal fingerprints imply equal event counts, so each pair's time
    # ratio is its throughput ratio.
    speedup = statistics.median(
        ref / soa for ref, soa in zip(elapsed["reference"], elapsed["soa"])
    )

    # A fast backend that computes a different schedule is a bug, not a
    # win — this pins both to one behaviour.
    assert prints["reference"] == prints["soa"], (
        f"cell {name}: soa diverged from reference"
    )

    return {
        "cell": name,
        "m": m,
        "util_range": list(util_range),
        "level_c_tasks": n_level_c,
        "tasks": len(ts),
        "horizon": horizon,
        "events": events["reference"],
        "reference_events_per_sec": rates["reference"],
        "soa_events_per_sec": rates["soa"],
        "soa_speedup": speedup,
    }


def measure(
    seed: int = 2015, horizon: float = 10.0, reps: int = 3
) -> Dict[str, Any]:
    """Time both backends over every cell; return the comparison doc."""
    return {
        "format": "repro-kernel-throughput",
        "version": 2,
        "seed": seed,
        "horizon": horizon,
        "reps": reps,
        "cells": [
            _measure_cell(name, m, util, seed, horizon, reps, traffic)
            for name, m, util, traffic in CELLS
        ],
    }


def check_against(doc: Dict[str, Any], baseline: Dict[str, Any]) -> list:
    """Regressions vs. a recorded baseline (empty = pass).

    Ratios of two runs on the same machine cancel the machine's absolute
    speed, so a recorded baseline stays meaningful across CI runners; the
    30 % tolerance absorbs scheduling noise.  Checked: the soa-vs-reference
    speedup per cell against its recorded figure, plus the absolute
    >= 2x gate on the 8-CPU cells.
    """
    recorded = {c["cell"]: c for c in baseline["cells"]}
    problems = []
    for cell in doc["cells"]:
        want = recorded.get(cell["cell"])
        if want is not None:
            want_soa = want.get("soa_speedup")
            if want_soa is not None:
                floor = want_soa * (1.0 - CHECK_TOLERANCE)
                if cell["soa_speedup"] < floor:
                    problems.append(
                        f"{cell['cell']}: soa speedup {cell['soa_speedup']:.2f}x "
                        f"fell below {floor:.2f}x (recorded {want_soa:.2f}x - "
                        f"{CHECK_TOLERANCE:.0%})"
                    )
        if cell["m"] >= 8 and cell["soa_speedup"] < SOA_GATE:
            problems.append(
                f"{cell['cell']}: soa backend at {cell['soa_speedup']:.2f}x "
                f"reference, below the {SOA_GATE:.1f}x gate"
            )
    return problems


def _print_cells(doc: Dict[str, Any]) -> None:
    for cell in doc["cells"]:
        print(
            f"{cell['cell']:>12}: "
            f"{cell['reference_events_per_sec']:>11,.0f} ev/s reference, "
            f"{cell['soa_events_per_sec']:>11,.0f} ev/s soa "
            f"({cell['soa_speedup']:.2f}x) "
            f"[{cell['level_c_tasks']} level-C tasks, {cell['events']} events]"
        )


def bench_kernel_throughput(benchmark):
    """pytest-benchmark wrapper around one measured comparison."""
    doc = benchmark.pedantic(
        lambda: measure(horizon=3.0, reps=2), rounds=1, iterations=1
    )
    print()
    _print_cells(doc)
    for cell in doc["cells"]:
        benchmark.extra_info[cell["cell"] + "_soa_speedup"] = round(
            cell["soa_speedup"], 2
        )
    large = doc["cells"][-1]
    assert large["level_c_tasks"] >= 64
    # The strict SOA_GATE is enforced by --check over the full-horizon
    # measurement; the short smoke run here gets the usual noise margin.
    for cell in doc["cells"]:
        if cell["m"] >= 8:
            floor = SOA_GATE * (1.0 - CHECK_TOLERANCE)
            assert cell["soa_speedup"] >= floor, (
                f"{cell['cell']}: soa backend at {cell['soa_speedup']:.2f}x, "
                f"below the smoke floor {floor:.2f}x ({SOA_GATE:.1f}x gate - "
                f"{CHECK_TOLERANCE:.0%})"
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="fast CI mode: shorter horizon, fewer repetitions")
    ap.add_argument("--reps", type=int, default=None,
                    help="timed reference/soa pairs per cell (default 3; smoke 5)")
    ap.add_argument("--seed", type=int, default=2015)
    ap.add_argument("--out", metavar="FILE",
                    help="write the comparison as JSON to FILE")
    ap.add_argument("--check", metavar="BASELINE",
                    help="fail if any cell's soa speedup regressed >30%% vs "
                         "BASELINE, or the soa 8-CPU gate is missed")
    args = ap.parse_args(argv)

    # Smoke runs are short, so they time more pairs: the median of five
    # per-pair ratios keeps one slow pair from failing the gate.
    reps = args.reps if args.reps is not None else (5 if args.smoke else 3)
    horizon = 3.0 if args.smoke else 10.0
    doc = measure(seed=args.seed, horizon=horizon, reps=reps)

    _print_cells(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        problems = check_against(doc, baseline)
        for p in problems:
            print(f"REGRESSION: {p}")
        if problems:
            return 1
        print(f"soa speedups within {CHECK_TOLERANCE:.0%} of {args.check}; "
              f"soa gate ({SOA_GATE:.1f}x on 8-CPU cells) held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
