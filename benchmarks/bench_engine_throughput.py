"""Simulator micro-benchmarks: task-set generation and analysis cost.

Not a paper figure — these track the substrate's own performance.
Kernel event throughput is gated by ``bench_kernel_throughput.py``.
"""

from __future__ import annotations


from repro.analysis.bounds import gel_response_bounds
from repro.workload.generator import generate_taskset


def bench_taskset_generation(benchmark):
    """Sec. 5 generator cost (includes the tolerance analysis)."""
    seeds = iter(range(10_000))
    ts = benchmark(lambda: generate_taskset(next(seeds)))
    assert len(ts) > 10


def bench_response_bounds(benchmark, tasksets):
    """The GEL bound computation on a paper-scale task set."""
    ts = tasksets[0]
    res = benchmark(lambda: gel_response_bounds(ts))
    assert res.is_finite
