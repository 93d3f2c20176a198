"""Property tests: block-drawn traffic expansion is the scalar expansion.

Poisson and MMPP sources draw their exponential inter-arrival gaps in
blocks and hand server queues columns of times and demands instead of
:class:`~repro.workload.traffic.Arrival` objects.  The scalar bodies
they replaced are kept below, verbatim in their arithmetic: one
``rng.exponential`` call per gap, a running total per server queue.
Hypothesis draws sources, server banks and horizons and checks that

* ``arrivals()`` returns bit-identical instants and demands, and
* every server job is granted the bit-identical execution time.
"""

import math
from bisect import bisect_right
from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.traffic import (
    Arrival,
    MMPPSource,
    PoissonSource,
    ServerSpec,
    TrafficFlow,
    TrafficSpec,
)


# ----------------------------------------------------------------------
# The scalar bodies
# ----------------------------------------------------------------------
def scalar_poisson_times(rng, rate, start, end):
    out = []
    if rate <= 0.0:
        return out
    t = start + float(rng.exponential(1.0 / rate))
    while t < end:
        out.append(t)
        t += float(rng.exponential(1.0 / rate))
    return out


def scalar_demands(rng, kind, mean, n):
    if kind == "fixed":
        return [mean] * n
    return [float(x) for x in rng.exponential(mean, n)]


def scalar_arrivals(source, horizon):
    if isinstance(source, PoissonSource):
        times = scalar_poisson_times(
            np.random.default_rng([source.seed, 0]), source.rate, 0.0, horizon
        )
        demand_rng = np.random.default_rng([source.seed, 1])
    else:
        timing = np.random.default_rng([source.seed, 1])
        times = []
        for start, end, rate in source._segments(horizon):
            times.extend(scalar_poisson_times(timing, rate, start, end))
        demand_rng = np.random.default_rng([source.seed, 2])
    demands = scalar_demands(demand_rng, source.demand, source.mean_demand, len(times))
    return tuple(Arrival(t, d) for t, d in zip(times, demands))


class ScalarServerQueue:
    def __init__(self, arrivals, server):
        self._times = [a.time for a in arrivals]
        self._prefix: List[float] = []
        total = 0.0
        for a in arrivals:
            total += a.demand
            self._prefix.append(total)
        self._budget = server.budget
        self._lookahead = server.period if server.policy == "deferrable" else 0.0
        self.served = 0.0
        self._memo: Dict[int, float] = {}

    def grant(self, job_index, release):
        cached = self._memo.get(job_index)
        if cached is not None:
            return cached
        i = bisect_right(self._times, release + self._lookahead)
        eligible = self._prefix[i - 1] if i else 0.0
        g = eligible - self.served
        if not g > 0.0:
            g = 0.0
        if self._budget < g:
            g = self._budget
        self.served += g
        self._memo[job_index] = g
        return g


def bits(values):
    return [float(v).hex() for v in values]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
seeds = st.integers(min_value=0, max_value=2**31 - 1)
demand_mean = st.floats(min_value=1e-4, max_value=0.05)
demand_kind = st.sampled_from(["exp", "fixed"])
horizons = st.floats(min_value=0.05, max_value=12.0)


@st.composite
def poisson_sources(draw):
    return PoissonSource(
        rate=draw(st.floats(min_value=0.1, max_value=600.0)),
        mean_demand=draw(demand_mean), demand=draw(demand_kind), seed=draw(seeds),
    )


@st.composite
def mmpp_sources(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    rates = tuple(
        draw(st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=600.0)))
        for _ in range(n)
    )
    dwells = tuple(draw(st.floats(min_value=0.005, max_value=3.0)) for _ in range(n))
    return MMPPSource(
        rates=rates, dwells=dwells, mean_demand=draw(demand_mean),
        demand=draw(demand_kind), seed=draw(seeds),
        start_state=draw(st.integers(min_value=0, max_value=n - 1)),
    )


sources = st.one_of(poisson_sources(), mmpp_sources())


@st.composite
def servers(draw):
    period = draw(st.floats(min_value=0.005, max_value=0.2))
    return ServerSpec(
        period=period,
        budget=period * draw(st.floats(min_value=0.05, max_value=1.0)),
        policy=draw(st.sampled_from(["polling", "deferrable"])),
        count=draw(st.integers(min_value=1, max_value=3)),
    )


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(sources, horizons)
@settings(max_examples=80, deadline=None)
def test_arrivals_match_the_scalar_expansion(source, horizon):
    got = source.arrivals(horizon)
    want = scalar_arrivals(source, horizon)
    assert bits(a.time for a in got) == bits(a.time for a in want)
    assert bits(a.demand for a in got) == bits(a.demand for a in want)


@given(st.lists(st.tuples(sources, servers()), min_size=1, max_size=2), horizons)
@settings(max_examples=60, deadline=None)
def test_grants_match_the_scalar_queues(flows, horizon):
    spec = TrafficSpec(flows=tuple(TrafficFlow(src, srv) for src, srv in flows))
    behavior = spec.build_behavior(None, horizon)
    tasks = iter(spec.server_tasks(m=2))
    for source, server in flows:
        arrivals = scalar_arrivals(source, horizon)
        for k in range(server.count):
            task = next(tasks)
            scalar = ScalarServerQueue(arrivals[k::server.count], server)
            jobs = math.ceil(horizon / server.period) + 1
            got = [behavior.exec_time(task, j, j * server.period) for j in range(jobs)]
            want = [scalar.grant(j, j * server.period) for j in range(jobs)]
            assert bits(got) == bits(want)
