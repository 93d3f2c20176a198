"""Open-system traffic workloads: request-driven overload (ROADMAP).

The paper's Sec. 5 grid is *closed*: overload is scripted by inflating
PWCETs inside fixed windows (:mod:`repro.workload.scenarios`).  This
module adds the open-system counterpart — aperiodic request arrivals
drawn from seeded stochastic sources and served by level-C/D **server
tasks** — so overload emerges from traffic bursts, and dissipation time
and minimum s(t) become functions of *offered load* and *burst size*.

The vocabulary (all frozen, hashable, canonically serializable):

* **Arrival sources** expand deterministically into an arrival sequence
  (the seed lives in the spec, so the same spec always produces the
  byte-identical sequence — see :func:`arrivals_ndjson`):

  - :class:`PoissonSource` — homogeneous Poisson arrivals;
  - :class:`MMPPSource` — Markov-modulated Poisson process with a
    seeded cyclic modulating chain (the classic bursty-traffic model);
  - :class:`DiurnalCurveSource` — inhomogeneous Poisson arrivals under
    a raised-cosine day/night rate curve, via thinning;
  - :class:`TraceReplaySource` — replay of a recorded NDJSON arrival
    file, embedded by value.

* A :class:`ServerSpec` maps a flow onto aperiodic servers: periodic
  level-C (or background level-D) tasks with a per-period execution
  *budget*, polling (serve what has arrived by the release) or
  deferrable-style (serve what arrives up to one period ahead — an
  approximation documented on :class:`_ServerQueue`).

* A :class:`TrafficSpec` bundles ``(source, server)`` flows, builds the
  server :class:`~repro.model.task.Task` objects
  (:meth:`TrafficSpec.augment`), and wraps any
  :class:`~repro.model.behavior.ExecutionBehavior` so server jobs'
  execution times are the granted backlog
  (:meth:`TrafficSpec.build_behavior`).

Backend invariance: both kernel backends sample
``behavior.exec_time(task, job_index, release)`` exactly once per job
release, in the (gated, byte-identical) event order, so routing traffic
through the behaviour layer — rather than new event kinds — keeps the
reference and soa cores trace-equivalent by construction.  Per-server
grant state depends only on that server task's own release sequence
(each task's releases are processed in index order), never on
cross-task interleaving.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Annotated, Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.io import codec
from repro.io.canonical import canonical_json
from repro.model.behavior import ExecutionBehavior
from repro.model.task import CriticalityLevel, Task
from repro.model.taskset import TaskSet
from repro.util.validation import check_nonnegative, check_positive, store_floats

__all__ = [
    "TRAFFIC_BASE_ID",
    "Arrival",
    "PoissonSource",
    "MMPPSource",
    "DiurnalCurveSource",
    "TraceReplaySource",
    "Source",
    "ServerSpec",
    "TrafficFlow",
    "TrafficSpec",
    "TrafficBehavior",
    "arrivals_ndjson",
    "parse_arrivals_ndjson",
    "source_to_dict",
    "source_from_dict",
    "traffic_to_dict",
    "traffic_from_dict",
]

#: Task-id base for synthesized server tasks — above both the Sec. 5
#: generator's small ids and diffcheck's level-D background range
#: (10_000), so augmented task sets can never collide.
TRAFFIC_BASE_ID = 20_000


#: Supported per-arrival demand distributions.
_DEMANDS = ("exp", "fixed")


@dataclass(frozen=True)
class Arrival:
    """One request: arrival instant and CPU-seconds of demand."""

    time: float
    demand: float


def _check_demand_kind(demand: str) -> None:
    if demand not in _DEMANDS:
        raise ValueError(f"demand must be one of {_DEMANDS}, got {demand!r}")


#: Standard exponentials drawn per numpy call by :func:`_exponentials`.
_EXP_BLOCK = 1024

#: An expanded arrival sequence: arrival instants and their demands.
_Columns = Tuple[List[float], List[float]]


def _draw_demands(rng: np.random.Generator, kind: str, mean: float, n: int) -> List[float]:
    if kind == "fixed":
        return [mean] * n
    return rng.exponential(mean, n).tolist()


def _exponentials(rng: np.random.Generator) -> Iterator[float]:
    """*rng*'s standard exponential draws, in order, drawn in blocks.

    ``scale * rng.standard_exponential(n)`` equals ``n`` scalar
    ``rng.exponential(scale)`` calls bit for bit, so scaling these draws
    one by one reproduces the scalar stream.  A block draws ahead, so
    the stream must be the generator's only use.
    """
    while True:
        yield from rng.standard_exponential(_EXP_BLOCK).tolist()


def _poisson_times(
    draws: Iterator[float], rate: float, start: float, end: float
) -> List[float]:
    """Poisson arrival instants in ``[start, end)`` at constant *rate*.

    *draws* is an :func:`_exponentials` stream, consumed in order.
    Restarting the exponential clock at *start* is exact for piecewise-
    constant rates (memorylessness), which is what makes the per-segment
    MMPP expansion below a faithful MMPP sample.
    """
    out: List[float] = []
    if rate <= 0.0:
        return out
    scale = 1.0 / rate
    t = start + scale * next(draws)
    while t < end:
        out.append(t)
        t += scale * next(draws)
    return out


def _as_arrivals(columns: _Columns) -> Tuple[Arrival, ...]:
    return tuple(map(Arrival, *columns))


@dataclass(frozen=True)
class PoissonSource:
    """Homogeneous Poisson arrivals at ``rate`` requests/second.

    A memoryless open-system baseline: offered load is flat, so
    :meth:`last_burst_end` is 0 (dissipation keeps its scripted-scenario
    origin) and :meth:`burst_size` is 0.
    """

    rate: float
    mean_demand: float
    demand: str = "exp"
    seed: int = 0

    kind = "poisson"

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        check_positive("mean_demand", self.mean_demand)
        _check_demand_kind(self.demand)
        store_floats(self, "rate", "mean_demand")

    def expand(self, horizon: float) -> _Columns:
        """Arrival instants before *horizon* and their demands."""
        times = _poisson_times(
            _exponentials(np.random.default_rng([self.seed, 0])),
            self.rate, 0.0, horizon,
        )
        demands = _draw_demands(
            np.random.default_rng([self.seed, 1]),
            self.demand, self.mean_demand, len(times),
        )
        return times, demands

    def arrivals(self, horizon: float) -> Tuple[Arrival, ...]:
        return _as_arrivals(self.expand(horizon))

    def offered_load(self, horizon: float) -> float:
        """Mean demand rate in CPU-seconds per second."""
        return self.rate * self.mean_demand

    def burst_size(self) -> float:
        return 0.0

    def last_burst_end(self, horizon: float) -> float:
        return 0.0


@dataclass(frozen=True)
class MMPPSource:
    """Markov-modulated Poisson arrivals with a seeded cyclic chain.

    The modulating chain cycles through ``rates`` states (the two-state
    case is the classic interrupted/bursty Poisson process); state ``i``
    is held for an exponential dwell of mean ``dwells[i]`` seconds drawn
    from a chain stream *independent* of the arrival stream, so the
    burst schedule (:meth:`last_burst_end`) can be replayed without
    expanding arrivals.
    """

    rates: Tuple[float, ...]
    dwells: Tuple[float, ...]
    mean_demand: float
    demand: str = "exp"
    seed: int = 0
    start_state: int = 0

    kind = "mmpp"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "dwells", tuple(float(d) for d in self.dwells))
        if len(self.rates) < 2:
            raise ValueError("MMPPSource needs at least two modulating states")
        if len(self.rates) != len(self.dwells):
            raise ValueError(
                f"rates and dwells must pair up, got {len(self.rates)} rates "
                f"and {len(self.dwells)} dwells"
            )
        for i, r in enumerate(self.rates):
            check_nonnegative(f"rates[{i}]", r)
        for i, d in enumerate(self.dwells):
            check_positive(f"dwells[{i}]", d)
        check_positive("mean_demand", self.mean_demand)
        _check_demand_kind(self.demand)
        store_floats(self, "mean_demand")
        if not 0 <= self.start_state < len(self.rates):
            raise ValueError(
                f"start_state {self.start_state} outside range({len(self.rates)})"
            )

    def _segments(self, horizon: float) -> List[Tuple[float, float, float]]:
        """The chain's ``(start, end, rate)`` dwell segments up to *horizon*."""
        chain = np.random.default_rng([self.seed, 0])
        out: List[Tuple[float, float, float]] = []
        t, state = 0.0, self.start_state
        while t < horizon:
            dwell = float(chain.exponential(self.dwells[state]))
            out.append((t, min(t + dwell, horizon), self.rates[state]))
            t += dwell
            state = (state + 1) % len(self.rates)
        return out

    def expand(self, horizon: float) -> _Columns:
        """Arrival instants before *horizon* and their demands; the
        segments consume one timing stream in order."""
        timing = _exponentials(np.random.default_rng([self.seed, 1]))
        times: List[float] = []
        for start, end, rate in self._segments(horizon):
            times.extend(_poisson_times(timing, rate, start, end))
        demands = _draw_demands(
            np.random.default_rng([self.seed, 2]),
            self.demand, self.mean_demand, len(times),
        )
        return times, demands

    def arrivals(self, horizon: float) -> Tuple[Arrival, ...]:
        return _as_arrivals(self.expand(horizon))

    def offered_load(self, horizon: float) -> float:
        """Stationary mean demand rate (dwell-weighted) in CPU-s/s."""
        total_dwell = sum(self.dwells)
        mean_rate = sum(r * d for r, d in zip(self.rates, self.dwells)) / total_dwell
        return mean_rate * self.mean_demand

    def burst_size(self) -> float:
        """Expected *excess* demand of one burst dwell, in CPU-seconds.

        ``(peak rate - base rate) x mean peak dwell x mean demand`` —
        the demand a burst injects beyond the calm baseline, the
        x-axis of the min-s(t)-vs-burst-size figure.
        """
        peak = max(self.rates)
        base = min(self.rates)
        if peak <= base:
            return 0.0
        i = self.rates.index(peak)
        return (peak - base) * self.dwells[i] * self.mean_demand

    def last_burst_end(self, horizon: float) -> float:
        """End of the last peak-rate dwell that starts before *horizon*.

        Dissipation for bursty traffic is measured from here, the
        open-system analogue of a scenario's ``last_overload_end``.
        """
        peak = max(self.rates)
        if peak <= min(self.rates):
            return 0.0
        end_of_last = 0.0
        for start, end, rate in self._segments(horizon):
            if rate == peak and start < horizon:
                end_of_last = end
        return end_of_last


@dataclass(frozen=True)
class DiurnalCurveSource:
    """Inhomogeneous Poisson arrivals under a raised-cosine rate curve.

    ``lambda(t) = base + (peak - base)/2 * (1 - cos(2 pi (t+phase)/period))``
    — the smooth day/night load shape of a user-facing service.  Sampled
    by thinning a homogeneous ``peak``-rate process, which is exact and
    deterministic in the seed.
    """

    base_rate: float
    peak_rate: float
    period: float
    mean_demand: float
    demand: str = "exp"
    seed: int = 0
    phase: float = 0.0

    kind = "diurnal"

    def __post_init__(self) -> None:
        check_nonnegative("base_rate", self.base_rate)
        check_positive("peak_rate", self.peak_rate)
        if self.peak_rate < self.base_rate:
            raise ValueError(
                f"peak_rate {self.peak_rate} must be >= base_rate {self.base_rate}"
            )
        check_positive("period", self.period)
        check_positive("mean_demand", self.mean_demand)
        check_nonnegative("phase", self.phase)
        _check_demand_kind(self.demand)
        store_floats(self, "base_rate", "peak_rate", "period", "mean_demand", "phase")

    def rate_at(self, t: float) -> float:
        swing = (self.peak_rate - self.base_rate) / 2.0
        return self.base_rate + swing * (
            1.0 - math.cos(2.0 * math.pi * (t + self.phase) / self.period)
        )

    def expand(self, horizon: float) -> _Columns:
        """Arrival instants before *horizon* and their demands.  Thinning
        interleaves two distributions on one generator, so it draws one
        value at a time."""
        rng = np.random.default_rng([self.seed, 0])
        times: List[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / self.peak_rate))
            if t >= horizon:
                break
            if float(rng.random()) * self.peak_rate < self.rate_at(t):
                times.append(t)
        demands = _draw_demands(
            np.random.default_rng([self.seed, 1]),
            self.demand, self.mean_demand, len(times),
        )
        return times, demands

    def arrivals(self, horizon: float) -> Tuple[Arrival, ...]:
        return _as_arrivals(self.expand(horizon))

    def offered_load(self, horizon: float) -> float:
        return (self.base_rate + self.peak_rate) / 2.0 * self.mean_demand

    def burst_size(self) -> float:
        """Excess demand of one above-mean half-period, in CPU-seconds.

        ``integral of (lambda(t) - mean) over the high half`` evaluates
        to ``(peak - base) * period / (2 pi)`` for the raised cosine.
        """
        return (
            (self.peak_rate - self.base_rate)
            * self.period / (2.0 * math.pi)
            * self.mean_demand
        )

    def last_burst_end(self, horizon: float) -> float:
        """End of the last above-mean half-period starting before *horizon*.

        The curve sits above its mean exactly while the phase fraction
        lies in ``[1/4, 3/4)`` — closed-form, no sampling needed.
        """
        if self.peak_rate <= self.base_rate:
            return 0.0
        n = math.floor((horizon + self.phase) / self.period)
        while n >= -1:
            start = (n + 0.25) * self.period - self.phase
            end = (n + 0.75) * self.period - self.phase
            if start < horizon and end > 0.0:
                return min(end, horizon)
            n -= 1
        return 0.0


@dataclass(frozen=True)
class TraceReplaySource:
    """Replay a recorded arrival trace, embedded by value.

    ``ndjson`` is the text of an arrival NDJSON file (one
    ``{"demand": ..., "t": ...}`` object per line — the exact format
    :func:`arrivals_ndjson` writes), carried inline like
    :class:`~repro.runtime.spec.TaskSetSpec.inline` so the spec stays
    self-contained, picklable, and content-addressable.
    """

    ndjson: str

    kind = "replay"

    def __post_init__(self) -> None:
        self._parsed()  # validate eagerly: a bad trace fails at spec build

    @classmethod
    def from_file(cls, path: str) -> "TraceReplaySource":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(ndjson=fh.read())

    @classmethod
    def from_arrivals(cls, arrivals: Sequence[Arrival]) -> "TraceReplaySource":
        return cls(ndjson=_arrivals_to_ndjson(arrivals))

    def _parsed(self) -> Tuple[Arrival, ...]:
        return parse_arrivals_ndjson(self.ndjson)

    def arrivals(self, horizon: float) -> Tuple[Arrival, ...]:
        return tuple(a for a in self._parsed() if a.time < horizon)

    def expand(self, horizon: float) -> _Columns:
        """Arrival instants before *horizon* and their demands."""
        arrivals = self.arrivals(horizon)
        return [a.time for a in arrivals], [a.demand for a in arrivals]

    def offered_load(self, horizon: float) -> float:
        if horizon <= 0:
            return 0.0
        return sum(a.demand for a in self.arrivals(horizon)) / horizon

    def burst_size(self) -> float:
        return 0.0

    def last_burst_end(self, horizon: float) -> float:
        """The last recorded arrival instant (a replay *is* its burst)."""
        arrivals = self.arrivals(horizon)
        return arrivals[-1].time if arrivals else 0.0


_SOURCE_TYPES = (PoissonSource, MMPPSource, DiurnalCurveSource, TraceReplaySource)

#: An arrival source; documents tell the members apart by their ``kind``.
Source = Annotated[Union[_SOURCE_TYPES], "traffic source"]


def source_to_dict(source: Source) -> Dict[str, Any]:
    """A source as a JSON-ready dict with a ``kind`` discriminator."""
    return codec.encode(source, Source)


def source_from_dict(doc: Dict[str, Any]) -> Source:
    """Exact inverse of :func:`source_to_dict`."""
    return codec.decode(Source, doc)


# ----------------------------------------------------------------------
# Arrival NDJSON (the determinism currency: same spec -> same bytes)
# ----------------------------------------------------------------------
def _arrivals_to_ndjson(arrivals: Sequence[Arrival]) -> str:
    lines = [
        canonical_json({"demand": a.demand, "t": a.time})
        for a in arrivals
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def arrivals_ndjson(source: Any, horizon: float) -> str:
    """Expand *source* to *horizon* and serialize canonically.

    Same source spec, same horizon => byte-identical text; this is the
    form the determinism tests pin and :class:`TraceReplaySource`
    replays.
    """
    return _arrivals_to_ndjson(source.arrivals(horizon))


def parse_arrivals_ndjson(text: str) -> Tuple[Arrival, ...]:
    """Parse an arrival NDJSON document (sorted by time, validated)."""
    out: List[Arrival] = []
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            t = float(doc["t"])
            demand = float(doc["demand"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"arrival NDJSON line {i + 1} is invalid: {line!r}") from exc
        if t < 0.0 or demand < 0.0:
            raise ValueError(
                f"arrival NDJSON line {i + 1}: t and demand must be >= 0, "
                f"got t={t}, demand={demand}"
            )
        out.append(Arrival(t, demand))
    out.sort(key=lambda a: a.time)
    return tuple(out)


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServerSpec:
    """How one flow's requests are served: aperiodic server tasks.

    ``count`` identical servers share the flow round-robin (arrival
    ``i`` is queued at server ``i mod count``); each is a periodic task
    of period ``period`` whose per-job execution time is the backlog it
    grants, capped at ``budget`` CPU-seconds per period.

    * ``level="C"`` servers are global GEL-v tasks with a G-FL priority
      point and a response-time tolerance, so traffic overload drives
      the recovery monitors exactly like scripted overload does.
    * ``level="D"`` servers are best-effort background traffic.
    * ``policy="polling"`` grants work that arrived by the release;
      ``policy="deferrable"`` also admits arrivals up to one period
      past the release (a deferrable-server approximation — execution
      times are sampled once at release, so mid-job admission is
      modelled as lookahead).
    """

    period: float = 0.025
    budget: float = 0.005
    level: str = "C"
    policy: str = "polling"
    count: int = 1
    #: Response-time tolerance for level-C servers (default: one period).
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive("period", self.period)
        check_positive("budget", self.budget)
        if self.budget > self.period:
            raise ValueError(
                f"server budget {self.budget} exceeds its period {self.period}"
            )
        if self.level not in ("C", "D"):
            raise ValueError(f"server level must be 'C' or 'D', got {self.level!r}")
        if self.policy not in ("polling", "deferrable"):
            raise ValueError(
                f"server policy must be 'polling' or 'deferrable', got {self.policy!r}"
            )
        if self.count < 1:
            raise ValueError(f"server count must be >= 1, got {self.count}")
        if self.tolerance is not None:
            check_nonnegative("tolerance", self.tolerance)
        store_floats(self, "period", "budget", "tolerance")

    @property
    def utilization(self) -> float:
        """Guaranteed service rate of the server bank, CPU-s/s."""
        return self.count * self.budget / self.period


@dataclass(frozen=True)
class TrafficFlow:
    """One arrival source mapped onto one server bank."""

    source: Source
    server: ServerSpec = field(default_factory=ServerSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.source, _SOURCE_TYPES):
            raise TypeError(f"unknown traffic source type {type(self.source).__name__}")


@dataclass(frozen=True)
class TrafficSpec:
    """The open-system workload of a run: a tuple of traffic flows.

    Attached to :class:`~repro.runtime.spec.RunSpec` (serialized into
    canonical JSON *only when present*, so pre-traffic cache keys stay
    byte-identical) and expanded per run into server tasks
    (:meth:`augment`) plus a behaviour wrapper (:meth:`build_behavior`).
    """

    flows: Tuple[TrafficFlow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", tuple(self.flows))
        if not self.flows:
            raise ValueError("TrafficSpec needs at least one flow")

    # -- task-set expansion -------------------------------------------
    def server_tasks(self, m: int) -> List[Task]:
        """The server tasks, ids assigned from :data:`TRAFFIC_BASE_ID`.

        Enumeration order (flow-major, then server index) is the
        contract shared with :meth:`build_behavior`'s id assignment.
        """
        from repro.core.gel import gfl_relative_pp

        out: List[Task] = []
        tid = TRAFFIC_BASE_ID
        for fi, flow in enumerate(self.flows):
            srv = flow.server
            for k in range(srv.count):
                name = f"srv{fi}.{k}"
                if srv.level == "C":
                    out.append(Task(
                        task_id=tid,
                        level=CriticalityLevel.C,
                        period=srv.period,
                        pwcets={CriticalityLevel.C: srv.budget},
                        relative_pp=gfl_relative_pp(srv.period, srv.budget, m),
                        tolerance=(
                            srv.tolerance if srv.tolerance is not None else srv.period
                        ),
                        name=name,
                    ))
                else:
                    out.append(Task(
                        task_id=tid,
                        level=CriticalityLevel.D,
                        period=srv.period,
                        pwcets={CriticalityLevel.D: srv.budget},
                        name=name,
                    ))
                tid += 1
        return out

    def augment(self, ts: TaskSet) -> TaskSet:
        """*ts* plus this spec's server tasks (ids never collide)."""
        return TaskSet(list(ts) + self.server_tasks(ts.m), m=ts.m)

    def build_behavior(
        self, inner: ExecutionBehavior, horizon: float
    ) -> "TrafficBehavior":
        """Wrap *inner* so server jobs execute their granted backlog."""
        queues: Dict[int, _ServerQueue] = {}
        tid = TRAFFIC_BASE_ID
        for flow in self.flows:
            times, demands = flow.source.expand(horizon)
            srv = flow.server
            for k in range(srv.count):
                queues[tid] = _ServerQueue(
                    times[k::srv.count], demands[k::srv.count], srv
                )
                tid += 1
        return TrafficBehavior(inner, queues)

    # -- analysis axes -------------------------------------------------
    def offered_load(self, horizon: float) -> float:
        """Total mean demand rate across flows, CPU-seconds/second."""
        return sum(f.source.offered_load(horizon) for f in self.flows)

    def burst_size(self) -> float:
        """Largest per-flow burst excess (CPU-seconds); 0 if none bursts."""
        return max(f.source.burst_size() for f in self.flows)

    def last_burst_end(self, horizon: float) -> float:
        """Dissipation origin contributed by traffic (0 if calm)."""
        return max(f.source.last_burst_end(horizon) for f in self.flows)

    def service_utilization(self) -> float:
        """Total guaranteed service rate of every server bank."""
        return sum(f.server.utilization for f in self.flows)

    # -- serialization -------------------------------------------------
    def canonical_json(self) -> str:
        """Canonical JSON text (sorted keys, fixed separators)."""
        return canonical_json(traffic_to_dict(self))


def traffic_to_dict(spec: TrafficSpec) -> Dict[str, Any]:
    """*spec* as the JSON-ready dict embedded in canonical RunSpec JSON."""
    return codec.encode(spec)


def traffic_from_dict(doc: Dict[str, Any]) -> TrafficSpec:
    """Exact inverse of :func:`traffic_to_dict`."""
    return codec.decode(TrafficSpec, doc)


# ----------------------------------------------------------------------
# Behaviour wrapper
# ----------------------------------------------------------------------
class _ServerQueue:
    """Grant state of one server task over its private arrival slice.

    ``grant(job_index, release)`` is memoized per job index and the
    ``served`` cursor advances only on first evaluation, so the grant
    sequence is a pure function of the task's own (index, release)
    sequence — which both kernel backends produce identically.
    """

    __slots__ = ("_times", "_prefix", "_budget", "_lookahead", "served", "_memo")

    def __init__(
        self, times: List[float], demands: Sequence[float], server: ServerSpec
    ) -> None:
        self._times = times
        # A running total from 0.0: sequential adds, never pairwise sums.
        self._prefix = list(accumulate(demands, initial=0.0))[1:]
        self._budget = server.budget
        self._lookahead = server.period if server.policy == "deferrable" else 0.0
        self.served = 0.0
        self._memo: Dict[int, float] = {}

    def grant(self, job_index: int, release: float) -> float:
        cached = self._memo.get(job_index)
        if cached is not None:
            return cached
        i = bisect_right(self._times, release + self._lookahead)
        eligible = self._prefix[i - 1] if i else 0.0
        # The backlog, clamped to [0, budget].
        g = eligible - self.served
        if not g > 0.0:
            g = 0.0
        if self._budget < g:
            g = self._budget
        self.served += g
        self._memo[job_index] = g
        return g


class TrafficBehavior:
    """Route server-task releases to their queues; delegate the rest.

    Stateful (per-run): build a fresh instance per simulation via
    :meth:`TrafficSpec.build_behavior` — never share one across runs.
    """

    def __init__(
        self, inner: ExecutionBehavior, queues: Dict[int, _ServerQueue]
    ) -> None:
        self._inner = inner
        self._queues = queues

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        queue = self._queues.get(task.task_id)
        if queue is None:
            return self._inner.exec_time(task, job_index, release)
        return queue.grant(job_index, release)

    def sojourn_samples(self, trace: Any) -> Tuple[List[float], int]:
        """Per-request sojourn times reconstructed from the run's trace.

        A request is *served* at the completion of the first server job
        whose cumulative grant covers the request's cumulative demand
        (requests drain FIFO within a server — grants are backlog in
        arrival order).  Returns ``(samples, requests)``: one sojourn
        sample (``completion - arrival``) per fully served request whose
        serving job completed, plus the total arrival count; the
        difference is censored (never fully granted, or the serving job
        was still running at the horizon).

        Deterministic: grants come from the run's own memoized grant
        sequence and completions from the (backend-invariant) trace, so
        the same spec always yields the same samples.
        """
        # One pass over the trace's rows buckets the server jobs'
        # (index, completion) pairs by task; no record is built.
        jobs: Dict[int, List[Tuple[int, Optional[float]]]] = {
            tid: [] for tid in self._queues
        }
        for row in trace.job_values():
            bucket = jobs.get(row[0])
            if bucket is not None:
                bucket.append((row[2], row[5]))
        samples: List[float] = []
        requests = 0
        for tid in sorted(self._queues):
            queue = self._queues[tid]
            times, prefix = queue._times, queue._prefix
            requests += len(times)
            if not times:
                continue
            granted = 0.0
            i = 0  # first request not yet fully granted
            # Job-index order (a zero-demand job can be recorded early).
            for index, completion in sorted(jobs[tid], key=itemgetter(0)):
                g = queue._memo.get(index)
                if g is None:
                    continue  # released past the horizon; never sampled
                granted += g
                while i < len(times):
                    need = prefix[i]
                    if granted + 1e-9 * max(1.0, need) < need:
                        break
                    if completion is not None:
                        # Clamped: deferrable lookahead can admit an
                        # arrival into a job that completes before the
                        # arrival instant (documented approximation).
                        samples.append(max(0.0, completion - times[i]))
                    i += 1
        return samples, requests
