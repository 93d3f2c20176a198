"""Experiment metrics: dissipation time and friends.

The paper's headline metric (Figs. 6-7) is **dissipation time**: "the
amount of time from when the last overload stopped until the
virtual-time clock was returned to normal".  We read it off the
monitor's recovery episodes: the clock is "returned to normal" when the
final recovery episode closes (the monitor issues ``change_speed(1)`` and
leaves recovery mode at the detected idle normal instant).

Fig. 8's metric is the **minimum virtual-time speed** chosen during the
run (interesting for ADAPTIVE, constant-by-construction for SIMPLE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.monitor import Monitor
from repro.io.codec import document
from repro.model.task import CriticalityLevel
from repro.sim.trace import Trace

__all__ = ["RunResult", "SojournStats", "dissipation_time"]


def dissipation_time(monitor: Monitor, last_overload_end: float, sim_end: float) -> tuple[float, bool]:
    """Compute (dissipation, truncated) from the monitor's episodes.

    * No recovery episode ever ran, or the final one closed before the
      overload ended: dissipation 0 (the clock was already normal when
      the overload stopped).
    * Final episode closed at ``t >= last_overload_end``: dissipation is
      ``t - last_overload_end``.
    * Final episode still open at the simulation horizon: the run was
      truncated; report the horizon-relative lower bound and flag it.
    """
    if not monitor.episodes:
        return 0.0, False
    last = monitor.episodes[-1]
    if last.end is None:
        return max(0.0, sim_end - last_overload_end), True
    return max(0.0, last.end - last_overload_end), False


@dataclass(frozen=True)
class SojournStats:
    """Per-request queueing delay of a traffic run (open-system runs only).

    The *sojourn time* of a request is the span from its arrival to the
    completion of the server job whose grant finally covered its demand
    — the queueing-theory response time of the open system, and the
    user-visible latency the offered-load/burst-size figures trade
    against dissipation.  Requests whose serving job never completed by
    the horizon (or whose demand was never fully granted) are censored:
    they count in ``requests`` but contribute no sample.

    Percentiles use the nearest-rank method on the served samples
    (deterministic, no interpolation), so the stats are byte-stable
    across backends and platforms.
    """

    #: Requests that arrived within the horizon (across all flows).
    requests: int
    #: Requests fully served by a completed server job.
    served: int
    #: Mean sojourn time over served requests (seconds).
    mean_s: float
    #: Median (nearest-rank) sojourn time.
    p50_s: float
    #: 95th-percentile (nearest-rank) sojourn time.
    p95_s: float
    #: Largest observed sojourn time.
    max_s: float

    @classmethod
    def from_samples(cls, samples: Sequence[float], requests: int) -> "SojournStats":
        served = len(samples)
        if served == 0:
            return cls(requests=requests, served=0,
                       mean_s=0.0, p50_s=0.0, p95_s=0.0, max_s=0.0)
        s = sorted(samples)

        def rank(q: float) -> float:
            return s[min(served - 1, max(0, math.ceil(q * served) - 1))]

        return cls(
            requests=requests,
            served=served,
            mean_s=sum(s) / served,
            p50_s=rank(0.5),
            p95_s=rank(0.95),
            max_s=s[-1],
        )

    def row(self) -> str:
        """One formatted table row (used by ``repro-mc2 traffic``)."""
        return (
            f"requests={self.requests:6d}  served={self.served:6d}  "
            f"sojourn mean={self.mean_s * 1e3:8.2f} ms  "
            f"p50={self.p50_s * 1e3:8.2f} ms  "
            f"p95={self.p95_s * 1e3:8.2f} ms  "
            f"max={self.max_s * 1e3:8.2f} ms"
        )


@document(omit_default=("sojourn",))
@dataclass(frozen=True)
class RunResult:
    """Everything one overload-recovery run produces."""

    #: Scenario name (SHORT/LONG/DOUBLE/...).
    scenario: str
    #: Monitor label, e.g. "SIMPLE(s=0.6)".
    monitor: str
    #: Dissipation time (seconds).
    dissipation: float
    #: Whether the run hit the horizon before recovery completed.
    truncated: bool
    #: Minimum virtual-clock speed requested during the run (Fig. 8).
    min_speed: float
    #: Number of response-time-tolerance misses observed.
    miss_count: int
    #: Number of recovery episodes.
    episodes: int
    #: Largest completed level-C response time.
    max_response_c: float
    #: Simulation time at which the run stopped.
    sim_end: float
    #: Simulator events processed (throughput diagnostics).
    events: int
    #: Per-request queueing metrics (open-system traffic runs only;
    #: ``None`` for scripted-overload runs, and omitted from canonical
    #: result JSON when ``None`` so pre-traffic artifacts keep their
    #: bytes).
    sojourn: Optional[SojournStats] = None

    def row(self) -> str:
        """One formatted table row (used by the figure printers)."""
        trunc = " (truncated)" if self.truncated else ""
        return (
            f"{self.scenario:<8} {self.monitor:<18} "
            f"dissipation={self.dissipation * 1e3:9.1f} ms{trunc}  "
            f"min_s={self.min_speed:5.3f}  misses={self.miss_count:5d}  "
            f"max_R_C={self.max_response_c * 1e3:8.2f} ms"
        )


def summarize_trace(trace: Trace) -> dict:
    """Compact level-C response-time statistics from a trace."""
    rs: List[float] = trace.response_times(CriticalityLevel.C)
    if not rs:
        return {"jobs": 0, "max": 0.0, "mean": 0.0}
    return {
        "jobs": len(rs),
        "max": max(rs),
        "mean": sum(rs) / len(rs),
    }
