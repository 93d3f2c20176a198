"""Execution behaviours: how long each job *actually* runs.

Under the SVO model the per-job execution time :math:`e_{i,k}` is not
bounded by any PWCET — that is precisely how the paper models overload.
The experiments in Sec. 5 drive every job's execution time from a simple
time-windowed rule:

    "All jobs at levels A, B, and C execute for their level-B PWCETs for
    500 ms, and then execute for their level-C PWCETs afterward." (SHORT)

An :class:`ExecutionBehavior` maps ``(task, job_index, release_time)`` to
an execution time, which the simulator samples at release.  Provided
implementations:

* :class:`ConstantBehavior` — every job runs for a fixed analysis-level
  PWCET (level C by default): the overload-free baseline of Fig. 2(a).
* :class:`WindowedOverloadBehavior` — level-B (or any chosen level) PWCETs
  inside configured overload windows, level-C PWCETs outside: implements
  SHORT / LONG / DOUBLE (see :mod:`repro.workload.scenarios`).
* :class:`TraceBehavior` — explicit per-job execution times, used to build
  the paper's Fig. 2 / Fig. 3 example schedules exactly.
* :class:`PwcetFractionBehavior` — a fixed fraction of the level-C PWCET
  (e.g. jobs that usually finish early).
* :class:`StochasticBehavior` — random execution times around the level-C
  PWCET with an occasional overrun; used in robustness tests and the
  extension experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.model.task import CriticalityLevel, Task
from repro.util.validation import check_nonnegative, check_positive

__all__ = [
    "ExecutionBehavior",
    "ConstantBehavior",
    "TraceBehavior",
    "PwcetFractionBehavior",
    "StochasticBehavior",
    "OverloadWindow",
    "WindowedOverloadBehavior",
]


@runtime_checkable
class ExecutionBehavior(Protocol):
    """Strategy mapping a job release to its actual execution time."""

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        """Return :math:`e_{i,k}` for job *job_index* of *task* released at *release*."""
        ...


def _pwcet_or_fallback(task: Task, level: CriticalityLevel) -> float:
    """PWCET of *task* at *level*, falling back to the least-critical PWCET.

    Level-D tasks have no PWCETs; behaviours treat them as zero-demand
    unless the behaviour explicitly configures them.
    """
    pwcets = task.pwcets
    cost = pwcets.get(level)  # PWCETs are positive, never None
    if cost is not None:
        return cost
    if pwcets:
        # Fall back to the least-critical (smallest analysis index ... i.e.
        # largest enum value) PWCET available, which is the least pessimistic.
        return pwcets[max(pwcets)]
    return 0.0


@dataclass(frozen=True)
class ConstantBehavior:
    """Every job executes for its PWCET at ``level`` (default: level C).

    This is the paper's "normal operation": no job exceeds its level-C
    PWCET, so response times are bounded (Fig. 2(a), Fig. 3(a)).
    """

    level: CriticalityLevel = CriticalityLevel.C

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        return _pwcet_or_fallback(task, self.level)


@dataclass(frozen=True)
class PwcetFractionBehavior:
    """Jobs execute for ``fraction`` of their level-C PWCET.

    A fraction below 1 models the realistic case mentioned in Sec. 3
    ("level-C jobs will often run for less time than their respective
    level-C PWCETs"); a fraction above 1 models sustained overrun.
    """

    fraction: float

    def __post_init__(self) -> None:
        check_positive("fraction", self.fraction)

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        return self.fraction * _pwcet_or_fallback(task, CriticalityLevel.C)


class TraceBehavior:
    """Explicit per-job execution times with a per-task default.

    Used to reconstruct the paper's hand-built example schedules, where
    specific jobs overrun at specific times.
    """

    def __init__(
        self,
        overrides: Optional[Dict[Tuple[int, int], float]] = None,
        default: Optional[ExecutionBehavior] = None,
    ) -> None:
        """
        Parameters
        ----------
        overrides:
            Map ``(task_id, job_index) -> exec_time`` for the jobs whose
            execution time differs from the default.
        default:
            Behaviour for all other jobs (defaults to
            :class:`ConstantBehavior` at level C).
        """
        self._overrides = dict(overrides or {})
        for key, value in self._overrides.items():
            check_nonnegative(f"override[{key}]", value)
        self._default = default if default is not None else ConstantBehavior()

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        key = (task.task_id, job_index)
        if key in self._overrides:
            return self._overrides[key]
        return self._default.exec_time(task, job_index, release)


@dataclass(frozen=True)
class OverloadWindow:
    """A half-open actual-time interval ``[start, end)`` of overload."""

    start: float
    end: float

    def __post_init__(self) -> None:
        check_nonnegative("start", self.start)
        if not self.end > self.start:
            raise ValueError(f"window end must exceed start, got [{self.start}, {self.end})")

    @property
    def length(self) -> float:
        """Window duration ``end - start``."""
        return self.end - self.start

    def contains(self, t: float) -> bool:
        """Whether actual time *t* falls inside the window."""
        return self.start <= t < self.end


class WindowedOverloadBehavior:
    """Sec. 5 overload injection: overrun inside windows, normal outside.

    Jobs *released* inside any window execute for their ``overload_level``
    PWCET (level B in the paper: 10x the level-C PWCET); jobs released
    outside all windows execute for their ``normal_level`` PWCET (level C).

    Keying on the release time matches the paper's description ("all jobs
    ... execute for their level-B PWCETs for 500 ms"): a job that starts
    inside the window carries its inflated demand even if it finishes
    after the window ends, which is what makes the overload's effects
    outlast the window and gives a non-trivial dissipation time.
    """

    def __init__(
        self,
        windows: Sequence[OverloadWindow],
        overload_level: CriticalityLevel = CriticalityLevel.B,
        normal_level: CriticalityLevel = CriticalityLevel.C,
    ) -> None:
        self.windows = tuple(sorted(windows, key=lambda w: w.start))
        for a, b in zip(self.windows, self.windows[1:]):
            if b.start < a.end:
                raise ValueError(f"overload windows overlap: {a} and {b}")
        #: The windows as ``(start, end)`` pairs: every release tests
        #: them, and a plain loop over float pairs is the cheapest test.
        self._bounds = tuple((w.start, w.end) for w in self.windows)
        self.overload_level = overload_level
        self.normal_level = normal_level

    @property
    def last_overload_end(self) -> float:
        """End of the final overload window (dissipation is measured from here)."""
        if not self.windows:
            return 0.0
        return self.windows[-1].end

    def in_overload(self, t: float) -> bool:
        """Whether actual time *t* lies inside any overload window."""
        for start, end in self._bounds:
            if start <= t < end:
                return True
        return False

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        level = self.overload_level if self.in_overload(release) else self.normal_level
        return _pwcet_or_fallback(task, level)


class StochasticBehavior:
    """Random execution times: ``U(lo, hi) * pwcet_C`` with rare overruns.

    With probability ``overrun_prob`` a job instead draws from
    ``U(1, overrun_factor) * pwcet_C``, exceeding its provisioning.  The
    generator is seeded for reproducibility.
    """

    def __init__(
        self,
        lo: float = 0.5,
        hi: float = 1.0,
        overrun_prob: float = 0.0,
        overrun_factor: float = 2.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < lo <= hi:
            raise ValueError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
        if not 0.0 <= overrun_prob <= 1.0:
            raise ValueError(f"overrun_prob must be in [0, 1], got {overrun_prob}")
        if overrun_factor < 1.0:
            raise ValueError(f"overrun_factor must be >= 1, got {overrun_factor}")
        self.lo = lo
        self.hi = hi
        self.overrun_prob = overrun_prob
        self.overrun_factor = overrun_factor
        self._rng = np.random.default_rng(seed)

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        base = _pwcet_or_fallback(task, CriticalityLevel.C)
        if self.overrun_prob and self._rng.random() < self.overrun_prob:
            return float(self._rng.uniform(1.0, self.overrun_factor)) * base
        return float(self._rng.uniform(self.lo, self.hi)) * base
