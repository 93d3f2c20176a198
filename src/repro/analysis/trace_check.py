"""Offline verification of monitor decisions against a trace.

The monitor detects idle normal instants *online* from a stream of
completions (Algorithm 2); this module recomputes the same notions
*offline* from a finished trace, from the paper's definitions:

* **Def. 1** — a completed job misses its tolerance iff
  ``t^c - y > xi`` (jobs completing at or before their PP meet any
  non-negative tolerance);
* **Def. 2** — ``t`` is an *idle normal instant* iff some processor is
  idle at ``t`` (fewer eligible level-C jobs than available CPUs, in the
  level-C view) and every job pending at ``t`` meets its tolerance.

:func:`pending_jobs_at` and :func:`is_idle_normal_instant` apply the
definitions literally, one instant at a time (a scan of every job
record).  :func:`idle_normal_instants` and :func:`verify_monitor_decisions`
answer many instants at once with one forward sweep over the trace,
giving the same answers; the tests cross-check the sweep against the
per-instant definitions.

:func:`verify_monitor_decisions` cross-checks a monitor's recovery
episodes: every episode must end at (a completion revealing) an idle
normal instant.  The property suite uses this as the ground truth for
Theorem 1; it is also a practical debugging tool for custom policies.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import Monitor
from repro.model.task import CriticalityLevel
from repro.model.taskset import TaskSet
from repro.sim.trace import JobRecord, Trace

__all__ = [
    "job_misses_tolerance",
    "pending_jobs_at",
    "is_idle_normal_instant",
    "idle_normal_instants",
    "verify_monitor_decisions",
    "MonitorVerdict",
]


def job_misses_tolerance(rec: JobRecord, ts: TaskSet) -> bool:
    """Def. 1 on a completed record (False for incomplete/non-C jobs)."""
    if rec.level is not CriticalityLevel.C or rec.completion is None:
        return False
    return _misses_tolerance(rec.task_id, rec.completion, rec.actual_pp, ts)


def _misses_tolerance(
    task_id: int, completion: float, actual_pp: Optional[float], ts: TaskSet
) -> bool:
    """Def. 1 on a completed level-C job's values: ``t^c - y > xi``."""
    xi = ts[task_id].tolerance
    if xi is None:
        raise ValueError(f"task {task_id} has no tolerance configured")
    return actual_pp is not None and completion - actual_pp > xi


def pending_jobs_at(trace: Trace, t: float) -> List[JobRecord]:
    """Level-C jobs pending at *t* (paper Sec. 2: ``r <= t < t^c``)."""
    out = []
    for rec in trace.jobs:
        if rec.level is not CriticalityLevel.C:
            continue
        if rec.release <= t and (rec.completion is None or t < rec.completion):
            out.append(rec)
    return out


def _eligible_pending(pending: Sequence[JobRecord]) -> List[JobRecord]:
    """Heads of each task's pending queue (intra-task precedence)."""
    heads = {}
    for rec in pending:
        cur = heads.get(rec.task_id)
        if cur is None or rec.index < cur.index:
            heads[rec.task_id] = rec
    return list(heads.values())


def is_idle_normal_instant(
    trace: Trace, ts: TaskSet, t: float, available_cpus: Optional[int] = None
) -> bool:
    """Def. 2 at instant *t*, recomputed from the trace.

    "Some processor is idle" is evaluated in the level-C view the paper's
    analysis uses: fewer *eligible* pending level-C jobs than CPUs
    available to level C at that instant.  ``available_cpus`` defaults to
    the platform size (exact when levels A/B are idle at ``t``; callers
    with heavy A/B load should pass the instantaneous availability).
    """
    m = available_cpus if available_cpus is not None else ts.m
    pending = pending_jobs_at(trace, t)
    if len(_eligible_pending(pending)) >= m:
        return False
    for rec in pending:
        if rec.completion is None:
            return False  # unfinished at trace end: cannot certify Def. 1
        if job_misses_tolerance(rec, ts):
            return False
    return True


def _idle_normal_flags(
    trace: Trace, ts: TaskSet, instants: Sequence[float]
) -> List[bool]:
    """Def. 2 at each of *instants* (with ``ts.m`` CPUs), in one sweep.

    The same answers as :func:`is_idle_normal_instant` per instant, in
    O((jobs + instants) log jobs): the level-C jobs' release instants
    (pending from ``r <= t``) and completion instants (pending while
    ``t < t^c``) are walked in time order, keeping a pending count per
    task (the eligible heads are the tasks with a pending job) and a
    count of pending jobs that are unfinished or miss Def. 1.  Def. 1 is
    evaluated for every completed level-C job, so every level-C task
    needs a tolerance.  Reads the trace's rows, so no record is built.
    """
    if not instants:
        return []
    # (time, 0 = release / 1 = completion, task, unfinished or missed):
    # at equal times releases sort first, so a zero-length job is added
    # before it is removed and no task's count goes negative.
    events: List[Tuple[float, int, int, bool]] = []
    for task_id, level, _, release, _, completion, actual_pp, _, _ in trace.job_values():
        if level is not CriticalityLevel.C:
            continue
        blocks = completion is None or _misses_tolerance(task_id, completion, actual_pp, ts)
        events.append((release, 0, task_id, blocks))
        if completion is not None:
            events.append((completion, 1, task_id, blocks))
    events.sort()
    flags = [False] * len(instants)
    pending: Dict[int, int] = {}  # task_id -> pending job count
    m = ts.m
    heads = blocking = 0
    i, n = 0, len(events)
    for pos in sorted(range(len(instants)), key=instants.__getitem__):
        t = instants[pos]
        while i < n and events[i][0] <= t:
            _, done, tid, blocks = events[i]
            i += 1
            count = pending.get(tid, 0)
            if done:
                pending[tid] = count - 1
                if count == 1:
                    heads -= 1
                if blocks:
                    blocking -= 1
            else:
                pending[tid] = count + 1
                if count == 0:
                    heads += 1
                if blocks:
                    blocking += 1
        flags[pos] = heads < m and blocking == 0
    return flags


def idle_normal_instants(
    trace: Trace, ts: TaskSet, instants: Sequence[float]
) -> List[float]:
    """Filter *instants* down to the idle normal ones (Def. 2)."""
    flags = _idle_normal_flags(trace, ts, instants)
    return [t for t, idle in zip(instants, flags) if idle]


@dataclass(frozen=True)
class MonitorVerdict:
    """Outcome of :func:`verify_monitor_decisions`."""

    episodes_checked: int
    #: (episode_end, reason) for every violation found.
    violations: Tuple[Tuple[float, str], ...]

    @property
    def ok(self) -> bool:
        """Whether every episode exit was justified."""
        return not self.violations


def verify_monitor_decisions(
    monitor: Monitor,
    trace: Trace,
    ts: TaskSet,
    probe_back: float = 1e-6,
) -> MonitorVerdict:
    """Check each closed recovery episode against Def. 2 ground truth.

    An episode ending at completion time ``t_end`` is justified if some
    instant in ``[episode.start, t_end]`` is an idle normal instant.  We
    probe just before ``t_end`` (the accepted candidate idle instant is
    at or before the completion that revealed it) and at every level-C
    completion time inside the episode.  All probes go through one
    sweep of the trace; each episode is then a bisect over the idle
    completions.
    """
    closed = [ep for ep in monitor.episodes if ep.end is not None]
    if not closed:
        return MonitorVerdict(episodes_checked=0, violations=())
    completions = sorted(
        completion
        for _, level, _, _, _, completion, _, _, _ in trace.job_values()
        if level is CriticalityLevel.C and completion is not None
    )
    exits = [ep.end - probe_back for ep in closed]
    flags = _idle_normal_flags(trace, ts, completions + exits)
    idle_completions = [c for c, idle in zip(completions, flags) if idle]
    violations: List[Tuple[float, str]] = []
    for ep, exit_idle in zip(closed, flags[len(completions):]):
        i = bisect_left(idle_completions, ep.start)
        if not exit_idle and not (
            i < len(idle_completions) and idle_completions[i] <= ep.end
        ):
            violations.append(
                (ep.end, "no idle normal instant found within the episode")
            )
    return MonitorVerdict(
        episodes_checked=len(closed), violations=tuple(violations)
    )
