"""Safety invariants: trace oracles for the paper's guarantees.

Each check recomputes one claim of the paper offline, from the finished
run artifacts (:class:`~repro.experiments.runner.ExperimentOutput`), by
direct application of the definitions — the same style as
:mod:`repro.analysis.trace_check`, which the recovery-exit oracle
reuses.  A fault-free run must satisfy all of them (the campaign
acceptance gate); under injected faults, violations localize *which*
guarantee broke.

Invariant catalog (names are stable identifiers used in scorecards):

``ab_isolation``
    Criticality isolation: every level-A/B job meets its implicit
    deadline ``r + T`` regardless of level-C faults (MC² architecture,
    Fig. 1 — higher levels are insulated from level-C overload).
    Synthetic CpuStall hog jobs (``task_id >=``
    :data:`~repro.faults.plane.FAULT_TASK_BASE_ID`) are excluded: a
    stalled CPU *should* delay its partition, and the delayed real jobs
    are exactly what this oracle must flag.
``speed_bounds``
    The applied speed sequence is causally ordered and every speed lies
    in ``(0, 1]`` (paper Sec. 3: virtual time never runs faster than
    actual time); with a known monitor floor ``s_min``, speeds never go
    below it.
``recovery_closure``
    Dissipation terminates: every opened recovery episode closes before
    the simulation ends, and a run that leaves recovery leaves the
    clock at speed 1 (a stuck-slow clock means the restore command was
    lost).
``gel_order``
    GEL-v priority-order consistency: whenever an eligible level-C head
    waits while a lower-priority (larger ``(v(y), tid, idx)``) level-C
    job runs, the dispatcher violated the GEL-v selection rule.
    Requires interval recording; skipped (and not listed as checked)
    otherwise.
``recovery_exit``
    Theorem 1 ground truth: every closed episode contains an idle
    normal instant (Def. 2), recomputed from the trace via
    :func:`repro.analysis.trace_check.verify_monitor_decisions`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, DefaultDict, Dict, List, Optional, Tuple

from repro.analysis.trace_check import verify_monitor_decisions
from repro.experiments.runner import ExperimentOutput
from repro.faults.plane import FAULT_TASK_BASE_ID
from repro.io import codec
from repro.model.task import CriticalityLevel
from repro.model.taskset import TaskSet
from repro.sim.trace import Trace

__all__ = [
    "INVARIANT_NAMES",
    "Violation",
    "InvariantReport",
    "evaluate_invariants",
]

INVARIANT_NAMES = (
    "ab_isolation",
    "speed_bounds",
    "recovery_closure",
    "gel_order",
    "recovery_exit",
)

#: Absolute slack for float comparisons against deadlines/bounds.
_EPS = 1e-9

#: Cap on recorded violations per invariant (a single bad plan can fail
#: thousands of jobs; scorecards stay bounded, the last entry counts the
#: remainder).
_MAX_PER_INVARIANT = 25


@codec.document(omit_default=("task", "job"))
@dataclass(frozen=True)
class Violation:
    """One invariant violation, anchored at a simulation time."""

    invariant: str
    t: float
    message: str
    task: Optional[int] = None
    job: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return codec.encode(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Violation":
        return codec.decode(cls, doc)


@dataclass(frozen=True)
class InvariantReport:
    """All violations found in one run, plus what was actually checked."""

    checked: Tuple[str, ...]
    violations: Tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> Dict[str, int]:
        """Violations per invariant (only invariants that fired)."""
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.invariant] = out.get(v.invariant, 0) + 1
        return out


class _Collector:
    """Per-invariant capped violation sink."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self._per: Dict[str, int] = {}

    def add(self, v: Violation) -> None:
        n = self._per.get(v.invariant, 0) + 1
        self._per[v.invariant] = n
        if n < _MAX_PER_INVARIANT:
            self.violations.append(v)
        elif n == _MAX_PER_INVARIANT:
            self.violations.append(
                Violation(
                    invariant=v.invariant,
                    t=v.t,
                    message="further violations suppressed (cap reached)",
                )
            )


def evaluate_invariants(
    output: ExperimentOutput,
    ts: TaskSet,
    s_min: Optional[float] = None,
) -> InvariantReport:
    """Run every applicable invariant oracle over one finished run.

    ``s_min`` is the monitor's known speed floor (e.g. SIMPLE's fixed
    ``s``); ``None`` skips the floor clause of ``speed_bounds``.
    """
    sink = _Collector()
    checked: List[str] = []

    checked.append("ab_isolation")
    _check_ab_isolation(output.trace, ts, output.result.sim_end, sink)

    checked.append("speed_bounds")
    _check_speed_bounds(output.trace, s_min, sink)

    checked.append("recovery_closure")
    _check_recovery_closure(output, sink)

    if output.trace.record_intervals:
        checked.append("gel_order")
        _check_gel_order(output.trace, sink)

    checked.append("recovery_exit")
    verdict = verify_monitor_decisions(output.monitor, output.trace, ts)
    for end, reason in verdict.violations:
        sink.add(Violation(invariant="recovery_exit", t=end, message=reason))

    return InvariantReport(checked=tuple(checked), violations=tuple(sink.violations))


# ----------------------------------------------------------------------
# ab_isolation
# ----------------------------------------------------------------------
def _check_ab_isolation(
    trace: Trace, ts: TaskSet, sim_end: float, sink: _Collector
) -> None:
    # Rows, not records: the oracles never make a trace build its records.
    for task_id, level, index, release, _, completion, _, _, _ in trace.job_values():
        if level is not CriticalityLevel.A and level is not CriticalityLevel.B:
            continue
        if task_id >= FAULT_TASK_BASE_ID:
            continue  # synthetic stall hogs have no deadline contract
        deadline = release + ts[task_id].period
        if completion is None:
            # Incomplete at trace end: only a miss if the deadline passed.
            if deadline < sim_end - _EPS:
                sink.add(
                    Violation(
                        invariant="ab_isolation",
                        t=deadline,
                        message=(
                            f"level-{level.name} job never completed; "
                            f"deadline {deadline:.6f} < sim end {sim_end:.6f}"
                        ),
                        task=task_id,
                        job=index,
                    )
                )
        elif completion > deadline + _EPS:
            sink.add(
                Violation(
                    invariant="ab_isolation",
                    t=completion,
                    message=(
                        f"level-{level.name} deadline miss: completed "
                        f"{completion - deadline:.6f} after r+T={deadline:.6f}"
                    ),
                    task=task_id,
                    job=index,
                )
            )


# ----------------------------------------------------------------------
# speed_bounds
# ----------------------------------------------------------------------
def _check_speed_bounds(
    trace: Trace, s_min: Optional[float], sink: _Collector
) -> None:
    prev_t: Optional[float] = None
    for t, s in trace.speed_changes:
        if prev_t is not None and t < prev_t - _EPS:
            sink.add(
                Violation(
                    invariant="speed_bounds",
                    t=t,
                    message=f"speed change at {t:.6f} precedes previous at {prev_t:.6f}",
                )
            )
        prev_t = t
        if not (0.0 < s <= 1.0 + _EPS):
            sink.add(
                Violation(
                    invariant="speed_bounds",
                    t=t,
                    message=f"applied speed {s} outside (0, 1]",
                )
            )
        elif s_min is not None and s < s_min - _EPS:
            sink.add(
                Violation(
                    invariant="speed_bounds",
                    t=t,
                    message=f"applied speed {s} below the monitor floor {s_min}",
                )
            )


# ----------------------------------------------------------------------
# recovery_closure
# ----------------------------------------------------------------------
def _check_recovery_closure(output: ExperimentOutput, sink: _Collector) -> None:
    monitor = output.monitor
    sim_end = output.result.sim_end
    for ep in monitor.episodes:
        if ep.end is None:
            sink.add(
                Violation(
                    invariant="recovery_closure",
                    t=ep.start,
                    message=(
                        f"recovery episode opened at {ep.start:.6f} "
                        f"(trigger {ep.trigger}) never closed by sim end {sim_end:.6f}"
                    ),
                    task=ep.trigger[0],
                    job=ep.trigger[1],
                )
            )
    # Out of recovery ⇒ the clock must be back at speed 1 (a stuck-slow
    # clock means a restore command was lost on the way to the kernel).
    clock = output.kernel.clock
    if not monitor.recovery_mode and not clock.is_normal_speed:
        sink.add(
            Violation(
                invariant="recovery_closure",
                t=sim_end,
                message=(
                    f"monitor is out of recovery but the clock runs at "
                    f"speed {clock.speed} at sim end"
                ),
            )
        )


# ----------------------------------------------------------------------
# gel_order
# ----------------------------------------------------------------------
def _check_gel_order(trace: Trace, sink: _Collector) -> None:
    """Sweep-line over the level-C schedule: in every open inter-event
    interval, no eligible waiting head may outrank a running level-C job
    under the GEL-v key ``(virtual_pp, task_id, index)``.

    Placement is migration-averse but selection is global top-k, so the
    invariant is independent of how many CPUs level C currently holds.
    """
    Key = Tuple[float, int, int]
    key_of: Dict[Tuple[int, int], Key] = {}
    # Grouped events: time -> list of (action, payload).
    events: DefaultDict[float, List[Tuple[str, Any]]] = defaultdict(list)
    for task_id, level, index, release, _, completion, _, _, vpp in trace.job_values():
        if level is not CriticalityLevel.C or vpp is None:
            continue
        jid = (task_id, index)
        key_of[jid] = (vpp, task_id, index)
        events[release].append(("add", jid))
        if completion is not None:
            events[completion].append(("del", jid))
    for _, task_id, index, start, end in trace.interval_values():
        jid = (task_id, index)
        if jid not in key_of:
            continue  # non-C interval
        events[start].append(("run", jid))
        events[end].append(("stop", jid))

    pending: Dict[int, Dict[int, Key]] = {}  # task_id -> {index: key}
    head_of: Dict[int, int] = {}  # task_id -> index of its pending head
    heads: List[Key] = []  # every pending task's head key, in GEL-v order
    running: Dict[Tuple[int, int], int] = {}  # jid -> active interval count
    times = sorted(events)
    for pos, t in enumerate(times):
        for action, jid in events[t]:
            tid, idx = jid
            if action == "add":
                task_pend = pending.setdefault(tid, {})
                task_pend[idx] = key_of[jid]
                head = head_of.get(tid)
                if head is None or idx < head:
                    if head is not None:
                        del heads[bisect_left(heads, task_pend[head])]
                    head_of[tid] = idx
                    insort(heads, key_of[jid])
            elif action == "del":
                task_pend = pending.get(tid)
                if task_pend is None or idx not in task_pend:
                    continue
                k = task_pend.pop(idx)
                if head_of[tid] == idx:
                    del heads[bisect_left(heads, k)]
                    if task_pend:
                        head = head_of[tid] = min(task_pend)
                        insort(heads, task_pend[head])
                    else:
                        del head_of[tid]
                if not task_pend:
                    del pending[tid]
            elif action == "run":
                running[jid] = running.get(jid, 0) + 1
            else:  # stop
                n = running.get(jid, 0) - 1
                if n <= 0:
                    running.pop(jid, None)
                else:
                    running[jid] = n
        if pos + 1 >= len(times):
            break
        nxt = times[pos + 1]
        if nxt - t <= 1e-12 or not running:
            continue
        # State now describes the open interval (t, nxt).
        max_run: Optional[Key] = None
        run_jid: Optional[Tuple[int, int]] = None
        for jid in running:
            k = key_of[jid]
            if max_run is None or k > max_run:
                max_run, run_jid = k, jid
        # The best waiting head is the first head not running: at most
        # len(running) heads are skipped.
        min_wait: Optional[Key] = None
        wait_jid: Optional[Tuple[int, int]] = None
        for k in heads:
            if (k[1], k[2]) not in running:
                min_wait, wait_jid = k, (k[1], k[2])
                break
        if min_wait is not None and max_run is not None and min_wait < max_run:
            mid = (t + nxt) / 2.0
            assert wait_jid is not None and run_jid is not None
            sink.add(
                Violation(
                    invariant="gel_order",
                    t=mid,
                    message=(
                        f"eligible head {wait_jid} (key {min_wait}) waits over "
                        f"({t:.6f}, {nxt:.6f}) while lower-priority {run_jid} "
                        f"(key {max_run}) runs"
                    ),
                    task=wait_jid[0],
                    job=wait_jid[1],
                )
            )
