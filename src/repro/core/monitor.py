"""Userspace monitor programs (Algorithms 2-4).

The kernel reports every level-C job completion to the monitor; the
monitor decides when to slow the virtual clock (overload response) and
when to restore speed 1 (recovery complete).  This module reproduces the
paper's pseudocode faithfully:

* :class:`Monitor` — the common logic of Algorithm 2: tracking the set of
  pending jobs, detecting response-time-tolerance misses (Def. 1),
  maintaining the earliest *candidate idle instant* (Def. 3) and its set
  of still-pending jobs, and exiting recovery at the earliest *idle
  normal instant* (Def. 2), justified by Theorem 1.
* :class:`SimpleMonitor` — Algorithm 3 (SIMPLE): on the first miss outside
  recovery, slow the clock to a fixed speed ``s``.
* :class:`AdaptiveMonitor` — Algorithm 4 (ADAPTIVE): choose the speed at
  runtime, maintaining ``s(t) = a * min (Y_i + xi_i) / R_{i,k}`` over jobs
  completed since recovery started (only ever ratcheting downward).
* :class:`NullMonitor` — no-op, for baselines without the mechanism
  (Fig. 2(b)/3(b) and the "without virtual time" bars of Fig. 9).

Line numbers in comments refer to the paper's pseudocode listings.

**Quiet-run guarantee.**  The monitor's side of the kernel seam, written
as a rely/guarantee contract like the kernel's (Jones & Burns,
PAPERS.md).  Every built-in monitor — the three concrete classes here
and the two of :mod:`repro.core.policies` — relies on the kernel's
reports and guarantees that it calls ``change_speed``, enters recovery,
opens an episode or emits a monitor trace event only after it has
counted a tolerance miss (``miss_count`` rises before
:meth:`Monitor.handle_miss` runs, and every other action is reached
from it or from recovery mode).
Neither the kernel's calls into a monitor (``on_job_release`` and
``on_job_complete``, which return nothing) nor the runner's
``settled()`` (``recovery_mode``) nor the run's result (``miss_count``,
``episodes``, ``speed_requests``) read anything else.  So a run that
counts no miss is one schedule and one result under every built-in
monitor, but for the ``monitor`` label, and
:func:`repro.runtime.executor.run_spec` simulates such a run once per
sharing scope (:func:`repro.runtime.registry.acts_only_on_miss` names
the kinds it trusts).  ``tests/property/test_quiet_run_props.py``
checks both halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Set, Tuple

from repro.model.task import Task
from repro.obs.tracer import NULL_TRACER, EventName, Tracer

__all__ = [
    "CompletionReport",
    "SpeedController",
    "Monitor",
    "NullMonitor",
    "SimpleMonitor",
    "AdaptiveMonitor",
    "RecoveryEpisode",
]

#: A job identity as reported by the kernel.
Jid = Tuple[int, int]


@dataclass(frozen=True)
class CompletionReport:
    """What ``job_complete`` reports to the monitor (Algorithm 1 line 13).

    Attributes
    ----------
    task:
        The completing job's task (carries ``Y_i`` and ``xi_i``).
    job_index:
        The job's index ``k``.
    release:
        ``r_{i,k}`` (actual time).
    actual_pp:
        ``y_{i,k}`` in actual time, or ``None`` for the paper's bottom
        placeholder — meaning the job completed at or before its PP and
        hence trivially meets any non-negative tolerance (Fig. 5(b)).
    comp_time:
        ``t^c_{i,k}``.
    queue_empty:
        Whether some processor idles at the completion instant (no
        pending level-A/B work claims it and no eligible level-C job is
        left to run on it) — the Def. 3 signal Algorithm 2 uses to
        detect candidate idle instants.  An empty ready queue alone is
        not sufficient: a freed CPU refilled from the queue in the same
        instant leaves every processor busy.
    """

    task: Task
    job_index: int
    release: float
    actual_pp: Optional[float]
    comp_time: float
    queue_empty: bool

    @property
    def jid(self) -> Jid:
        """``(task_id, job_index)``."""
        return (self.task.task_id, self.job_index)

    @property
    def response_time(self) -> float:
        """``R_{i,k} = t^c - r``."""
        return self.comp_time - self.release

    @property
    def misses_tolerance(self) -> bool:
        """Def. 1 violation test: ``comp_time - y > xi`` (lines 10, 13).

        ``actual_pp is None`` means the job completed no later than its PP
        and therefore meets its (non-negative) tolerance.
        """
        if self.actual_pp is None:
            return False
        xi = self.task.tolerance
        if xi is None:
            raise ValueError(
                f"level-C task {self.task.label} has no response-time tolerance configured"
            )
        return self.comp_time - self.actual_pp > xi


class SpeedController(Protocol):
    """The kernel-side system call the monitor uses (Sec. 4)."""

    def change_speed(self, new_speed: float) -> None:
        """Install a new virtual-clock speed at the kernel's current time.

        A system call takes no timestamp: the kernel reads its own clock
        (Algorithm 1 line 14), so a report delivered late cannot
        backdate the speed change.
        """
        ...


@dataclass(frozen=True)
class RecoveryEpisode:
    """One recovery-mode episode, for the experiment metrics.

    ``end`` is ``None`` while the episode is still open.
    """

    start: float
    end: Optional[float]
    trigger: Jid


class Monitor:
    """Common monitor logic (Algorithm 2).

    Subclasses implement :meth:`handle_miss` (Algorithms 3/4).  The
    monitor is driven by the kernel through :meth:`on_job_release` and
    :meth:`on_job_complete`; it acts on the kernel only through the
    ``change_speed`` system call.
    """

    def __init__(self, controller: SpeedController) -> None:
        self.controller = controller
        #: Structured event stream; :meth:`MC2Kernel.attach_monitor`
        #: replaces this with the kernel's tracer so one trace carries
        #: both kernel and monitor events.
        self.tracer: Tracer = NULL_TRACER
        #: Whether we are searching for an idle normal instant.
        self.recovery_mode: bool = False
        #: Earliest candidate idle instant, or None for the bottom value.
        self.idle_cand: Optional[float] = None
        #: Jobs pending at ``idle_cand`` that are still incomplete.
        self.pend_idle_cand: Set[Jid] = set()
        #: All currently pending level-C jobs.
        self.pend_now: Set[Jid] = set()
        # ---- telemetry (not part of the paper's pseudocode) ----
        #: Closed and open recovery episodes.
        self.episodes: List[RecoveryEpisode] = []
        #: Count of tolerance misses observed.
        self.miss_count: int = 0
        #: (detection time, speed) for every change_speed this monitor
        #: issued; the kernel applies each at its own current time.
        self.speed_requests: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def init_recovery(self, comp_time: float, queue_empty: bool) -> None:
        """Algorithm 2 ``init_recovery`` (lines 1-7)."""
        self.recovery_mode = True  # line 1
        if queue_empty:  # line 2
            self.idle_cand = comp_time  # line 3
            self.pend_idle_cand = set(self.pend_now)  # line 4
        else:  # line 5
            self.idle_cand = None  # line 6
            self.pend_idle_cand = set()  # line 7

    def on_job_release(self, jid: Jid) -> None:
        """Algorithm 2 ``on_job_release`` (line 8)."""
        self.pend_now.add(jid)

    def on_job_complete(self, report: CompletionReport) -> None:
        """Algorithm 2 ``on_job_complete`` (lines 9-23)."""
        self.pend_now.discard(report.jid)  # line 9
        miss = report.misses_tolerance
        if miss:  # line 10
            self.miss_count += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EventName.MONITOR_MISS,
                    report.comp_time,
                    task=report.task.task_id,
                    job=report.job_index,
                    response=report.response_time,
                    queue_empty=report.queue_empty,
                )
            self.handle_miss(report)  # line 11
        if self.recovery_mode and self.idle_cand is not None:  # line 12
            if miss:  # line 13
                # A pending-at-idle_cand job missed, so idle_cand cannot be
                # an idle normal instant (Def. 3 fails): discard it.
                self.idle_cand = None  # line 14
                self.pend_idle_cand = set()  # line 15
            else:  # line 16
                self.pend_idle_cand.discard(report.jid)  # line 17
        if self.recovery_mode and self.idle_cand is None and report.queue_empty:  # line 18
            self.idle_cand = report.comp_time  # line 19
            self.pend_idle_cand = set(self.pend_now)  # line 20
        if (
            self.recovery_mode
            and self.idle_cand is not None
            and not self.pend_idle_cand
        ):  # line 21
            # idle_cand is an idle normal instant (Theorem 1): every job
            # pending at it met its tolerance.
            self._exit_recovery(report)  # lines 22-23

    def _exit_recovery(self, report: CompletionReport) -> None:
        """Lines 22-23: restore speed 1 and leave recovery mode.

        Overridable hook — extension policies (e.g. gradual restoration,
        :mod:`repro.core.policies`) replace the one-jump restore.
        """
        if self.tracer.enabled:
            self.tracer.emit(
                EventName.MONITOR_EXIT,
                report.comp_time,
                idle_instant=self.idle_cand,
            )
        self._change_speed(1.0, report.comp_time)  # line 22
        self.recovery_mode = False  # line 23
        self._close_episode(report.comp_time)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def handle_miss(self, report: CompletionReport) -> None:
        """React to a tolerance miss (Algorithm 3/4 differ here)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Internals / telemetry
    # ------------------------------------------------------------------
    def _change_speed(self, speed: float, now: float) -> None:
        """Issue ``change_speed``; *now* is the instant the monitor
        detected the need (recorded in ``speed_requests``), not the
        instant the kernel applies it."""
        self.speed_requests.append((now, speed))
        if self.tracer.enabled:
            self.tracer.emit(EventName.MONITOR_SPEED, now, speed=speed)
        self.controller.change_speed(speed)

    def _open_episode(self, report: CompletionReport) -> None:
        self.episodes.append(
            RecoveryEpisode(start=report.comp_time, end=None, trigger=report.jid)
        )
        if self.tracer.enabled:
            self.tracer.emit(
                EventName.RECOVERY_OPEN,
                report.comp_time,
                trigger_task=report.task.task_id,
                trigger_job=report.job_index,
            )

    def _close_episode(self, end: float) -> None:
        if self.episodes and self.episodes[-1].end is None:
            last = self.episodes[-1]
            self.episodes[-1] = RecoveryEpisode(
                start=last.start, end=end, trigger=last.trigger
            )
            if self.tracer.enabled:
                self.tracer.emit(EventName.RECOVERY_CLOSE, end, start=last.start)

    @property
    def last_recovery_end(self) -> Optional[float]:
        """End time of the most recent closed episode, if any."""
        for ep in reversed(self.episodes):
            if ep.end is not None:
                return ep.end
        return None

    def minimum_requested_speed(self) -> float:
        """Smallest speed this monitor ever requested (1.0 if none)."""
        if not self.speed_requests:
            return 1.0
        return min(s for _, s in self.speed_requests)


class NullMonitor(Monitor):
    """A monitor that never reacts: the no-mechanism baseline.

    It still tracks pending jobs and counts misses so experiments can
    report how degraded the unmanaged system is, but it never enters
    recovery and never touches the clock.
    """

    def on_job_complete(self, report: CompletionReport) -> None:
        self.pend_now.discard(report.jid)
        if report.task.tolerance is not None and report.misses_tolerance:
            self.miss_count += 1

    def handle_miss(self, report: CompletionReport) -> None:  # pragma: no cover
        pass


class SimpleMonitor(Monitor):
    """Algorithm 3 (SIMPLE): fixed recovery speed ``s``.

    ``s = 1`` degenerates to "no slowdown, but still detect recovery",
    which is the paper's baseline point in Fig. 6.
    """

    def __init__(self, controller: SpeedController, s: float) -> None:
        super().__init__(controller)
        if not 0.0 < s <= 1.0:
            raise ValueError(f"SIMPLE requires 0 < s <= 1, got {s}")
        self.s = s

    def handle_miss(self, report: CompletionReport) -> None:
        if not self.recovery_mode:  # line 1
            self._change_speed(self.s, report.comp_time)  # line 2
            self._open_episode(report)
            self.init_recovery(report.comp_time, report.queue_empty)  # line 3


class AdaptiveMonitor(Monitor):
    """Algorithm 4 (ADAPTIVE): runtime-chosen recovery speed.

    Maintains the invariant that after each miss,
    ``s(t) = a * min over completed jobs of (Y_i + xi_i) / R_{i,k}``,
    where the min ranges over jobs completing since recovery last started
    — i.e. the speed is set from the largest *normalized* response time
    observed, and only ever ratchets downward within an episode.
    """

    def __init__(self, controller: SpeedController, a: float) -> None:
        super().__init__(controller)
        if not 0.0 < a <= 1.0:
            raise ValueError(f"ADAPTIVE requires aggressiveness 0 < a <= 1, got {a}")
        self.a = a
        self.current_speed: float = 1.0

    def handle_miss(self, report: CompletionReport) -> None:
        if not self.recovery_mode:  # line 1
            self.current_speed = 1.0  # line 2
            self._open_episode(report)
            self.init_recovery(report.comp_time, report.queue_empty)  # line 3
        y = report.task.relative_pp
        xi = report.task.tolerance
        assert y is not None and xi is not None  # level-C tasks; checked upstream
        response = report.comp_time - report.release
        new_speed = self.a * (y + xi) / response  # line 4
        # A miss implies R > Y + xi (the actual PP is at least Y after the
        # release when s <= 1), so new_speed < a <= 1; the clamp only
        # guards float round-off.
        new_speed = min(new_speed, 1.0)
        if new_speed < self.current_speed:  # line 5
            self._change_speed(new_speed, report.comp_time)  # line 6
            self.current_speed = new_speed  # line 7
