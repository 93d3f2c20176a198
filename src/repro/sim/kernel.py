"""The MC² kernel: per-level dispatching plus Algorithm 1's virtual time.

This module is the simulator's counterpart of the paper's in-kernel
component (Sec. 4).  It owns:

* the **virtual clock** (:class:`~repro.core.virtual_time.VirtualClock`)
  and the Algorithm 1 bookkeeping: recording ``v(r)`` and ``v(y)`` at
  release (``job_release``), lazily resolving actual PPs at completions
  and speed changes (``job_complete`` / ``change_speed``, Fig. 5(b)-(d)),
  and re-arming release timers after each speed change (lines 21-22);
* the **release timers**: level-C releases fire at
  ``virt_to_act(v(r_{i,k}))`` per the SVO rule (eq. 5); level-A/B/D
  releases are periodic in actual time (virtual time affects only
  level C);
* the **dispatcher**: at every event, level-A jobs claim their CPUs
  first (in the rate-monotonic order the offline dispatch table encodes,
  see :mod:`repro.schedulers.table_driven`), then level-B EDF, then the
  global GEL-v selection over the remaining CPUs, then level-D
  background — the MC² architecture of Fig. 1;
* the **change_speed system call** exposed to the userspace monitor
  (:class:`~repro.core.monitor.Monitor`), including PP actualization and
  timer re-arming;
* the **completion reports** sent to the monitor (Algorithm 1 line 13),
  optionally with a configurable userspace notification latency.

A :class:`KernelConfig` with ``use_virtual_time=False`` degrades level C
to plain GEL with actual-time PPs — the baseline for the Fig. 9 overhead
comparison (monitors that change speed are rejected in that mode).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import CompletionReport, Monitor, NullMonitor
from repro.core.svo import ReleaseController
from repro.core.virtual_time import VirtualClock
from repro.model.behavior import ConstantBehavior, ExecutionBehavior
from repro.model.job import Job
from repro.model.task import CriticalityLevel, Task
from repro.model.taskset import TaskSet
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTimer
from repro.obs.telemetry import PHASE_PROFILER, PHASE_SAMPLE_MASK
from repro.obs.tracer import NULL_TRACER, EventName, Tracer
from repro.schedulers.best_effort import pick_best_effort
from repro.schedulers.gel_global import place_gel_jobs
from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind
from repro.sim.processor import Processor
from repro.sim.trace import Trace

__all__ = [
    "KernelConfig",
    "MC2Kernel",
    "simulate",
    "completion_eps",
    "check_pinned_job",
    "COMPACT_STALE_RATIO",
]

#: Absolute floor of the completion slack (1 ns).
_COMPLETION_EPS = 1e-9
#: Relative completion-slack component (~4.5 double ulps of ``now``).
_COMPLETION_REL_EPS = 1e-15

#: Compact the event heap when stale (re-armed) release-timer entries
#: outnumber live release timers by this factor.  Every speed change
#: re-arms every level-C timer (Algorithm 1 lines 21-22), and under
#: rapid speed changes the superseded entries can accumulate faster
#: than they drain; compaction bounds the heap at
#: ``(1 + ratio) * live + transient`` entries.  Module-level so tests
#: can monkeypatch it; both kernel backends read it at the trigger
#: point, keeping their event counts (and thus fingerprints) aligned.
COMPACT_STALE_RATIO = 2


def completion_eps(now: float) -> float:
    """Completion slack at simulated time *now*.

    Remaining execution at or below this counts as zero.  A fixed
    absolute epsilon falls below one double ulp of ``now`` once ``now``
    exceeds ``~4.5e6`` (one ulp of 1e7 is ``~1.9e-9``), at which point a
    completion event computed as ``start + remaining`` can pop with a
    round-off residue the comparison cannot see — deferring the
    completion to the next dispatch and perturbing the schedule.  The
    slack is therefore relative with an absolute floor:
    ``max(1e-9, now * 1e-15)``.
    """
    return max(_COMPLETION_EPS, now * _COMPLETION_REL_EPS)


def check_pinned_job(taskset: TaskSet, task: Task, exec_time: float) -> None:
    """Refuse an ``inject_pinned_job`` outside the seam's contract.

    The task must be level A, pinned to one of the platform's CPUs, and
    not one of *taskset*'s own tasks (its jobs would alias theirs in the
    dispatch indexes); the job must have positive demand.
    """
    cpu = task.cpu
    if task.level is not CriticalityLevel.A or cpu is None or not 0 <= cpu < taskset.m:
        raise ValueError(
            f"an injected job needs a level-A task pinned to a CPU below m={taskset.m}; "
            f"got {task.label} (level {task.level.name}, cpu {task.cpu})"
        )
    if task.task_id in taskset:
        raise ValueError(f"task id {task.task_id} belongs to the task set; inject a new task")
    if not exec_time > 0.0:
        raise ValueError(f"an injected job needs positive demand, got {exec_time}")


@dataclass(frozen=True)
class KernelConfig:
    """Static kernel configuration.

    Attributes
    ----------
    use_virtual_time:
        Enable the paper's virtual-time mechanism at level C.  When off,
        PPs are fixed in actual time at release (plain GEL) and
        ``change_speed`` is unavailable — the Fig. 9 baseline.
    record_intervals:
        Record per-CPU execution intervals in the trace (needed by the
        example-schedule figures and schedule-invariant tests; off for
        large sweeps).
    monitor_latency:
        Delay (seconds) between a kernel event and its delivery to the
        userspace monitor; 0 models an instantaneous monitor.
    measure_overhead:
        Record wall-clock duration of every scheduler invocation
        (Fig. 9) into the kernel's metrics registry via timing spans
        (``kernel.pick_next.ns`` / ``kernel.change_speed.ns``); adds a
        span per event.
    release_delay:
        Optional sporadic-jitter hook ``(task, job_index) -> extra
        separation`` applied to levels B/C/D (level A stays strictly
        time-triggered).  The extra separation is measured in virtual
        time for level-C tasks, keeping releases legal under eq. 5.
        ``None`` (default) gives the paper's periodic release pattern.
    backend:
        Kernel implementation to instantiate: ``"reference"`` (this
        module's object-based :class:`MC2Kernel`) or ``"soa"`` (the
        struct-of-arrays hot path in :mod:`repro.sim.soa`).  Resolved by
        :func:`repro.sim.backend.create_kernel`; constructing
        :class:`MC2Kernel` directly ignores the field.  The SoA backend
        is gated to byte-identical traces against the reference.
    """

    use_virtual_time: bool = True
    record_intervals: bool = False
    monitor_latency: float = 0.0
    measure_overhead: bool = False
    release_delay: Optional[Callable[[Task, int], float]] = None
    backend: str = "reference"


class _IdentityClock:
    """Degenerate clock for ``use_virtual_time=False``: v(t) == t always.

    State lives on the instance: an earlier revision exposed
    ``last_act``/``last_virt``/``speed`` as *class* attributes, so any
    code assigning through one kernel's ``clock`` (or mutating the class
    by accident) could leak state into every other baseline kernel — a
    hazard when a pool worker hosts many kernels back to back.
    """

    __slots__ = ("speed", "last_act", "last_virt")

    def __init__(self) -> None:
        self.speed = 1.0
        self.last_act = 0.0
        self.last_virt = 0.0

    @staticmethod
    def act_to_virt(act: float) -> float:
        return act

    @staticmethod
    def virt_to_act(virt: float) -> float:
        return virt

    @property
    def is_normal_speed(self) -> bool:
        return True


class MC2Kernel:
    """The simulated MC² kernel over an :class:`~repro.sim.engine.Engine`."""

    def __init__(
        self,
        taskset: TaskSet,
        behavior: Optional[ExecutionBehavior] = None,
        config: Optional[KernelConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.taskset = taskset
        self.behavior: ExecutionBehavior = behavior if behavior is not None else ConstantBehavior()
        self.config = config if config is not None else KernelConfig()
        self.engine = Engine()
        self.trace = Trace(record_intervals=self.config.record_intervals)
        self.processors = [Processor(p) for p in range(taskset.m)]
        #: Structured event stream (repro.obs); NULL_TRACER costs one
        #: bool check per potential event.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_on = self.tracer.enabled
        #: Phase profiling (repro.obs.telemetry): resolved once here,
        #: like _trace_on — a process-global toggle, never a spec field,
        #: so enabling it cannot perturb RunSpec keys or results.  When
        #: off, the hot path pays one attribute load + branch per event.
        self._phase_on = PHASE_PROFILER.enabled
        self._ph_dispatch_ns = 0
        self._ph_dispatch_samples = 0
        self._ph_monitor = 0
        self._ph_monitor_ns = 0
        self._ph_monitor_samples = 0
        self._ph_rearm = 0
        self._ph_rearm_ns = 0
        self._ph_rearm_calls = 0
        #: Kernel metrics (counters + span histograms).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = SpanTimer(self.metrics, prefix="kernel")
        # Hot-path fast binds: with measurement/tracing off the wrapper
        # layer is skipped so the per-event cost matches the pre-obs kernel.
        if not self.config.measure_overhead:
            self._reschedule = self._pick_next  # type: ignore[method-assign]
        if not self._trace_on:
            self._record_interval = self.trace.record_interval  # type: ignore[method-assign]
        self.monitor: Monitor = NullMonitor(self)

        # Virtual clock (Algorithm 1 initialize()).
        if self.config.use_virtual_time:
            self.clock: VirtualClock | _IdentityClock = VirtualClock(0.0)
        else:
            self.clock = _IdentityClock()

        # Per-level job pools: incomplete released jobs.
        self.jobs_a: List[List[Job]] = [[] for _ in range(taskset.m)]
        self.jobs_b: List[List[Job]] = [[] for _ in range(taskset.m)]
        # jobs_c is appended at release (time never decreases) and only
        # ever loses entries, so it stays in release order; its first
        # entry is the earliest-released pending level-C job.
        self.jobs_c: List[Job] = []
        self.jobs_d: List[Job] = []

        # --- Dispatch index structures ---------------------------------
        # The dispatcher reads only these; repro.sim.diffcheck recomputes
        # every assignment from the job pools above with the per-level
        # policies, which also validates this bookkeeping.  Invariants:
        # * _pending_cd[tid] holds the task's incomplete released C/D
        #   jobs in index order (releases append; completions remove the
        #   head, or the tail for a zero-demand job completing at its own
        #   release instant).
        # * _head_c/_head_d map a task to its earliest incomplete job —
        #   the only job eligible under intra-task precedence.
        # * _ready_c is a bisect-sorted list with exactly one entry
        #   (virtual_pp, tid, idx, job) per current level-C head — never
        #   stale.  Eager maintenance is cheap because the sort key is
        #   immutable (virtual_pp is fixed at release; speed changes move
        #   actual_pp, not virtual_pp), so an outgoing head's entry is
        #   found by bisecting for its exact key; in exchange, the top-k
        #   peek every dispatch needs is a plain slice.
        # * _heap_a/_heap_b hold (rm_key|edf_key, job) per released job;
        #   completed entries are popped lazily when they surface.
        self._pending_cd: Dict[int, Deque[Job]] = {
            t.task_id: deque()
            for t in taskset
            if t.level is CriticalityLevel.C or t.level is CriticalityLevel.D
        }
        self._head_c: Dict[int, Job] = {}
        self._head_d: Dict[int, Job] = {}
        self._ready_c: List[Tuple[float, int, int, Job]] = []
        self._heap_a: List[List[Tuple[float, int, int, Job]]] = [
            [] for _ in range(taskset.m)
        ]
        self._heap_b: List[List[Tuple[float, int, int, Job]]] = [
            [] for _ in range(taskset.m)
        ]

        # Release bookkeeping.
        self.controllers: Dict[int, ReleaseController] = {}
        self._release_gen: Dict[int, int] = {}
        #: Superseded release-timer events still sitting in the heap
        #: (incremented per re-armed timer, decremented when a stale
        #: entry pops or is compacted away).  Every task always has
        #: exactly one *live* pending release timer, so the live count
        #: is ``len(taskset)``.
        self._stale_releases: int = 0
        #: Start of the current contiguous run per CPU (interval recording).
        self._run_start: List[float] = [0.0] * taskset.m
        #: Level-C jobs completed at the current instant whose monitor
        #: reports are pending end-of-instant delivery (see _flush_reports).
        self._report_buffer: List[Job] = []
        #: Times a running job was descheduled while incomplete.
        self.preemptions: int = 0
        #: Times a job resumed on a different CPU than it last ran on.
        self.migrations: int = 0
        #: Jobs injected so far per synthetic task (the next job index).
        self._injected: Dict[int, int] = {}
        self._started = False
        self._finished = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach_monitor(self, monitor: Monitor) -> None:
        """Install the userspace monitor (must happen before :meth:`run`)."""
        if self._started:
            raise RuntimeError("monitor must be attached before the simulation starts")
        if not self.config.use_virtual_time and not isinstance(monitor, NullMonitor):
            raise ValueError(
                "active monitors require use_virtual_time=True; the plain-GEL "
                "baseline only supports NullMonitor"
            )
        self.monitor = monitor
        # The monitor shares the kernel's event stream (one trace file
        # carries both kernel- and monitor-side events).
        monitor.tracer = self.tracer

    def _arm_initial_releases(self) -> None:
        for t in self.taskset:
            delay = (
                self.config.release_delay
                if t.level is not CriticalityLevel.A
                else None
            )
            ctrl = ReleaseController(t, release_delay=delay)
            self.controllers[t.task_id] = ctrl
            self._release_gen[t.task_id] = 0
            first = ctrl.next_release_actual(self.clock, 0.0)
            self.engine.push(
                Event(time=first, kind=EventKind.RELEASE, payload=t.task_id, generation=0)
            )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the initial release timers (idempotent)."""
        if not self._started:
            self._started = True
            self._arm_initial_releases()

    def run_until(
        self, until: float, stop: Optional[Callable[[], bool]] = None
    ) -> float:
        """Simulate up to *until* (or until *stop* fires); resumable.

        Returns the time the segment stopped at.  Call :meth:`finish`
        after the final segment to snapshot incomplete jobs into the
        trace.
        """
        self.start()
        if self._finished:
            raise RuntimeError("cannot resume a finished kernel")
        out = self.engine.run(self._handle, until, stop)
        # Bring lazily-advanced processors up to date (anchor-based
        # advance makes this a pure recomputation), so callers inspecting
        # job state between segments see consistent remaining demand.
        for proc in self.processors:
            proc.advance(self.engine.now)
        return out

    def finish(self) -> Trace:
        """Close the trace (record still-running intervals and incomplete jobs)."""
        if not self._finished:
            self._finished = True
            self._finalize(self.engine.now)
            # The fast bind of __init__ is a bound method of this kernel
            # stored on it; dropping it lets reference counting free a
            # finished kernel.
            self.__dict__.pop("_reschedule", None)
        return self.trace

    def run(
        self, until: float, stop: Optional[Callable[[], bool]] = None
    ) -> Trace:
        """Convenience: :meth:`run_until` one segment, then :meth:`finish`."""
        self.run_until(until, stop)
        return self.finish()

    def _handle(self, ev: Event) -> None:
        now = self.engine.now
        eps = completion_eps(now)
        # Complete any job whose demand is exactly exhausted *before*
        # processing the event: a release at the same instant must not be
        # able to "preempt" a job with zero remaining work (its tentative
        # COMPLETION event would sort after the RELEASE and go stale,
        # deferring the completion to the next dispatch).
        # Advance only the processors this event touches: the cheap scan
        # below finds same-instant completions without mutating untouched
        # processors (remaining_at evaluates the exact expression an
        # advance would store), and descheduling paths advance on demand.
        # Anchor-based accounting makes the deferred advances
        # bit-identical to advancing every processor at every event.
        for proc in self.processors:
            job = proc.current
            # Inlined proc.remaining_at(now) <= eps (the max(0, .) clamp
            # is redundant against a positive eps): this runs once per
            # busy CPU per event, and the attribute reads measurably beat
            # a method call.
            if job is not None and (
                proc._anchor_remaining - (now - proc._anchor_time) <= eps
            ):
                proc.advance(now)
                self._finish_running(proc, job, now)
        if ev.kind is EventKind.RELEASE:
            self._on_release_timer(ev, now)
        elif ev.kind is EventKind.COMPLETION:
            self._on_completion(ev, now)
        elif ev.kind is EventKind.MONITOR_REPORT:
            self._deliver_report(ev.payload, now)
        elif ev.kind is EventKind.CALLBACK:
            # Generic timer (see EventKind.CALLBACK): the payload is a
            # callable taking the current time.  The reschedule below
            # runs after it, so a callback may mutate kernel state.
            ev.payload(now)
        # End-of-instant: once no further event shares this timestamp,
        # the instant's state is final — deliver the completion reports.
        # (A job released at exactly t IS pending at t per Sec. 2, so
        # queue_empty must reflect same-instant releases; evaluating it
        # any earlier would let the monitor accept a non-idle instant as
        # a candidate.)
        nxt = self.engine.queue.peek_time()
        if self._phase_on:
            # Counts are exact; wall-clock is sampled every
            # (PHASE_SAMPLE_MASK+1)-th event so profiling stays inside
            # the <=2% overhead gate (bench_trace_overhead.py).  The
            # engine pop phase needs no bookkeeping here: its count IS
            # events_processed, flushed in _finalize.
            sample = (self.engine.events_processed & PHASE_SAMPLE_MASK) == 0
            if self._report_buffer and (nxt is None or nxt > now):
                self._ph_monitor += len(self._report_buffer)
                if sample:
                    t0 = perf_counter_ns()
                    self._flush_reports(now)
                    self._ph_monitor_ns += perf_counter_ns() - t0
                    self._ph_monitor_samples += 1
                else:
                    self._flush_reports(now)
            if sample:
                t0 = perf_counter_ns()
                self._reschedule(now)
                self._ph_dispatch_ns += perf_counter_ns() - t0
                self._ph_dispatch_samples += 1
            else:
                self._reschedule(now)
            return
        if self._report_buffer and (nxt is None or nxt > now):
            self._flush_reports(now)
        self._reschedule(now)

    def _finalize(self, now: float) -> None:
        if self._report_buffer:
            self._flush_reports(now)
        for proc in self.processors:
            proc.advance(now)
            if proc.current is not None:
                self._record_interval(
                    proc.cpu_id, proc.current, self._run_start[proc.cpu_id], now
                )
        for pool in (*self.jobs_a, *self.jobs_b, self.jobs_c, self.jobs_d):
            for job in pool:
                self.trace.record_job(job)
        self.metrics.counter("kernel.events").inc(self.engine.events_processed)
        self.metrics.counter("kernel.preemptions").inc(self.preemptions)
        self.metrics.counter("kernel.migrations").inc(self.migrations)
        if self._phase_on:
            self._flush_phases()

    def _flush_phases(self) -> None:
        """Surface the phase profile: this kernel's metrics + the global
        profiler (which the campaign telemetry stream samples).

        The reference kernel dispatches on every event, so its dispatch
        count equals the engine pop count; the soa backend's dirty-flag
        skip makes the two diverge there.
        """
        events = self.engine.events_processed
        for name, count, ns, samples in (
            ("engine_pop", events, 0, 0),
            ("dispatch", events, self._ph_dispatch_ns, self._ph_dispatch_samples),
            ("monitor", self._ph_monitor, self._ph_monitor_ns, self._ph_monitor_samples),
            ("timer_rearm", self._ph_rearm, self._ph_rearm_ns, self._ph_rearm_calls),
        ):
            self.metrics.counter(f"kernel.phase.{name}.count").inc(count)
            self.metrics.counter(f"kernel.phase.{name}.sampled_ns").inc(ns)
            self.metrics.counter(f"kernel.phase.{name}.samples").inc(samples)
            PHASE_PROFILER.add(name, count=count, ns=ns, samples=samples)

    # ------------------------------------------------------------------
    # Releases
    # ------------------------------------------------------------------
    def _on_release_timer(self, ev: Event, now: float) -> None:
        task_id = ev.payload
        if ev.generation != self._release_gen[task_id]:
            self._stale_releases -= 1
            return  # re-armed timer superseded this one (Algorithm 1 line 22)
        task = self.taskset[task_id]
        if task.level is CriticalityLevel.C:
            self._release_level_c(task, now)
        else:
            self._release_other(task, now)

    def _release_level_c(self, task: Task, now: float) -> None:
        # Algorithm 1 job_release(): r := now(); v(y) := act_to_virt(r)+Y; y := bottom.
        ctrl = self.controllers[task.task_id]
        index, v_r = ctrl.fire(self.clock, now)
        job = Job(
            task=task,
            index=index,
            release=now,
            exec_time=self.behavior.exec_time(task, index, now),
        )
        job.virtual_release = v_r
        assert task.relative_pp is not None
        job.virtual_pp = v_r + task.relative_pp
        job.actual_pp = None
        self.jobs_c.append(job)
        self._index_release(job)
        if self._trace_on:
            self._trace_release(job, now)
        self._notify_release(job, now)
        self._maybe_complete_zero(job, now)
        # schedule_pending_release() for the successor.
        nxt = ctrl.next_release_actual(self.clock, now)
        gen = self._release_gen[task.task_id]
        self.engine.push(
            Event(time=nxt, kind=EventKind.RELEASE, payload=task.task_id, generation=gen)
        )

    def _release_other(self, task: Task, now: float) -> None:
        ctrl = self.controllers[task.task_id]
        index, _ = ctrl.fire(self.clock, now)
        job = Job(
            task=task,
            index=index,
            release=now,
            exec_time=self.behavior.exec_time(task, index, now),
        )
        if task.level is CriticalityLevel.A:
            self.jobs_a[task.cpu].append(job)  # type: ignore[index]
        elif task.level is CriticalityLevel.B:
            job.deadline = now + task.period
            self.jobs_b[task.cpu].append(job)  # type: ignore[index]
        else:
            self.jobs_d.append(job)
        self._index_release(job)
        if self._trace_on:
            self._trace_release(job, now)
        self._maybe_complete_zero(job, now)
        nxt = ctrl.next_release_actual(self.clock, now)
        gen = self._release_gen[task.task_id]
        self.engine.push(
            Event(time=nxt, kind=EventKind.RELEASE, payload=task.task_id, generation=gen)
        )

    def _trace_release(self, job: Job, now: float) -> None:
        """Emit the job_release trace event (callers gate on _trace_on)."""
        self.tracer.emit(
            EventName.JOB_RELEASE,
            now,
            task=job.task.task_id,
            job=job.index,
            level=job.task.level.name,
            exec_time=job.exec_time,
            virtual_release=job.virtual_release,
            virtual_pp=job.virtual_pp,
        )

    def _maybe_complete_zero(self, job: Job, now: float) -> None:
        """Jobs with zero demand complete instantly without being scheduled."""
        if job.exec_time <= 0.0:
            self._complete_job(job, now)

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def _finish_running(self, proc: Processor, job: Job, now: float) -> None:
        """Complete *job*, currently running on *proc*, at *now*.

        Called from the exhausted-job pre-pass of :meth:`_handle`; the
        caller must have advanced *proc* to *now* first.
        """
        job.remaining = 0.0
        cpu = proc.cpu_id
        self._record_interval(cpu, job, self._run_start[cpu], now)
        proc.assign(None, now)
        job.running_on = None
        job.last_cpu = cpu
        job.generation += 1
        self._complete_job(job, now)

    def _on_completion(self, ev: Event, now: float) -> None:
        # Completions are actually performed in the advance pre-pass of
        # _handle (so they cannot lose a same-instant ordering race with
        # releases); the COMPLETION event only serves as the wakeup.  A
        # still-valid event whose job has remaining work can only arise
        # from float drift: deschedule and let the reschedule re-issue a
        # corrected completion event.
        job: Job = ev.payload
        if ev.generation != job.generation or job.running_on is None:
            return  # stale, or already completed by the pre-pass
        cpu = job.running_on
        proc = self.processors[cpu]
        proc.advance(now)
        if job.remaining > completion_eps(now):
            job.generation += 1
            self._record_interval(cpu, job, self._run_start[cpu], now)
            job.running_on = None
            job.last_cpu = cpu
            proc.assign(None, now)

    def _complete_job(self, job: Job, now: float) -> None:
        job.completion = now
        self._remove_job(job)
        level = job.task.level
        if level is CriticalityLevel.C:
            # Algorithm 1 job_complete() lines 10-12: resolve the actual PP
            # if the virtual PP already passed (Fig. 5(d) case; the (c) case
            # was handled by change_speed).
            virt = self.clock.act_to_virt(now)
            if job.actual_pp is None and job.virtual_pp is not None and job.virtual_pp < virt:
                job.actual_pp = self.clock.virt_to_act(job.virtual_pp)
            # The monitor report (including the queue_empty flag) is
            # delivered at end-of-instant, after every same-timestamp
            # event has been applied (see _handle / _flush_reports).
            self._report_buffer.append(job)
        self.trace.record_job(job)
        if self._trace_on:
            self.tracer.emit(
                EventName.JOB_COMPLETE,
                now,
                task=job.task.task_id,
                job=job.index,
                level=level.name,
                release=job.release,
                response=now - job.release,
                actual_pp=job.actual_pp,
            )

    def _flush_reports(self, now: float) -> None:
        """Deliver buffered completion reports with final instant state.

        The report's ``queue_empty`` flag carries Def. 3's "a processor
        idles at *t*" signal: in the settled end-of-instant state (all
        same-timestamp releases and completions applied, matching the
        pending semantics ``r <= t < t^c``), the CPUs claimed by pending
        level-A/B work plus the eligible (precedence-wise) level-C jobs
        leave at least one processor with nothing to run.  Merely "no
        eligible job waiting" is not enough: when a completion's freed
        CPU is immediately refilled from the queue, the queue drains
        while every processor stays busy, and such an instant must not
        become an idle-instant candidate (Def. 2 would not hold).
        """
        m = self.taskset.m
        busy_ab = sum(
            1 for cpu in range(m) if self.jobs_a[cpu] or self.jobs_b[cpu]
        )
        processor_idle = busy_ab + len(self._head_c) < m
        buffered, self._report_buffer = self._report_buffer, []
        for job in buffered:
            report = CompletionReport(
                task=job.task,
                job_index=job.index,
                release=job.release,
                actual_pp=job.actual_pp,
                comp_time=job.completion if job.completion is not None else now,
                queue_empty=processor_idle,
            )
            if self.config.monitor_latency > 0.0:
                self.engine.push(
                    Event(
                        time=report.comp_time + self.config.monitor_latency,
                        kind=EventKind.MONITOR_REPORT,
                        payload=("complete", report),
                    )
                )
            else:
                self.monitor.on_job_complete(report)

    def _remove_job(self, job: Job) -> None:
        level = job.task.level
        if level is CriticalityLevel.A:
            self.jobs_a[job.task.cpu].remove(job)  # type: ignore[index]
        elif level is CriticalityLevel.B:
            self.jobs_b[job.task.cpu].remove(job)  # type: ignore[index]
        elif level is CriticalityLevel.C:
            self.jobs_c.remove(job)
        else:
            self.jobs_d.remove(job)
        self._deindex_complete(job)

    # ------------------------------------------------------------------
    # Dispatch index bookkeeping (see __init__ for invariants)
    # ------------------------------------------------------------------
    def _index_release(self, job: Job) -> None:
        """Register a newly released job with the dispatch indexes."""
        task = job.task
        level = task.level
        if level is CriticalityLevel.A:
            heapq.heappush(
                self._heap_a[task.cpu],  # type: ignore[index]
                (task.period, task.task_id, job.index, job),
            )
        elif level is CriticalityLevel.B:
            assert job.deadline is not None
            heapq.heappush(
                self._heap_b[task.cpu],  # type: ignore[index]
                (job.deadline, task.task_id, job.index, job),
            )
        else:
            q = self._pending_cd[task.task_id]
            q.append(job)
            if q[0] is job:  # no earlier incomplete job: this is the head
                if level is CriticalityLevel.C:
                    self._head_c[task.task_id] = job
                    assert job.virtual_pp is not None
                    insort(
                        self._ready_c,
                        (job.virtual_pp, task.task_id, job.index, job),
                    )
                else:
                    self._head_d[task.task_id] = job

    def _deindex_complete(self, job: Job) -> None:
        """Drop a completed C/D job from the dispatch indexes.

        Level-A/B heap entries are not removed here; they are popped
        lazily when they surface at the top of their heap (their keys
        grow monotonically per task, so they cannot linger below newer
        entries forever).
        """
        level = job.task.level
        if level is not CriticalityLevel.C and level is not CriticalityLevel.D:
            return
        tid = job.task.task_id
        q = self._pending_cd[tid]
        heads = self._head_c if level is CriticalityLevel.C else self._head_d
        if q and q[0] is job:
            q.popleft()
            if level is CriticalityLevel.C:
                self._remove_ready_c(job, tid)
            if q:
                head = q[0]
                heads[tid] = head
                if level is CriticalityLevel.C:
                    assert head.virtual_pp is not None
                    insort(self._ready_c, (head.virtual_pp, tid, head.index, head))
            else:
                del heads[tid]
        elif q and q[-1] is job:
            # A zero-demand job completing at its own release instant
            # never became its task's head: drop it from the tail.
            q.pop()
        else:  # pragma: no cover - unreachable via kernel release paths
            q.remove(job)

    def _remove_ready_c(self, job: Job, tid: int) -> None:
        """Remove *job*'s (unique, immutable-keyed) ready-list entry."""
        entry = (job.virtual_pp, tid, job.index, job)
        pos = bisect_left(self._ready_c, entry)
        # (virtual_pp, tid, idx) is unique per job, so the probe lands
        # exactly on the entry; tuple comparison never reaches the Job
        # element (which has identity equality only).
        assert self._ready_c[pos][3] is job
        del self._ready_c[pos]

    def _top_ready_c(self, k: int) -> List[Job]:
        """The up-to-*k* highest-priority level-C heads, ascending.

        The ready list is exact (one entry per head, eagerly removed on
        head change), so the top-k peek is a slice — no validity checks,
        no heap churn.
        """
        return [entry[3] for entry in self._ready_c[:k]]

    # ------------------------------------------------------------------
    # Monitor plumbing
    # ------------------------------------------------------------------
    def _notify_release(self, job: Job, now: float) -> None:
        if self.config.monitor_latency > 0.0:
            self.engine.push(
                Event(
                    time=now + self.config.monitor_latency,
                    kind=EventKind.MONITOR_REPORT,
                    payload=("release", job.jid),
                )
            )
        else:
            self.monitor.on_job_release(job.jid)

    def _deliver_report(self, payload: Tuple[str, object], now: float) -> None:
        kind, data = payload
        if kind == "release":
            self.monitor.on_job_release(data)  # type: ignore[arg-type]
        else:
            self.monitor.on_job_complete(data)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # The plug-in seam (rely/guarantee contract: repro.sim.backend)
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether :meth:`start` ran; ``clock`` and ``monitor`` are fixed from then on."""
        return self._started

    def schedule_callback(self, t: float, fn: Callable[[float], None]) -> None:
        """Call ``fn(t)`` at time *t* (a ``CALLBACK`` event); a dispatch follows it."""
        self.engine.push(Event(time=t, kind=EventKind.CALLBACK, payload=fn))

    def inject_pinned_job(self, task: Task, exec_time: float) -> None:
        """Release a job of the synthetic level-A *task* at the current time.

        The job competes from this instant under the level-A RM order,
        like a timer-driven release (see :func:`check_pinned_job`).
        """
        check_pinned_job(self.taskset, task, exec_time)
        now = self.engine.now
        index = self._injected.get(task.task_id, 0)
        self._injected[task.task_id] = index + 1
        job = Job(task=task, index=index, release=now, exec_time=exec_time)
        self.jobs_a[task.cpu].append(job)  # type: ignore[index]
        self._index_release(job)
        if self._trace_on:
            self._trace_release(job, now)

    # ------------------------------------------------------------------
    # The change_speed system call (Algorithm 1 lines 14-22)
    # ------------------------------------------------------------------
    def change_speed(self, new_speed: float) -> None:
        """Install a new virtual-clock speed now; called by the monitor.

        The system call reads the kernel's clock (Algorithm 1 line 14):
        a report delivered late changes the speed when it arrives.
        """
        if not self.config.use_virtual_time:
            raise RuntimeError("change_speed requires use_virtual_time=True")
        if self.config.measure_overhead:
            with self.spans.span("change_speed"):
                self._change_speed(new_speed)
        else:
            self._change_speed(new_speed)

    def _change_speed(self, new_speed: float) -> None:
        assert isinstance(self.clock, VirtualClock)
        now = self.engine.now
        virt = self.clock.act_to_virt(now)  # lines 14-15
        for job in self.jobs_c:  # lines 16-17
            if job.actual_pp is None and job.virtual_pp is not None and job.virtual_pp < virt:
                job.actual_pp = self.clock.virt_to_act(job.virtual_pp)
        self.clock.change_speed(new_speed, now)  # lines 18-20
        self.trace.record_speed_change(now, new_speed)
        if self._trace_on:
            self.tracer.emit(EventName.SPEED_CHANGE, now, speed=new_speed)
        # Lines 21-22: re-arm every pending level-C release timer.
        # Speed changes are rare (a handful per recovery episode), so
        # the phase profile times every re-arm pass in full.
        t0 = perf_counter_ns() if self._phase_on else 0
        stale_before = self._stale_releases
        for t in self.taskset.level(CriticalityLevel.C):
            self._release_gen[t.task_id] += 1
            gen = self._release_gen[t.task_id]
            ctrl = self.controllers[t.task_id]
            nxt = ctrl.next_release_actual(self.clock, now)
            self.engine.push(
                Event(time=nxt, kind=EventKind.RELEASE, payload=t.task_id, generation=gen)
            )
            self._stale_releases += 1
        if self._phase_on:
            self._ph_rearm_ns += perf_counter_ns() - t0
            self._ph_rearm += self._stale_releases - stale_before
            self._ph_rearm_calls += 1
        if self._stale_releases > COMPACT_STALE_RATIO * len(self.taskset):
            self._compact_release_timers()

    def _compact_release_timers(self) -> None:
        """Drop superseded release-timer entries from the event heap.

        Generation-stamped cancellation leaves each re-armed timer's old
        entry in the heap until it pops; when speed changes re-arm
        timers faster than the dead entries drain (slow virtual speeds
        push re-armed fire times far out while the dead entries' times
        recede into the past only as fast as simulated time advances),
        the heap — and the event count spent discarding stale pops —
        grows with every recovery episode.  Filtering them out here
        keeps the heap at O(live timers).  Survivors keep their original
        keys, so the pop order of everything else is untouched.
        """
        gens = self._release_gen
        self.engine.queue.compact(
            lambda ev: ev.kind is EventKind.RELEASE
            and ev.generation != gens[ev.payload]
        )
        self._stale_releases = 0

    # ------------------------------------------------------------------
    # Dispatching (MC² architecture, Fig. 1)
    # ------------------------------------------------------------------
    def _reschedule(self, now: float) -> None:
        if self.config.measure_overhead:
            with self.spans.span("pick_next"):
                self._pick_next(now)
        else:
            self._pick_next(now)

    def _pick_next(self, now: float) -> None:
        """Index-backed dispatch: O(m + k log n) per event.

        Level-A RM and level-B EDF minima come from per-CPU lazy heaps,
        the level-C GEL-v top-k from the sorted ready list, and placement
        is the migration-averse :func:`place_gel_jobs` pass.  The result
        must equal what the per-level policies of :mod:`repro.schedulers`
        select from the whole job pools;
        :func:`repro.sim.diffcheck.check_dispatches` asserts that before
        a differential run applies each assignment.
        """
        m = self.taskset.m
        assignment: List[Optional[Job]] = [None] * m
        free: List[int] = []
        heaps_a, heaps_b = self._heap_a, self._heap_b
        for p in range(m):
            heap = heaps_a[p]
            while heap and heap[0][3].completion is not None:
                heapq.heappop(heap)  # lazily drop completed entries
            if not heap:
                heap = heaps_b[p]
                while heap and heap[0][3].completion is not None:
                    heapq.heappop(heap)
            if heap:
                assignment[p] = heap[0][3]
            else:
                free.append(p)
        if free and self._ready_c:
            chosen = self._top_ready_c(len(free))
            for cpu, job in place_gel_jobs(chosen, free).items():
                assignment[cpu] = job
        left = [p for p in range(m) if assignment[p] is None]
        if left and self._head_d:
            self._dispatch_level_d(assignment, left)
        self._apply_assignment(assignment, now)

    def _dispatch_level_d(self, assignment: List[Optional[Job]], left: List[int]) -> None:
        """Fill leftover CPUs with best-effort level-D heads (in place).

        Keeps running D jobs where they are, then fills FIFO; the result
        does not depend on the head registry's iteration order (the FIFO
        key is unique per job).
        """
        pool = [
            j for j in self._head_d.values() if j.running_on is None or j.running_on in left
        ]
        for p in left:
            cur = self.processors[p].current
            if cur is not None and cur in pool:
                assignment[p] = cur
                pool.remove(cur)
        for p in left:
            if assignment[p] is None and pool:
                nxt = pick_best_effort(pool)
                assignment[p] = nxt
                pool.remove(nxt)  # type: ignore[arg-type]

    def _apply_assignment(self, assignment: Sequence[Optional[Job]], now: float) -> None:
        eps = completion_eps(now)
        # Pass 1: stop jobs that lost their CPU (or must migrate).
        for p, proc in enumerate(self.processors):
            old = proc.current
            new = assignment[p]
            if old is new:
                continue
            if old is not None:
                proc.advance(now)  # no-op unless lazily deferred
                self._record_interval(p, old, self._run_start[p], now)
                old.generation += 1
                old.running_on = None
                old.last_cpu = p
                proc.assign(None, now)
                if old.remaining > eps:
                    self.preemptions += 1
                    if self._trace_on:
                        self.tracer.emit(
                            EventName.JOB_PREEMPT, now,
                            task=old.task.task_id, job=old.index, cpu=p,
                        )
        # Pass 2: start newly placed jobs and schedule their completions.
        for p, proc in enumerate(self.processors):
            new = assignment[p]
            if new is None or proc.current is new:
                continue
            if new.running_on is not None:
                # Migrating without a pause: close the old interval.
                old_cpu = new.running_on
                self.processors[old_cpu].advance(now)  # no-op unless deferred
                self._record_interval(old_cpu, new, self._run_start[old_cpu], now)
                self.processors[old_cpu].assign(None, now)
                new.generation += 1
            if new.last_cpu is not None and new.last_cpu != p:
                self.migrations += 1
                if self._trace_on:
                    self.tracer.emit(
                        EventName.JOB_MIGRATE, now,
                        task=new.task.task_id, job=new.index,
                        from_cpu=new.last_cpu, to_cpu=p,
                    )
            proc.assign(new, now)
            new.running_on = p
            new.last_cpu = p
            self._run_start[p] = now
            self.engine.push(
                Event(
                    time=now + new.remaining,
                    kind=EventKind.COMPLETION,
                    payload=new,
                    generation=new.generation,
                )
            )

    def _record_interval(self, cpu: int, job: Job, start: float, end: float) -> None:
        """Close one execution interval: in-memory trace + event stream.

        The tracer sees intervals whenever tracing is on, independently
        of ``record_intervals`` (which gates only the in-memory copy);
        both apply the same empty-interval filter, so with both enabled
        the counts match exactly.
        """
        self.trace.record_interval(cpu, job, start, end)
        if self._trace_on and end > start:
            self.tracer.emit(
                EventName.EXEC_INTERVAL,
                end,
                cpu=cpu,
                task=job.task.task_id,
                job=job.index,
                start=start,
                end=end,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    @property
    def events_processed(self) -> int:
        """Events handled so far (backend-neutral; see also ``engine``)."""
        return self.engine.events_processed

    def pending_c_released_before(self, end: float) -> bool:
        """True if any incomplete level-C job was released before *end*.

        Backend-neutral accessor for settling predicates (the SoA
        backend has no ``Job`` objects to iterate).  O(1): ``jobs_c`` is
        in release order (see ``__init__``).
        """
        jobs_c = self.jobs_c
        return bool(jobs_c) and jobs_c[0].release < end

    @property
    def sched_overheads(self) -> List[int]:
        """Scheduler-invocation wall-clock samples in ns (Fig. 9).

        Backed by the metrics registry's span histograms
        (``kernel.pick_next.ns`` + ``kernel.change_speed.ns``); populated
        only when ``config.measure_overhead`` is set.
        """
        return [
            int(v)
            for name in ("kernel.pick_next.ns", "kernel.change_speed.ns")
            for v in self.metrics.histogram(name).samples
        ]

    def pending_level_c(self) -> List[Job]:
        """Incomplete released level-C jobs (the kernel's pending set)."""
        return list(self.jobs_c)


def simulate(
    taskset: TaskSet,
    until: float,
    behavior: Optional[ExecutionBehavior] = None,
    monitor_factory: Optional[Callable[[MC2Kernel], Monitor]] = None,
    config: Optional[KernelConfig] = None,
    stop: Optional[Callable[[MC2Kernel, Monitor], bool]] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[Trace, MC2Kernel, Monitor]:
    """Convenience wrapper: build a kernel, attach a monitor, run.

    Parameters
    ----------
    taskset, until, behavior, config, tracer:
        Passed through to the kernel backend selected by
        ``config.backend`` (default ``"reference"``).
    monitor_factory:
        ``kernel -> Monitor``; defaults to a :class:`NullMonitor`.
    stop:
        Optional early-exit predicate ``(kernel, monitor) -> bool``.

    Returns
    -------
    (trace, kernel, monitor)
    """
    from repro.sim.backend import create_kernel

    kernel = create_kernel(taskset, behavior=behavior, config=config, tracer=tracer)
    monitor = monitor_factory(kernel) if monitor_factory else NullMonitor(kernel)
    kernel.attach_monitor(monitor)
    pred = (lambda: stop(kernel, monitor)) if stop else None
    trace = kernel.run(until, stop=pred)
    return trace, kernel, monitor
