"""Struct-of-arrays kernel backend: the simulator's hot path.

:class:`SoAKernel` is a drop-in replacement for
:class:`~repro.sim.kernel.MC2Kernel` (selected via
``KernelConfig.backend = "soa"``, see :mod:`repro.sim.backend`) that
trades the reference kernel's per-job/per-event Python objects for flat
parallel arrays and a fused event loop:

* **Struct-of-arrays job records.**  A job is an integer *slot* into
  parallel columns (``j_rel``, ``j_rem``, ``j_gen``, ...).  Slots are
  append-only for the lifetime of a run — the per-CPU lazy heaps keep
  ``(key..., slot)`` entries that must never alias a recycled slot.
* **Pooled event slots.**  Heap entries are ``(time, kind<<50 | seq,
  slot)`` tuples of primitives; the kind/seq packing reproduces the
  reference queue's ``(time, kind, seq)`` total order exactly, and the
  payload columns (``_ev_a``/``_ev_gen``/``_ev_obj``) are recycled
  through a free list instead of allocating an ``Event`` per push.
* **A fused engine + handler loop.**  One ``while`` loop replaces the
  Engine/handler/dispatcher call chain, with every per-event structure
  bound to a local.  Dispatch is additionally skipped when no event
  since the last dispatch mutated any dispatch input (stale pops and
  monitor deliveries cannot change the assignment), which is
  observationally invisible.
* **Batched timer coalescing.**  Re-armed release timers are
  generation-invalidated in bulk (one counter bump per task per speed
  change) and the superseded heap entries are compacted away at the
  same threshold as the reference backend
  (:data:`repro.sim.kernel.COMPACT_STALE_RATIO`), keeping event counts
  aligned between backends.

The behavioural contract is **byte identity**: every observable —
job-record order and values, execution intervals, speed changes,
preemption/migration counts, processed-event counts, monitor state —
must match the reference backend bit for bit.  The diffcheck property
suite and the golden-fingerprint corpus enforce this; see DESIGN.md
"Kernel backends" for the invariants that keep it true.  Columns are
plain Python lists (not ``array``/numpy): unboxed-element access from
the interpreter is faster than ``array``'s box-on-getitem, and numpy
round-trips would change float identities on the hot comparisons.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import deque
from time import perf_counter_ns
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.monitor import CompletionReport, Monitor, NullMonitor
from repro.core.svo import ReleaseController
from repro.core.virtual_time import VirtualClock
from repro.model.behavior import ConstantBehavior, ExecutionBehavior
from repro.model.task import CriticalityLevel, Task
from repro.model.taskset import TaskSet
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTimer
from repro.obs.telemetry import PHASE_PROFILER, PHASE_SAMPLE_MASK
from repro.obs.tracer import NULL_TRACER, EventName, Tracer
from repro.sim import kernel as _kernel_mod
from repro.sim.kernel import KernelConfig, _IdentityClock, check_pinned_job
from repro.sim.trace import Trace

__all__ = ["SoAKernel"]

#: Bit position of the event kind inside the packed heap key.  seq is a
#: monotone per-kernel push counter; 2**50 pushes (~1e15) is out of
#: reach, so ``kind << 50 | seq`` orders exactly like ``(kind, seq)``.
_KS = 50

_INF = float("inf")

_RELEASE = 0
_COMPLETION = 1
_MONITOR_REPORT = 2
_CALLBACK = 3
_END = 4

_LEVEL_CODE = {
    CriticalityLevel.A: 0,
    CriticalityLevel.B: 1,
    CriticalityLevel.C: 2,
    CriticalityLevel.D: 3,
}


class SoAKernel:
    """Flat-array MC² kernel, trace-identical to the reference backend."""

    def __init__(
        self,
        taskset: TaskSet,
        behavior: Optional[ExecutionBehavior] = None,
        config: Optional[KernelConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.taskset = taskset
        self.behavior: ExecutionBehavior = (
            behavior if behavior is not None else ConstantBehavior()
        )
        self.config = config if config is not None else KernelConfig()
        self.trace = Trace(record_intervals=self.config.record_intervals)
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_on = self.tracer.enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = SpanTimer(self.metrics, prefix="kernel")
        # Phase profiling (repro.obs.telemetry): process-global toggle
        # read once, like _trace_on.  Counts ride on fused-loop locals;
        # wall-clock is sampled every (PHASE_SAMPLE_MASK+1)-th event.
        self._phase_on = PHASE_PROFILER.enabled
        self._ph_dispatch = 0
        self._ph_dispatch_ns = 0
        self._ph_dispatch_samples = 0
        self._ph_monitor = 0
        self._ph_monitor_ns = 0
        self._ph_monitor_samples = 0
        self._ph_rearm = 0
        self._ph_rearm_ns = 0
        self._ph_rearm_calls = 0
        self.monitor: Monitor = NullMonitor(self)
        if self.config.use_virtual_time:
            self.clock: VirtualClock | _IdentityClock = VirtualClock(0.0)
        else:
            self.clock = _IdentityClock()

        m = taskset.m
        self._m = m
        self._cpus: Tuple[int, ...] = tuple(range(m))

        # Per-task constant columns (dict-keyed: task ids are sparse).
        self._task_of = {t.task_id: t for t in taskset}
        self._level_of = {t.task_id: t.level for t in taskset}
        self._level_code = {t.task_id: _LEVEL_CODE[t.level] for t in taskset}
        self._cpu_of = {t.task_id: t.cpu for t in taskset}
        self._period_of = {t.task_id: t.period for t in taskset}
        self._rel_pp = {t.task_id: t.relative_pp for t in taskset}

        # Job columns (slot = append-only index; see module docstring).
        self.j_tid: List[int] = []
        self.j_idx: List[int] = []
        self.j_rel: List[float] = []
        self.j_exec: List[float] = []
        self.j_rem: List[float] = []
        self.j_vrel: List[Optional[float]] = []
        self.j_vpp: List[Optional[float]] = []
        self.j_app: List[Optional[float]] = []
        self.j_comp: List[Optional[float]] = []
        self.j_run: List[int] = []  # CPU running the job, -1 if none
        self.j_last: List[int] = []  # CPU the job last ran on, -1 if never
        self.j_gen: List[int] = []  # scheduling generation stamp

        # Per-CPU columns (Processor's fields, flattened).
        self._cur: List[int] = [-1] * m
        self._since: List[float] = [0.0] * m
        self._anch_t: List[float] = [0.0] * m
        self._anch_r: List[float] = [0.0] * m
        self._run_start: List[float] = [0.0] * m

        # Per-level pools of incomplete released job slots.
        self.jobs_a: List[List[int]] = [[] for _ in range(m)]
        self.jobs_b: List[List[int]] = [[] for _ in range(m)]
        # jobs_c is appended at release (time never decreases) and only
        # ever loses entries, so it stays in release order; its first
        # entry is the earliest-released pending level-C job.
        self.jobs_c: List[int] = []
        self.jobs_d: List[int] = []

        # Dispatch indexes — same invariants as MC2Kernel's (see its
        # __init__ comment), with slots in place of Job references.
        self._pending_cd: Dict[int, Deque[int]] = {
            t.task_id: deque()
            for t in taskset
            if t.level is CriticalityLevel.C or t.level is CriticalityLevel.D
        }
        self._head_c: Dict[int, int] = {}
        self._head_d: Dict[int, int] = {}
        self._ready_c: List[Tuple[float, int, int, int]] = []
        self._heap_a: List[List[Tuple[float, int, int, int]]] = [
            [] for _ in range(m)
        ]
        self._heap_b: List[List[Tuple[float, int, int, int]]] = [
            [] for _ in range(m)
        ]

        # Pooled event slots + packed heap.
        self._heap: List[Tuple[float, int, int]] = []
        self._ev_a: List[int] = []
        self._ev_gen: List[int] = []
        self._ev_obj: List[object] = []
        self._ev_free: List[int] = []
        self._seq = 0

        # Release bookkeeping.
        self.controllers: Dict[int, ReleaseController] = {}
        self._release_gen: Dict[int, int] = {}
        self._stale_releases = 0

        self._report_buffer: List[int] = []
        #: Jobs injected so far per synthetic task (the next job index).
        self._injected: Dict[int, int] = {}
        self.preemptions = 0
        self.migrations = 0
        self.events_processed = 0
        self._now = 0.0
        self._run_gen = 0
        self._latency = self.config.monitor_latency
        self._measure = self.config.measure_overhead
        self._rec_enabled = self.config.record_intervals or self._trace_on
        #: Reused assignment buffer (the reference allocates per event;
        #: the contents are fully rewritten before each use).
        self._assign_buf: List[int] = [-1] * m
        #: Cached per-CPU A/B pick: the top A (else top B) job slot, -1
        #: when that CPU has no A/B work.  Only an A/B release or
        #: completion on a CPU can change its pick, so those paths mark
        #: the CPU stale and _dispatch rescans just the stale ones.
        self._ab_top: List[int] = [-1] * m
        self._ab_stale: List[bool] = [True] * m
        #: CPUs whose _ab_top needs a rescan (each appears at most once;
        #: the bool list guards duplicates and gives O(1) membership).
        self._ab_stale_cpus: List[int] = list(range(m))
        #: Cached CPUs with no A/B work (ascending); None = recompute.
        self._ab_free: Optional[List[int]] = None
        #: Lower bound on the earliest instant any running job can have
        #: exhausted its budget: min over busy CPUs of anchor_time +
        #: anchor_remaining.  May be stale-low after a deschedule (that
        #: only costs a wasted scan, never a missed completion); the
        #: per-event completion pre-pass is skipped while now is clearly
        #: before this bound.
        self._next_done: float = float("inf")
        #: Pre-bound append methods for the job columns (the columns are
        #: append-only and never rebound, so binding once is safe); this
        #: trims two lookups per column from the per-release hot path.
        self._ap_tid = self.j_tid.append
        self._ap_idx = self.j_idx.append
        self._ap_rel = self.j_rel.append
        self._ap_exec = self.j_exec.append
        self._ap_rem = self.j_rem.append
        self._ap_vrel = self.j_vrel.append
        self._ap_vpp = self.j_vpp.append
        self._ap_app = self.j_app.append
        self._ap_comp = self.j_comp.append
        self._ap_run = self.j_run.append
        self._ap_last = self.j_last.append
        self._ap_gen = self.j_gen.append
        #: Job records are trace rows (repro.sim.trace), one per job.
        self._job_row = self.trace.job_rows.append
        #: Whether any dispatch input changed since the last dispatch.
        self._dirty = True
        self._started = False
        self._finished = False

    # ------------------------------------------------------------------
    # Setup / lifecycle (mirrors MC2Kernel)
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
            self._push_event(first, _RELEASE, t.task_id, 0, None, self._now)

    def start(self) -> None:
        """Arm the initial release timers (idempotent)."""
        if not self._started:
            self._started = True
            self._arm_initial_releases()

    def finish(self) -> Trace:
        """Close the trace (record still-running intervals and incomplete jobs)."""
        if not self._finished:
            self._finished = True
            self._finalize(self._now)
        return self.trace

    def run(
        self, until: float, stop: Optional[Callable[[], bool]] = None
    ) -> Trace:
        """Convenience: :meth:`run_until` one segment, then :meth:`finish`."""
        self.run_until(until, stop)
        return self.finish()

    # ------------------------------------------------------------------
    # The fused event loop (Engine.run + MC2Kernel._handle in one frame)
    # ------------------------------------------------------------------
    def run_until(
        self, until: float, stop: Optional[Callable[[], bool]] = None
    ) -> float:
        """Simulate up to *until* (or until *stop* fires); resumable."""
        self.start()
        if self._finished:
            raise RuntimeError("cannot resume a finished kernel")
        self._run_gen += 1
        run_gen = self._run_gen
        now = self._now
        self._push_event(until, _END, -1, run_gen, None, now)
        heap = self._heap
        heappop_ = heapq.heappop
        heappush_ = heapq.heappush
        ev_a = self._ev_a
        ev_gen = self._ev_gen
        ev_obj = self._ev_obj
        ev_free = self._ev_free
        cur = self._cur
        since = self._since
        anch_t = self._anch_t
        anch_r = self._anch_r
        run_start = self._run_start
        j_rem = self.j_rem
        j_gen = self.j_gen
        j_run = self.j_run
        j_last = self.j_last
        release_gen = self._release_gen
        cpus = self._cpus
        rec = self._rec_enabled
        measure = self._measure
        monitor = self.monitor
        events = self.events_processed
        phase_on = self._phase_on
        ph_dispatch = 0
        ph_dispatch_ns = 0
        ph_dispatch_samples = 0
        while heap:
            entry = heappop_(heap)
            time = entry[0]
            if time > until:
                # Put it back for a later run segment (fresh seq, like
                # the reference queue's re-push).
                seq = self._seq
                self._seq = seq + 1
                heappush_(heap, (time, ((entry[1] >> _KS) << _KS) | seq, entry[2]))
                now = until
                break
            tol = now * 1e-15  # inlined engine.past_tolerance(now)
            if tol < 1e-12:
                tol = 1e-12
            if time < now - tol:
                raise RuntimeError(f"event at {time} precedes now={now}")
            if time > now:
                now = time
            key = entry[1]
            slot = entry[2]
            kind = key >> _KS
            if kind == _END:
                gen = ev_gen[slot]
                ev_obj[slot] = None
                ev_free.append(slot)
                if gen == run_gen:
                    break
                continue  # stale END from an interrupted earlier segment
            events += 1
            self._now = now
            self.events_processed = events
            eps = now * 1e-15  # inlined kernel.completion_eps(now)
            if eps < 1e-9:
                eps = 1e-9
            # Same-instant completion pre-pass (MC2Kernel._handle): a
            # release at this instant must not preempt a job with zero
            # remaining work.  Skipped while now is clearly before the
            # earliest possible budget exhaustion; the 1e-6 margin
            # dominates the rounding difference between the bound's
            # anch_t + anch_r and the exact per-CPU expression below.
            if self._next_done <= now + eps + 1e-6:
                nd = _INF
                for p in cpus:
                    js = cur[p]
                    if js >= 0:
                        if anch_r[p] - (now - anch_t[p]) <= eps:
                            j_rem[js] = 0.0
                            if rec:
                                self._record_interval(p, js, run_start[p], now)
                            cur[p] = -1
                            since[p] = now
                            anch_t[p] = now
                            anch_r[p] = 0.0
                            j_run[js] = -1
                            j_last[js] = p
                            j_gen[js] += 1
                            self._complete_job(js, now)
                        else:
                            d = anch_t[p] + anch_r[p]
                            if d < nd:
                                nd = d
                self._next_done = nd
            if kind == _RELEASE:
                tid = ev_a[slot]
                gen = ev_gen[slot]
                ev_free.append(slot)
                if gen != release_gen[tid]:
                    self._stale_releases -= 1
                else:
                    self._do_release(tid, now)
            elif kind == _COMPLETION:
                js = ev_a[slot]
                gen = ev_gen[slot]
                ev_free.append(slot)
                p = j_run[js]
                if p >= 0 and gen == j_gen[js]:
                    # Still valid but with remaining work: float drift.
                    # Deschedule; the next dispatch re-issues a corrected
                    # completion event (MC2Kernel._on_completion).
                    if now != since[p]:
                        r = anch_r[p] - (now - anch_t[p])
                        j_rem[js] = r if r > 0.0 else 0.0
                    since[p] = now
                    if j_rem[js] > eps:
                        j_gen[js] += 1
                        if rec:
                            self._record_interval(p, js, run_start[p], now)
                        j_run[js] = -1
                        j_last[js] = p
                        cur[p] = -1
                        anch_t[p] = now
                        anch_r[p] = 0.0
                        self._dirty = True
            elif kind == _MONITOR_REPORT:
                payload = ev_obj[slot]
                ev_obj[slot] = None
                ev_free.append(slot)
                tag, data = payload  # type: ignore[misc]
                if tag == "release":
                    monitor.on_job_release(data)
                else:
                    monitor.on_job_complete(data)
            else:  # _CALLBACK
                cb = ev_obj[slot]
                ev_obj[slot] = None
                ev_free.append(slot)
                cb(now)  # type: ignore[operator]
                self._dirty = True
            # End-of-instant: deliver completion reports once no further
            # event shares this timestamp.
            if self._report_buffer and (not heap or heap[0][0] > now):
                if phase_on:
                    self._ph_monitor += len(self._report_buffer)
                    if events & PHASE_SAMPLE_MASK == 0:
                        t0 = perf_counter_ns()
                        self._flush_reports(now)
                        self._ph_monitor_ns += perf_counter_ns() - t0
                        self._ph_monitor_samples += 1
                    else:
                        self._flush_reports(now)
                else:
                    self._flush_reports(now)
            # Dispatch — skipped when provably a no-op: no mutation of a
            # dispatch input (pools, indexes, run state) since the last
            # dispatch means the same assignment, and re-applying an
            # unchanged assignment has no observable effect.  Speed
            # changes don't set the flag: they alter neither selection
            # keys (virtual PPs are fixed at release) nor run state.
            if self._dirty or measure:
                self._dirty = False
                if measure:
                    with self.spans.span("pick_next"):
                        self._dispatch(now, eps)
                elif phase_on:
                    ph_dispatch += 1
                    if events & PHASE_SAMPLE_MASK == 0:
                        t0 = perf_counter_ns()
                        self._dispatch(now, eps)
                        ph_dispatch_ns += perf_counter_ns() - t0
                        ph_dispatch_samples += 1
                    else:
                        self._dispatch(now, eps)
                else:
                    self._dispatch(now, eps)
            if stop is not None and stop():
                break
        self._now = now
        self.events_processed = events
        if phase_on:
            self._ph_dispatch += ph_dispatch
            self._ph_dispatch_ns += ph_dispatch_ns
            self._ph_dispatch_samples += ph_dispatch_samples
        # Between-segment advance (MC2Kernel.run_until): bring lazily
        # advanced run state up to date for outside inspection.
        for p in cpus:
            js = cur[p]
            if js >= 0 and now != since[p]:
                r = anch_r[p] - (now - anch_t[p])
                j_rem[js] = r if r > 0.0 else 0.0
            since[p] = now
        return now

    # ------------------------------------------------------------------
    # Event-slot pool
    # ------------------------------------------------------------------
    def _push_event(
        self, time: float, kind: int, a: int, gen: int, obj: object, now: float
    ) -> None:
        tol = now * 1e-15
        if tol < 1e-12:
            tol = 1e-12
        if time < now - tol:
            raise ValueError(f"cannot schedule event at {time}; now is {now}")
        free = self._ev_free
        if free:
            slot = free.pop()
            self._ev_a[slot] = a
            self._ev_gen[slot] = gen
            self._ev_obj[slot] = obj
        else:
            slot = len(self._ev_a)
            self._ev_a.append(a)
            self._ev_gen.append(gen)
            self._ev_obj.append(obj)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, (kind << _KS) | seq, slot))

    # ------------------------------------------------------------------
    # Releases
    # ------------------------------------------------------------------
    def _do_release(self, tid: int, now: float) -> None:
        # Dirty is set selectively below: only a release that changes a
        # dispatch input (a new A/B per-CPU top, a new C/D task head)
        # can alter the assignment the dispatcher would compute.
        ctrl = self.controllers[tid]
        clock = self.clock
        index, v_r = ctrl.fire(clock, now)
        task = self._task_of[tid]
        exec_time = self.behavior.exec_time(task, index, now)
        if exec_time < 0:
            raise ValueError(f"exec_time must be >= 0, got {exec_time}")
        js = len(self.j_tid)
        self._ap_tid(tid)
        self._ap_idx(index)
        self._ap_rel(now)
        self._ap_exec(exec_time)
        self._ap_rem(exec_time)
        self._ap_comp(None)
        self._ap_run(-1)
        self._ap_last(-1)
        self._ap_gen(0)
        level = self._level_code[tid]
        if level == 2:
            rel_pp = self._rel_pp[tid]
            assert rel_pp is not None
            vpp = v_r + rel_pp
            self._ap_vrel(v_r)
            self._ap_vpp(vpp)
            self._ap_app(None)
            self.jobs_c.append(js)
            q = self._pending_cd[tid]
            q.append(js)
            if q[0] == js:
                self._head_c[tid] = js
                insort(self._ready_c, (vpp, tid, index, js))
                self._dirty = True
            if self._trace_on:
                self._trace_release(tid, index, exec_time, v_r, vpp, now)
            if self._latency > 0.0:
                self._push_event(
                    now + self._latency,
                    _MONITOR_REPORT,
                    -1,
                    0,
                    ("release", (tid, index)),
                    now,
                )
            else:
                self.monitor.on_job_release((tid, index))
            if exec_time <= 0.0:
                self._complete_job(js, now)
        else:
            self._ap_vrel(None)
            self._ap_vpp(None)
            self._ap_app(None)
            if level == 0:
                cpu = self._cpu_of[tid]
                self.jobs_a[cpu].append(js)
                heap = self._heap_a[cpu]
                heapq.heappush(heap, (self._period_of[tid], tid, index, js))
                # The pick for this CPU changes only if the new job took
                # the top; when the cache is valid the heap top is live
                # (tops are cleaned at scan and completions mark stale),
                # so the comparison is exact.
                if self._ab_stale[cpu]:
                    self._dirty = True
                else:
                    top = heap[0][3]
                    if top != self._ab_top[cpu]:
                        if self._ab_top[cpu] == -1:
                            self._ab_free = None
                        self._ab_top[cpu] = top
                        self._dirty = True
            elif level == 1:
                cpu = self._cpu_of[tid]
                deadline = now + self._period_of[tid]
                self.jobs_b[cpu].append(js)
                heap = self._heap_b[cpu]
                heapq.heappush(heap, (deadline, tid, index, js))
                if self._ab_stale[cpu]:
                    self._dirty = True
                elif not self._heap_a[cpu]:
                    # No level-A work (a valid cache implies a non-empty
                    # A heap has a live top that outranks any B job).
                    top = heap[0][3]
                    if top != self._ab_top[cpu]:
                        if self._ab_top[cpu] == -1:
                            self._ab_free = None
                        self._ab_top[cpu] = top
                        self._dirty = True
            else:
                self.jobs_d.append(js)
                q = self._pending_cd[tid]
                q.append(js)
                if q[0] == js:
                    self._head_d[tid] = js
                    self._dirty = True
            if self._trace_on:
                self._trace_release(tid, index, exec_time, None, None, now)
            if exec_time <= 0.0:
                self._complete_job(js, now)
        # schedule_pending_release() for the successor (inlined
        # _push_event; SVO guarantees the point is not in the past).
        nxt = ctrl.next_release_actual(clock, now)
        ev_free = self._ev_free
        if ev_free:
            slot = ev_free.pop()
            self._ev_a[slot] = tid
            self._ev_gen[slot] = self._release_gen[tid]
            self._ev_obj[slot] = None
        else:
            slot = len(self._ev_a)
            self._ev_a.append(tid)
            self._ev_gen.append(self._release_gen[tid])
            self._ev_obj.append(None)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (nxt, (_RELEASE << _KS) | seq, slot))

    def _trace_release(
        self,
        tid: int,
        index: int,
        exec_time: float,
        v_r: Optional[float],
        vpp: Optional[float],
        now: float,
    ) -> None:
        self.tracer.emit(
            EventName.JOB_RELEASE,
            now,
            task=tid,
            job=index,
            level=self._level_of[tid].name,
            exec_time=exec_time,
            virtual_release=v_r,
            virtual_pp=vpp,
        )

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def _complete_job(self, js: int, now: float) -> None:
        self._dirty = True
        self.j_comp[js] = now
        tid = self.j_tid[js]
        level = self._level_code[tid]
        if level == 2:
            self.jobs_c.remove(js)
            self._deindex_cd(js, tid, self._head_c, True)
            # Algorithm 1 job_complete() lines 10-12 (Fig. 5(d) case).
            clock = self.clock
            virt = clock.act_to_virt(now)
            vpp = self.j_vpp[js]
            if self.j_app[js] is None and vpp < virt:  # type: ignore[operator]
                self.j_app[js] = clock.virt_to_act(vpp)  # type: ignore[arg-type]
            self._report_buffer.append(js)
        elif level == 3:
            self.jobs_d.remove(js)
            self._deindex_cd(js, tid, self._head_d, False)
        elif level == 0:
            cpu = self._cpu_of[tid]
            self.jobs_a[cpu].remove(js)
            if not self._ab_stale[cpu]:
                self._ab_stale[cpu] = True
                self._ab_stale_cpus.append(cpu)
        else:
            cpu = self._cpu_of[tid]
            self.jobs_b[cpu].remove(js)
            if not self._ab_stale[cpu]:
                self._ab_stale[cpu] = True
                self._ab_stale_cpus.append(cpu)
        index = self.j_idx[js]
        self._job_row((
            tid,
            self._level_of[tid],
            index,
            self.j_rel[js],
            self.j_exec[js],
            now,
            self.j_app[js],
            self.j_vrel[js],
            self.j_vpp[js],
        ))
        if self._trace_on:
            self.tracer.emit(
                EventName.JOB_COMPLETE,
                now,
                task=tid,
                job=index,
                level=self._level_of[tid].name,
                release=self.j_rel[js],
                response=now - self.j_rel[js],
                actual_pp=self.j_app[js],
            )

    def _deindex_cd(
        self, js: int, tid: int, heads: Dict[int, int], is_c: bool
    ) -> None:
        q = self._pending_cd[tid]
        if q and q[0] == js:
            q.popleft()
            if is_c:
                entry = (self.j_vpp[js], tid, self.j_idx[js], js)
                pos = bisect_left(self._ready_c, entry)  # type: ignore[arg-type]
                assert self._ready_c[pos][3] == js
                del self._ready_c[pos]
            if q:
                head = q[0]
                heads[tid] = head
                if is_c:
                    insort(
                        self._ready_c,
                        (self.j_vpp[head], tid, self.j_idx[head], head),  # type: ignore[arg-type]
                    )
            else:
                del heads[tid]
        elif q and q[-1] == js:
            # Zero-demand job completing at its own release instant.
            q.pop()
        else:  # pragma: no cover - unreachable via kernel release paths
            q.remove(js)

    def _flush_reports(self, now: float) -> None:
        """End-of-instant report delivery (see MC2Kernel._flush_reports)."""
        m = self._m
        jobs_a = self.jobs_a
        jobs_b = self.jobs_b
        busy_ab = 0
        for p in self._cpus:
            if jobs_a[p] or jobs_b[p]:
                busy_ab += 1
        processor_idle = busy_ab + len(self._head_c) < m
        buffered, self._report_buffer = self._report_buffer, []
        latency = self._latency
        for js in buffered:
            comp = self.j_comp[js]
            # Filled directly (CompletionReport is a plain frozen
            # dataclass, no __post_init__): the generated __init__ pays
            # one object.__setattr__ per field on this hot path.
            report = object.__new__(CompletionReport)
            report.__dict__.update(
                task=self._task_of[self.j_tid[js]],
                job_index=self.j_idx[js],
                release=self.j_rel[js],
                actual_pp=self.j_app[js],
                comp_time=comp if comp is not None else now,
                queue_empty=processor_idle,
            )
            if latency > 0.0:
                self._push_event(
                    report.comp_time + latency,
                    _MONITOR_REPORT,
                    -1,
                    0,
                    ("complete", report),
                    now,
                )
            else:
                self.monitor.on_job_complete(report)

    # ------------------------------------------------------------------
    # The plug-in seam (rely/guarantee contract: repro.sim.backend)
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether :meth:`start` ran; ``clock`` and ``monitor`` are fixed from then on."""
        return self._started

    def schedule_callback(self, t: float, fn: Callable[[float], None]) -> None:
        """Call ``fn(t)`` at time *t* (a ``CALLBACK`` event); a dispatch follows it."""
        self._push_event(t, _CALLBACK, -1, 0, fn, self._now)

    def inject_pinned_job(self, task: Task, exec_time: float) -> None:
        """Release a job of the synthetic level-A *task* now (MC2Kernel.inject_pinned_job).

        The task joins the per-task columns, the job takes a slot, and
        its CPU's A/B pick is marked stale so the next dispatch rescans it.
        """
        check_pinned_job(self.taskset, task, exec_time)
        tid = task.task_id
        cpu = task.cpu
        assert cpu is not None
        now = self._now
        index = self._injected.get(tid, 0)
        self._injected[tid] = index + 1
        self._task_of[tid] = task
        self._level_of[tid] = task.level
        self._level_code[tid] = 0
        self._cpu_of[tid] = cpu
        self._period_of[tid] = task.period
        js = len(self.j_tid)
        for column, value in (
            (self.j_tid, tid), (self.j_idx, index), (self.j_rel, now),
            (self.j_exec, exec_time), (self.j_rem, exec_time), (self.j_vrel, None),
            (self.j_vpp, None), (self.j_app, None), (self.j_comp, None),
            (self.j_run, -1), (self.j_last, -1), (self.j_gen, 0),
        ):
            column.append(value)
        self.jobs_a[cpu].append(js)
        heapq.heappush(self._heap_a[cpu], (task.period, tid, index, js))
        if not self._ab_stale[cpu]:
            self._ab_stale[cpu] = True
            self._ab_stale_cpus.append(cpu)
        self._dirty = True
        if self._trace_on:
            self._trace_release(tid, index, exec_time, None, None, now)

    # ------------------------------------------------------------------
    # The change_speed system call (Algorithm 1 lines 14-22)
    # ------------------------------------------------------------------
    def change_speed(self, new_speed: float) -> None:
        """Install a new virtual-clock speed now (see MC2Kernel.change_speed)."""
        if not self.config.use_virtual_time:
            raise RuntimeError("change_speed requires use_virtual_time=True")
        if self._measure:
            with self.spans.span("change_speed"):
                self._change_speed(new_speed)
        else:
            self._change_speed(new_speed)

    def _change_speed(self, new_speed: float) -> None:
        clock = self.clock
        assert isinstance(clock, VirtualClock)
        now = self._now
        virt = clock.act_to_virt(now)  # lines 14-15
        j_app = self.j_app
        j_vpp = self.j_vpp
        for js in self.jobs_c:  # lines 16-17
            vpp = j_vpp[js]
            if j_app[js] is None and vpp < virt:  # type: ignore[operator]
                j_app[js] = clock.virt_to_act(vpp)  # type: ignore[arg-type]
        clock.change_speed(new_speed, now)  # lines 18-20
        self.trace.record_speed_change(now, new_speed)
        if self._trace_on:
            self.tracer.emit(EventName.SPEED_CHANGE, now, speed=new_speed)
        # Lines 21-22: re-arm every pending level-C release timer.  Rare
        # path, so the phase profile times every re-arm pass in full.
        t0 = perf_counter_ns() if self._phase_on else 0
        stale_before = self._stale_releases
        for t in self.taskset.level(CriticalityLevel.C):
            tid = t.task_id
            self._release_gen[tid] += 1
            nxt = self.controllers[tid].next_release_actual(clock, now)
            self._push_event(nxt, _RELEASE, tid, self._release_gen[tid], None, now)
            self._stale_releases += 1
        if self._phase_on:
            self._ph_rearm_ns += perf_counter_ns() - t0
            self._ph_rearm += self._stale_releases - stale_before
            self._ph_rearm_calls += 1
        # Same trigger as MC2Kernel._change_speed (shared module-level
        # ratio), so both backends compact at identical instants and
        # their event counts stay aligned.
        if self._stale_releases > _kernel_mod.COMPACT_STALE_RATIO * len(self.taskset):
            self._compact_release_timers()

    def _compact_release_timers(self) -> None:
        """Filter superseded release-timer entries out of the heap."""
        ev_a = self._ev_a
        ev_gen = self._ev_gen
        ev_obj = self._ev_obj
        ev_free = self._ev_free
        gens = self._release_gen
        kept = []
        for entry in self._heap:
            if entry[1] >> _KS == _RELEASE:
                slot = entry[2]
                if ev_gen[slot] != gens[ev_a[slot]]:
                    ev_obj[slot] = None
                    ev_free.append(slot)
                    continue
            kept.append(entry)
        heapq.heapify(kept)
        # In-place: run_until holds a local alias to the heap list.
        self._heap[:] = kept
        self._stale_releases = 0

    # ------------------------------------------------------------------
    # Dispatching (fused _pick_next + _apply_assignment)
    # ------------------------------------------------------------------
    def _dispatch(self, now: float, eps: float) -> None:
        m = self._m
        assignment = self._assign_buf
        j_run = self.j_run
        ab_top = self._ab_top
        stale = self._ab_stale_cpus
        if stale:
            ab_stale = self._ab_stale
            j_comp = self.j_comp
            heappop_ = heapq.heappop
            for p in stale:
                ab_stale[p] = False
                heap = self._heap_a[p]
                while heap and j_comp[heap[0][3]] is not None:
                    heappop_(heap)  # lazily drop completed entries
                if not heap:
                    heap = self._heap_b[p]
                    while heap and j_comp[heap[0][3]] is not None:
                        heappop_(heap)
                ab_top[p] = heap[0][3] if heap else -1
            del stale[:]
            self._ab_free = None
        assignment[:] = ab_top
        free = self._ab_free
        if free is None:
            free = self._ab_free = [
                p for p in self._cpus if ab_top[p] == -1
            ]
        ready = self._ready_c
        if free and ready:
            # place_gel_jobs over slots: keep running choices in place,
            # then fill remaining free CPUs in ascending order.
            rest: Optional[List[int]] = None
            nfree = len(free)
            if len(ready) < nfree:
                nfree = len(ready)
            for i in range(nfree):
                js = ready[i][3]
                q = j_run[js]
                if q >= 0 and assignment[q] == -1:
                    assignment[q] = js
                elif rest is None:
                    rest = [js]
                else:
                    rest.append(js)
            if rest is not None:
                targets = iter([c for c in free if assignment[c] == -1])
                for js in rest:
                    assignment[next(targets)] = js
        if self._head_d:
            left = [p for p in self._cpus if assignment[p] == -1]
            if left:
                self._dispatch_level_d(assignment, left)
        # Apply (MC2Kernel._apply_assignment over slots).
        cur = self._cur
        if assignment == cur:
            return  # no-op dispatch: both apply passes would skip every CPU
        since = self._since
        anch_t = self._anch_t
        anch_r = self._anch_r
        run_start = self._run_start
        j_rem = self.j_rem
        j_gen = self.j_gen
        j_last = self.j_last
        rec = self._rec_enabled
        trace_on = self._trace_on
        # Dispatch is NOT idempotent: applying an assignment changes run
        # state (e.g. a preempted level-D job regains pool eligibility
        # once descheduled), so a context switch here must force the
        # next event to dispatch again — exactly like the reference,
        # which dispatches every event and only reaches a no-op once the
        # assignment is a fixpoint of the state it produced.
        changed = False
        # Pass 1: stop jobs that lost their CPU (or must migrate).
        for p in self._cpus:
            old = cur[p]
            if old == assignment[p]:
                continue
            if old >= 0:
                changed = True
                if now != since[p]:
                    r = anch_r[p] - (now - anch_t[p])
                    j_rem[old] = r if r > 0.0 else 0.0
                since[p] = now
                if rec:
                    self._record_interval(p, old, run_start[p], now)
                j_gen[old] += 1
                j_run[old] = -1
                j_last[old] = p
                cur[p] = -1
                anch_t[p] = now
                anch_r[p] = 0.0
                if j_rem[old] > eps:
                    self.preemptions += 1
                    if trace_on:
                        self.tracer.emit(
                            EventName.JOB_PREEMPT, now,
                            task=self.j_tid[old], job=self.j_idx[old], cpu=p,
                        )
        # Pass 2: start newly placed jobs and schedule their completions.
        ev_free = self._ev_free
        ev_a = self._ev_a
        ev_gen = self._ev_gen
        heap = self._heap
        heappush_ = heapq.heappush
        for p in self._cpus:
            new = assignment[p]
            if new == -1 or cur[p] == new:
                continue
            changed = True
            q = j_run[new]
            if q >= 0:
                # Migrating without a pause: close the old interval.
                if now != since[q]:
                    r = anch_r[q] - (now - anch_t[q])
                    j_rem[new] = r if r > 0.0 else 0.0
                since[q] = now
                if rec:
                    self._record_interval(q, new, run_start[q], now)
                cur[q] = -1
                anch_t[q] = now
                anch_r[q] = 0.0
                j_gen[new] += 1
            last = j_last[new]
            if last >= 0 and last != p:
                self.migrations += 1
                if trace_on:
                    self.tracer.emit(
                        EventName.JOB_MIGRATE, now,
                        task=self.j_tid[new], job=self.j_idx[new],
                        from_cpu=last, to_cpu=p,
                    )
            remaining = j_rem[new]
            cur[p] = new
            since[p] = now
            anch_t[p] = now
            anch_r[p] = remaining
            j_run[new] = p
            j_last[new] = p
            run_start[p] = now
            # Inlined completion push (time >= now, guard unnecessary).
            if ev_free:
                slot = ev_free.pop()
                ev_a[slot] = new
                ev_gen[slot] = j_gen[new]
            else:
                slot = len(ev_a)
                ev_a.append(new)
                ev_gen.append(j_gen[new])
                self._ev_obj.append(None)
            seq = self._seq
            self._seq = seq + 1
            done = now + remaining
            if done < self._next_done:
                self._next_done = done
            heappush_(heap, (done, (_COMPLETION << _KS) | seq, slot))
        if changed:
            self._dirty = True

    def _dispatch_level_d(self, assignment: List[int], left: List[int]) -> None:
        """Fill leftover CPUs with best-effort level-D work (in place)."""
        j_run = self.j_run
        j_rel = self.j_rel
        j_tid = self.j_tid
        j_idx = self.j_idx
        pool = [
            js
            for js in self._head_d.values()
            if j_run[js] < 0 or j_run[js] in left
        ]
        cur = self._cur
        for p in left:
            c = cur[p]
            if c >= 0 and c in pool:
                assignment[p] = c
                pool.remove(c)
        for p in left:
            if assignment[p] == -1 and pool:
                # Inlined pick_best_effort: min (release, tid, index).
                best = pool[0]
                best_key = (j_rel[best], j_tid[best], j_idx[best])
                for js in pool:
                    key = (j_rel[js], j_tid[js], j_idx[js])
                    if key < best_key:
                        best, best_key = js, key
                assignment[p] = best
                pool.remove(best)

    # ------------------------------------------------------------------
    # Trace plumbing / finalization
    # ------------------------------------------------------------------
    def _record_interval(self, cpu: int, js: int, start: float, end: float) -> None:
        # Same filters as Trace.record_interval.
        if end <= start:
            return
        if self.trace.record_intervals:
            self.trace.interval_rows.append(
                (cpu, self.j_tid[js], self.j_idx[js], start, end)
            )
        if self._trace_on:
            self.tracer.emit(
                EventName.EXEC_INTERVAL,
                end,
                cpu=cpu,
                task=self.j_tid[js],
                job=self.j_idx[js],
                start=start,
                end=end,
            )

    def _finalize(self, now: float) -> None:
        if self._report_buffer:
            self._flush_reports(now)
        cur = self._cur
        since = self._since
        for p in self._cpus:
            js = cur[p]
            if js >= 0:
                if now != since[p]:
                    r = self._anch_r[p] - (now - self._anch_t[p])
                    self.j_rem[js] = r if r > 0.0 else 0.0
                since[p] = now
                self._record_interval(p, js, self._run_start[p], now)
            else:
                since[p] = now
        for pool in (*self.jobs_a, *self.jobs_b, self.jobs_c, self.jobs_d):
            for js in pool:
                tid = self.j_tid[js]
                self._job_row((
                    tid,
                    self._level_of[tid],
                    self.j_idx[js],
                    self.j_rel[js],
                    self.j_exec[js],
                    self.j_comp[js],
                    self.j_app[js],
                    self.j_vrel[js],
                    self.j_vpp[js],
                ))
        self.metrics.counter("kernel.events").inc(self.events_processed)
        self.metrics.counter("kernel.preemptions").inc(self.preemptions)
        self.metrics.counter("kernel.migrations").inc(self.migrations)
        if self._phase_on:
            self._flush_phases()

    def _flush_phases(self) -> None:
        """Publish phase counters to the registry and the global profiler.

        ``engine_pop`` count is ``events_processed`` (the fused loop pops
        exactly one event per iteration); ``dispatch`` uses its own
        counter because the dirty-flag skip makes dispatches strictly
        fewer than events on this backend.
        """
        phases = (
            ("engine_pop", self.events_processed, 0, 0),
            ("dispatch", self._ph_dispatch, self._ph_dispatch_ns, self._ph_dispatch_samples),
            ("monitor", self._ph_monitor, self._ph_monitor_ns, self._ph_monitor_samples),
            ("timer_rearm", self._ph_rearm, self._ph_rearm_ns, self._ph_rearm_calls),
        )
        for name, count, ns, samples in phases:
            self.metrics.counter(f"kernel.phase.{name}.count").inc(count)
            self.metrics.counter(f"kernel.phase.{name}.sampled_ns").inc(ns)
            self.metrics.counter(f"kernel.phase.{name}.samples").inc(samples)
            PHASE_PROFILER.add(name, count=count, ns=ns, samples=samples)

    # ------------------------------------------------------------------
    # Introspection (backend-neutral surface)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def pending_c_released_before(self, end: float) -> bool:
        """True if any incomplete level-C job was released before *end*.

        O(1): ``jobs_c`` is in release order (see ``__init__``).
        """
        jobs_c = self.jobs_c
        return bool(jobs_c) and self.j_rel[jobs_c[0]] < end

    @property
    def sched_overheads(self) -> List[int]:
        """Scheduler-invocation wall-clock samples in ns (Fig. 9)."""
        return [
            int(v)
            for name in ("kernel.pick_next.ns", "kernel.change_speed.ns")
            for v in self.metrics.histogram(name).samples
        ]
