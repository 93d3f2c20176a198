"""The fault plane: injects a :class:`~repro.faults.spec.FaultPlan`
into one kernel run through the public kernel seam.

The kernels have **no** fault branches, and the plane touches no
kernel internals.  Every degradation rides the seam both backends
implement (:mod:`repro.sim.backend`, "Kernel seam" in
docs/architecture.md), so a faulted cell runs on ``reference`` and
``soa`` alike:

=====================  ============================================
fault                  seam
=====================  ============================================
``MonitorOutage``      ``kernel.monitor`` (the notification link) is
                       wrapped by a window-gating proxy before
                       ``start()``; a queued backlog is flushed by a
                       ``kernel.schedule_callback`` at the window end
``SpeedCommandDelay``  ``monitor.controller`` (the ``change_speed``
``SpeedCommandDrop``   syscall path) is wrapped; windows are tested at
                       ``kernel.now`` and delayed commands ride
                       ``kernel.schedule_callback``
``ClockSkew``          ``kernel.clock`` is swapped before ``start()``
                       for a :class:`VirtualClock` subclass that
                       jitters the virtual→actual direction
``ExecutionSpike``     the :class:`ExecutionBehavior` is wrapped
                       (outside budget enforcement — spikes are
                       demand *beyond* the PWCETs)
``ReleaseJitter``      ``KernelConfig.release_delay`` is composed
``CpuStall``           ``kernel.inject_pinned_job`` releases a
                       synthetic top-priority level-A job that
                       occupies the CPU for the stall window
=====================  ============================================

A plane is single-use: build one per run, let the experiment runner
call :meth:`FaultPlane.amend_config` / :meth:`FaultPlane.wrap_behavior`
before kernel construction and :meth:`FaultPlane.install` after the
monitor is attached (``run_overload_experiment(..., fault_plane=...)``
does all three).  With no plane attached nothing is wrapped and the
run is bit-identical to an unfaulted one.

Every perturbation emits a ``fault_inject`` trace event when tracing
is on, so injected faults line up against the recovery episodes they
provoke in Perfetto (:mod:`repro.obs.chrome_trace` gives them their
own process row).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.core.virtual_time import VirtualClock
from repro.faults.spec import (
    ClockSkew,
    CpuStall,
    ExecutionSpike,
    FaultPlan,
    MonitorOutage,
    ReleaseJitter,
    SpeedCommandDelay,
    SpeedCommandDrop,
    unit_rand,
)
from repro.model.behavior import ExecutionBehavior
from repro.model.task import CriticalityLevel, Task
from repro.obs.tracer import NULL_TRACER, EventName, Tracer
from repro.sim.kernel import KernelConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.monitor import CompletionReport, Monitor

__all__ = ["FAULT_TASK_BASE_ID", "FaultPlane"]

#: Synthetic task ids used for CpuStall jobs.  Far above both real task
#: ids and the level-D probe base (10_000) used by repro.sim.diffcheck;
#: the invariant checkers exclude ids at or above this base from the
#: criticality-isolation oracle (a stalled CPU *should* delay its
#: level-A/B partition — that is the fault).
FAULT_TASK_BASE_ID = 900_000

#: Period of the synthetic stall tasks: shorter than any real level-A
#: period, so the RM dispatch key ``(period, task_id, index)`` ranks the
#: stall job first on its CPU.
_STALL_PERIOD = 1e-6


class FaultPlane:
    """Injects one :class:`FaultPlan` into one kernel run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._installed = False
        #: The kernel, reached only through its public seam.
        self._kernel: Any = None
        self._tracer: Tracer = NULL_TRACER
        self._outages: List[MonitorOutage] = []
        self._speed_faults: List[Any] = []  # delays + drops, plan order
        self._skews: List[ClockSkew] = []
        self._spikes: List[ExecutionSpike] = []
        self._jitters: List[ReleaseJitter] = []
        self._stalls: List[CpuStall] = []
        for f in plan.faults:
            if isinstance(f, MonitorOutage):
                self._outages.append(f)
            elif isinstance(f, (SpeedCommandDelay, SpeedCommandDrop)):
                self._speed_faults.append(f)
            elif isinstance(f, ClockSkew):
                self._skews.append(f)
            elif isinstance(f, ExecutionSpike):
                self._spikes.append(f)
            elif isinstance(f, ReleaseJitter):
                self._jitters.append(f)
            elif isinstance(f, CpuStall):
                self._stalls.append(f)
            else:  # pragma: no cover - FaultSpec is closed
                raise TypeError(f"unknown fault spec {f!r}")

    # ------------------------------------------------------------------
    # Pre-kernel hooks (the runner calls these before building the kernel)
    # ------------------------------------------------------------------
    def amend_config(self, config: KernelConfig) -> KernelConfig:
        """Compose :class:`ReleaseJitter` into ``config.release_delay``.

        Windows are tested against the job's *nominal* release
        ``phase + index*T`` (the hook is evaluated at arm time, before
        the realized release is known); level A is exempt because the
        kernel never applies release delays to table-driven tasks.
        """
        if not self._jitters:
            return config
        base = config.release_delay
        jitters = tuple(self._jitters)
        seed = self.plan.seed
        plane = self

        def delayed(task: Task, index: int) -> float:
            extra = base(task, index) if base is not None else 0.0
            nominal = task.phase + index * task.period
            for j in jitters:
                if j.start <= nominal < j.end:
                    if j.prob >= 1.0 or unit_rand(
                        seed, "release_jitter", task.task_id, index
                    ) < j.prob:
                        amt = j.magnitude * unit_rand(
                            seed, "release_jitter_mag", task.task_id, index
                        )
                        if amt > 0.0:
                            plane._emit(
                                nominal,
                                fault=ReleaseJitter.kind,
                                task=task.task_id,
                                job=index,
                                delay=amt,
                            )
                            extra += amt
                    break
            return extra

        return dc_replace(config, release_delay=delayed)

    def wrap_behavior(self, behavior: ExecutionBehavior) -> ExecutionBehavior:
        """Wrap the execution behavior with :class:`ExecutionSpike`s.

        Must wrap *outside* budget enforcement: a spike is extra demand
        beyond the PWCETs, so budgets must not clip it.
        """
        if not self._spikes:
            return behavior
        return _SpikedBehavior(self, behavior, tuple(self._spikes), self.plan.seed)

    # ------------------------------------------------------------------
    # Installation (after attach_monitor, before kernel.start())
    # ------------------------------------------------------------------
    def install(self, kernel: Any, monitor: "Monitor") -> None:
        """Attach the remaining interceptors to a built kernel (either backend)."""
        if self._installed:
            raise RuntimeError("a FaultPlane is single-use; build a new one per run")
        if kernel.started:
            raise RuntimeError("FaultPlane.install must run before kernel.start()")
        self._installed = True
        self._kernel = kernel
        self._tracer = kernel.tracer

        if self._skews:
            if not isinstance(kernel.clock, VirtualClock):
                raise ValueError("ClockSkew requires use_virtual_time=True")
            kernel.clock = _SkewedClock(self, tuple(self._skews), self.plan.seed)

        if self._speed_faults:
            monitor.controller = _SpeedPath(self, monitor.controller)

        if self._outages:
            gate = _MonitorGate(self, kernel.monitor)
            kernel.monitor = gate
            for o in self._outages:
                if o.mode == "queue":
                    kernel.schedule_callback(o.end, gate.flush)

        for i, st in enumerate(self._stalls):
            if st.cpu >= kernel.taskset.m:
                raise ValueError(
                    f"CpuStall.cpu={st.cpu} out of range for m={kernel.taskset.m}"
                )
            task = Task(
                task_id=FAULT_TASK_BASE_ID + i,
                level=CriticalityLevel.A,
                period=_STALL_PERIOD,
                pwcets={CriticalityLevel.A: st.end - st.start},
                cpu=st.cpu,
                name=f"stall-cpu{st.cpu}",
            )
            kernel.schedule_callback(
                st.start, lambda now, st=st, task=task: self._begin_stall(st, task, now)
            )

    def detach(self) -> None:
        """Drop the kernel once its run is over and judged.

        The kernel holds the plane's interceptors and the plane holds the
        kernel; cutting that cycle lets reference counting free the run.
        """
        self._kernel = None

    def _begin_stall(self, stall: CpuStall, task: Task, now: float) -> None:
        """Callback at the stall start: release the synthetic hog job."""
        self._kernel.inject_pinned_job(task, stall.end - stall.start)
        self._emit(now, fault=CpuStall.kind, cpu=stall.cpu, until=stall.end)

    # ------------------------------------------------------------------
    def _emit(self, t: float, **fields: Any) -> None:
        if self._tracer.enabled:
            self._tracer.emit(EventName.FAULT_INJECT, t, **fields)


class _SpikedBehavior:
    """ExecutionBehavior wrapper applying :class:`ExecutionSpike`s."""

    def __init__(
        self,
        plane: FaultPlane,
        inner: ExecutionBehavior,
        spikes: Tuple[ExecutionSpike, ...],
        seed: int,
    ) -> None:
        self._plane = plane
        self._inner = inner
        #: ``(start, end, level, prob, factor)`` per spike, in plan order:
        #: plain values, read on every release.
        self._spikes = tuple(
            (sp.start, sp.end, CriticalityLevel[sp.level], sp.prob, sp.factor)
            for sp in spikes
        )
        self._seed = seed

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        e = self._inner.exec_time(task, job_index, release)
        if e <= 0.0:
            return e
        level = task.level
        for start, end, spike_level, prob, factor in self._spikes:
            if start <= release < end and level is spike_level:
                if prob >= 1.0 or unit_rand(
                    self._seed, "execution_spike", task.task_id, job_index
                ) < prob:
                    self._plane._emit(
                        release,
                        fault=ExecutionSpike.kind,
                        task=task.task_id,
                        job=job_index,
                        factor=factor,
                    )
                    e *= factor
                break
        return e


class _SpeedPath:
    """``change_speed`` interceptor (wraps ``monitor.controller``)."""

    def __init__(self, plane: FaultPlane, inner: Any) -> None:
        self._plane = plane
        self._inner = inner

    def change_speed(self, speed: float) -> None:
        plane = self._plane
        now = plane._kernel.now
        for f in plane._speed_faults:
            if f.start <= now < f.end:
                if isinstance(f, SpeedCommandDrop):
                    plane._emit(now, fault=SpeedCommandDrop.kind, speed=speed)
                    return
                plane._emit(
                    now, fault=SpeedCommandDelay.kind, speed=speed, delay=f.delay
                )
                inner = self._inner
                # Delivered late: the kernel applies the command at the
                # callback's time, its clock then.
                plane._kernel.schedule_callback(
                    now + f.delay, lambda _t, s=speed: inner.change_speed(s)
                )
                return
        self._inner.change_speed(speed)


class _MonitorGate:
    """Monitor-notification interceptor (wraps ``kernel.monitor``).

    Covers both delivery paths: with zero monitor latency the kernel
    calls ``on_job_release`` / ``on_job_complete`` directly; with
    latency they arrive via ``MONITOR_REPORT`` events — in either case
    through ``kernel.monitor``, i.e. this gate.  The window test uses
    the *delivery* time (``kernel.now``), matching the fault model: the
    notification link is down, not the kernel event itself.
    """

    def __init__(self, plane: FaultPlane, inner: "Monitor") -> None:
        self._plane = plane
        self._inner = inner
        self._queue: List[Tuple[str, Any]] = []

    def _mode(self, now: float) -> Optional[str]:
        for o in self._plane._outages:
            if o.start <= now < o.end:
                return o.mode
        return None

    def on_job_release(self, jid: Tuple[int, int]) -> None:
        plane = self._plane
        now = plane._kernel.now
        mode = self._mode(now)
        if mode is None:
            self._inner.on_job_release(jid)
            return
        plane._emit(
            now, fault=MonitorOutage.kind, action=mode,
            event="release", task=jid[0], job=jid[1],
        )
        if mode == "queue":
            self._queue.append(("release", jid))

    def on_job_complete(self, report: "CompletionReport") -> None:
        plane = self._plane
        now = plane._kernel.now
        mode = self._mode(now)
        if mode is None:
            self._inner.on_job_complete(report)
            return
        plane._emit(
            now, fault=MonitorOutage.kind, action=mode,
            event="complete", task=report.task.task_id, job=report.job_index,
        )
        if mode == "queue":
            self._queue.append(("complete", report))

    def flush(self, now: float) -> None:
        """CALLBACK at a queue-window end: deliver the backlog in order."""
        if not self._queue:
            return
        queued, self._queue = self._queue, []
        self._plane._emit(
            now, fault=MonitorOutage.kind, action="flush", count=len(queued)
        )
        for kind, data in queued:
            if kind == "release":
                self._inner.on_job_release(data)
            else:
                self._inner.on_job_complete(data)


class _SkewedClock(VirtualClock):
    """A :class:`VirtualClock` whose virtual→actual reads come back up
    to ``magnitude`` late inside skew windows.

    Only the virtual→actual direction is perturbed (timers fire late);
    actual→virtual stays exact, so virtual time remains monotone and
    the SVO early-release guard cannot trip.  Must subclass
    :class:`VirtualClock` — the experiment runner's settle predicate
    checks ``isinstance(kernel.clock, VirtualClock)``.
    """

    def __init__(
        self, plane: FaultPlane, skews: Tuple[ClockSkew, ...], seed: int
    ) -> None:
        super().__init__(0.0)
        self._plane = plane
        self._skews = skews
        self._seed = seed

    def virt_to_act(self, virt: float) -> float:
        act = super().virt_to_act(virt)
        for sk in self._skews:
            if sk.start <= act < sk.end:
                jitter = sk.magnitude * unit_rand(self._seed, "clock_skew", virt)
                if jitter > 0.0:
                    self._plane._emit(act, fault=ClockSkew.kind, jitter=jitter)
                    return act + jitter
                break
        return act
