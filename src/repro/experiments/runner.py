"""Run one (task set, overload scenario, monitor) experiment.

The procedure mirrors Sec. 5: simulate the task set under the scenario's
execution behaviour with the chosen monitor, then record the dissipation
time and the minimum virtual-clock speed.

Termination: the run may not simply stop at the first instant the
monitor is out of recovery — jobs released during the overload can still
be pending, and their late completions can start a *new* recovery
episode.  The runner therefore stops only when, past the last overload
window, (a) the monitor is out of recovery, (b) the clock runs at speed
1, (c) no job released during the overload is still pending, and then
(d) a confirmation window passes with no new recovery episode.  A hard
horizon caps pathological runs (flagged ``truncated``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.monitor import Monitor
from repro.core.virtual_time import VirtualClock
from repro.experiments.metrics import RunResult, dissipation_time
from repro.model.task import CriticalityLevel
from repro.model.taskset import TaskSet
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.spec import MonitorSpec
from repro.sim.backend import create_kernel
from repro.sim.budgets import BudgetEnforcedBehavior
from repro.sim.kernel import KernelConfig, MC2Kernel
from repro.sim.trace import Trace
from repro.workload.scenarios import OverloadScenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> runner)
    from repro.faults.plane import FaultPlane
    from repro.workload.traffic import TrafficSpec

# MonitorSpec moved to repro.runtime.spec (registry-backed); re-exported
# here because this was its historical home.
__all__ = ["MonitorSpec", "run_overload_experiment", "ExperimentOutput"]


@dataclass(frozen=True)
class ExperimentOutput:
    """A :class:`RunResult` plus the raw trace/kernel/monitor for inspection.

    ``kernel`` is whichever backend ``config.backend`` selected — the
    object-based :class:`MC2Kernel` or the struct-of-arrays
    :class:`~repro.sim.soa.SoAKernel`; both expose the backend-neutral
    surface documented in :mod:`repro.sim.backend`.
    """

    result: RunResult
    trace: Trace
    kernel: "MC2Kernel | object"
    monitor: Monitor


def run_overload_experiment(
    ts: TaskSet,
    scenario: OverloadScenario,
    spec: MonitorSpec,
    horizon: float = 30.0,
    confirm_window: float = 0.5,
    config: Optional[KernelConfig] = None,
    keep_artifacts: bool = False,
    level_c_budgets: bool = True,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    fault_plane: Optional["FaultPlane"] = None,
    traffic: Optional["TrafficSpec"] = None,
) -> RunResult | ExperimentOutput:
    """Run one overload-recovery experiment.

    Parameters
    ----------
    ts:
        The task set (level-C tasks must carry tolerances).
    scenario:
        Overload scenario (drives the execution behaviour).
    spec:
        Which monitor to attach.
    horizon:
        Hard simulation-time cap.
    confirm_window:
        Quiet time required after recovery looks complete before the run
        is accepted as settled.
    config:
        Kernel configuration override.
    keep_artifacts:
        Return the full :class:`ExperimentOutput` instead of just the
        :class:`RunResult` (used by examples and debugging; traces are
        dropped by default to keep sweeps lean).
    level_c_budgets:
        Enforce level-C execution budgets (paper footnotes 2-3): level-C
        jobs cannot exceed their level-C PWCETs, so the overload consists
        of level-A/B jobs occupying essentially all CPUs during the
        window (Sec. 5's "all CPUs are occupied by level-A and -B
        work").  This is the configuration whose dissipation magnitudes
        match the paper's concrete claims (e.g. s = 0.6 keeping
        dissipation under twice the overload length).  Set ``False`` for
        the harsher no-budget variant in which level-C demand itself
        inflates 10x (ablation).
    tracer:
        Structured event stream (:mod:`repro.obs`); observation only —
        the :class:`RunResult` is identical with or without it.
    metrics:
        Metrics registry shared with the kernel (counters + span
        histograms); defaults to a fresh per-kernel registry.
    fault_plane:
        Optional :class:`~repro.faults.plane.FaultPlane` injecting
        environment degradations (dropped monitor reports, delayed speed
        commands, clock skew, execution spikes, release jitter, CPU
        stalls).  ``None`` (default) leaves the run untouched — no
        wrapper objects, no extra branches on the hot path.
    traffic:
        Optional :class:`~repro.workload.traffic.TrafficSpec`: an
        open-system workload.  The spec's server tasks are appended to
        *ts* and the execution behaviour is wrapped so server jobs
        execute their granted request backlog; the dissipation origin
        becomes the later of the scenario's last window end and the
        traffic's last burst end.
    """
    if traffic is not None:
        ts = traffic.augment(ts)
    for t in ts.level(CriticalityLevel.C):
        if t.tolerance is None:
            raise ValueError(
                f"level-C task {t.label} has no tolerance; run assign_tolerances first"
            )
    cfg = config if config is not None else KernelConfig()
    behavior = scenario.behavior()
    if level_c_budgets:
        behavior = BudgetEnforcedBehavior(
            behavior, enforce_a=False, enforce_b=False, enforce_c=True
        )
    traffic_behavior = None
    if traffic is not None:
        # Outside budget enforcement: grants are already capped at the
        # server budget (== its level-C PWCET), so clipping is a no-op;
        # wrapping outside keeps the scenario/budget pair untouched for
        # the periodic tasks.
        behavior = traffic_behavior = traffic.build_behavior(behavior, horizon)
    if fault_plane is not None:
        # Spikes wrap *outside* budget enforcement: an execution spike is
        # extra demand beyond the PWCETs, so budgets must not clip it.
        cfg = fault_plane.amend_config(cfg)
        behavior = fault_plane.wrap_behavior(behavior)
    kernel = create_kernel(ts, behavior=behavior, config=cfg, tracer=tracer, metrics=metrics)
    monitor = spec.build(kernel)
    kernel.attach_monitor(monitor)
    if fault_plane is not None:
        fault_plane.install(kernel, monitor)

    end = scenario.last_overload_end
    if traffic is not None:
        end = max(end, traffic.last_burst_end(horizon))

    kernel.start()
    # The clock is fixed from start() on (seam guarantee G4), so it is
    # resolved once.  The check runs after every event; its two monotone
    # parts latch: time never goes back, and once past `end` no job
    # released before `end` can appear, so "all drained" stays true.
    clock = kernel.clock if isinstance(kernel.clock, VirtualClock) else None
    past_end = False
    drained = False

    def settled() -> bool:
        nonlocal past_end, drained
        if not past_end:
            if kernel.now <= end:
                return False
            past_end = True
        if monitor.recovery_mode:
            return False
        if clock is not None and not clock.is_normal_speed:
            return False
        if not drained:
            # Jobs released during (or before) the overload must be gone:
            # their late completions can still trigger recovery.
            if kernel.pending_c_released_before(end):
                return False
            drained = True
        return True

    while True:
        kernel.run_until(horizon, stop=settled)
        if kernel.now >= horizon or not settled():
            break
        # Confirmation: simulate a quiet window; if recovery re-arms
        # (settled() flips false), loop and keep going.
        target = min(horizon, kernel.now + confirm_window)
        kernel.run_until(target, stop=lambda: not settled())
        if settled() and kernel.now >= target - 1e-9:
            break
    trace = kernel.finish()

    diss, truncated = dissipation_time(monitor, end, kernel.now)
    sojourn = None
    if traffic_behavior is not None:
        from repro.experiments.metrics import SojournStats

        samples, requests = traffic_behavior.sojourn_samples(trace)
        sojourn = SojournStats.from_samples(samples, requests)
    result = RunResult(
        scenario=scenario.name,
        monitor=spec.label,
        dissipation=diss,
        truncated=truncated or (kernel.now >= horizon and monitor.recovery_mode),
        min_speed=monitor.minimum_requested_speed(),
        miss_count=monitor.miss_count,
        episodes=len(monitor.episodes),
        max_response_c=trace.max_response_time(CriticalityLevel.C),
        sim_end=kernel.now,
        events=kernel.events_processed,
        sojourn=sojourn,
    )
    if keep_artifacts:
        return ExperimentOutput(result=result, trace=trace, kernel=kernel, monitor=monitor)
    # The kernel holds the monitor and the monitor holds the kernel as
    # its speed controller.  Cutting that one cycle frees the run's
    # kernel, trace and behaviours when this returns, instead of at a
    # later full garbage collection whose timing would set the peak
    # memory of a batch of cells.
    monitor.controller = None
    return result
