"""Differential equivalence harness: reference vs. soa kernel backend.

Every :func:`compare_backends` run makes two checks:

* **Dispatch.**  The reference kernel (:class:`~repro.sim.kernel.MC2Kernel`)
  dispatches from incremental indexes (lazy heaps, per-task heads, a
  sorted ready list).  :func:`check_dispatches` recomputes every
  assignment from the kernel's job pools with the per-level policies of
  :mod:`repro.schedulers` (:func:`scratch_assignment`: level-A table
  order, level-B EDF, GEL-v, level-D FIFO — Fig. 1) and fails the run at
  the first assignment that differs, before it is applied.
* **Backends.**  The struct-of-arrays backend (:mod:`repro.sim.soa`)
  must be **trace-equivalent** to the reference: run over the same
  scenario, both produce bit-identical job records, execution
  intervals, speed changes, preemption/migration counts, and event
  counts.  A scenario may carry a :class:`~repro.faults.spec.FaultPlan`:
  its plane is injected through the kernel seam on both backends, so
  the same two checks cover faulted runs.

This module

* runs one scenario on one backend (:func:`run_backend`), or on both
  with every reference dispatch checked (:func:`compare_backends`),
* reduces each run to a comparable :func:`fingerprint`,
* generates randomized scenario grids spanning the interesting axes —
  platform size, utilization, overload scenarios, recovery monitors,
  monitor latency, zero-demand jobs, level-D background load
  (:func:`random_scenarios`),
* and sweeps them (:func:`check_many`), reporting every divergence.

Fingerprints keep the kernel's own recording order (no sorting): the
claim is event-for-event equivalence, not merely set equivalence.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.monitor import AdaptiveMonitor, Monitor, NullMonitor, SimpleMonitor
from repro.model.behavior import (
    ConstantBehavior,
    ExecutionBehavior,
    PwcetFractionBehavior,
)
from repro.model.job import Job
from repro.model.task import CriticalityLevel, Task
from repro.model.taskset import TaskSet
from repro.schedulers import (
    pick_best_effort,
    pick_edf,
    pick_table_driven,
    select_gel_jobs,
)
from repro.sim.backend import create_kernel
from repro.sim.kernel import KernelConfig, MC2Kernel
from repro.sim.trace import Trace
from repro.workload.generator import GeneratorParams, generate_taskset
from repro.workload.scenarios import DOUBLE, LONG, SHORT, OverloadScenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> diffcheck)
    from repro.faults.spec import FaultPlan

__all__ = [
    "DiffScenario",
    "DiffResult",
    "ZeroDemandEvery",
    "build_kernel",
    "fingerprint",
    "fingerprint_digest",
    "run_backend",
    "scratch_assignment",
    "check_dispatches",
    "compare_backends",
    "random_scenarios",
    "check_many",
    "main",
]

_SCENARIOS: Dict[str, OverloadScenario] = {s.name: s for s in (SHORT, LONG, DOUBLE)}

#: Task-id offset for synthesized level-D background tasks (the Sec. 5
#: generator only emits levels A-C with small ids).
_LEVEL_D_BASE_ID = 10_000

#: ``level.name`` per level (an enum ``name`` read costs a descriptor call).
_LEVEL_NAMES: Dict[CriticalityLevel, str] = {lvl: lvl.name for lvl in CriticalityLevel}


def _traffic_presets() -> Dict[str, "TrafficSpec"]:  # noqa: F821 - late import
    """Canned open-system workloads for the traffic differential axis.

    Built lazily (and deterministically — everything is seeded by value)
    so importing diffcheck stays cheap for non-traffic runs.
    """
    from repro.workload.traffic import (
        DiurnalCurveSource,
        MMPPSource,
        PoissonSource,
        ServerSpec,
        TrafficFlow,
        TrafficSpec,
    )

    return {
        "poisson": TrafficSpec(flows=(
            TrafficFlow(
                PoissonSource(rate=300.0, mean_demand=0.002, seed=11),
                ServerSpec(period=0.02, budget=0.004, count=2),
            ),
        )),
        "mmpp": TrafficSpec(flows=(
            TrafficFlow(
                MMPPSource(
                    rates=(60.0, 1200.0), dwells=(0.25, 0.06),
                    mean_demand=0.002, seed=23,
                ),
                ServerSpec(period=0.02, budget=0.004, count=2),
            ),
            TrafficFlow(
                PoissonSource(rate=150.0, mean_demand=0.001, seed=29),
                ServerSpec(
                    period=0.05, budget=0.01, level="D", policy="deferrable"
                ),
            ),
        )),
        "diurnal": TrafficSpec(flows=(
            TrafficFlow(
                DiurnalCurveSource(
                    base_rate=40.0, peak_rate=700.0, period=0.8,
                    mean_demand=0.002, seed=37,
                ),
                ServerSpec(period=0.025, budget=0.005, count=2,
                           policy="deferrable"),
            ),
        )),
    }


@dataclass(frozen=True)
class ZeroDemandEvery:
    """Wrap a behaviour, zeroing the demand of every ``k``-th job.

    Zero-demand jobs complete at their own release instant — the nastiest
    same-instant ordering case for the dispatcher (the job must never
    occupy a CPU, and its successor becomes the task's head immediately).
    The ``task_id + index`` phase spreads the zeros across tasks.
    """

    inner: ExecutionBehavior
    every: int

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        if (task.task_id + job_index) % self.every == 0:
            return 0.0
        return self.inner.exec_time(task, job_index, release)


@dataclass(frozen=True)
class DiffScenario:
    """One fully-determined differential test case."""

    #: Task-set generator seed.
    seed: int
    #: Platform size.
    m: int = 4
    #: Per-task utilization range for the generator.
    util_range: Tuple[float, float] = (0.1, 0.4)
    #: Execution behaviour: an overload-scenario name ("SHORT", "LONG",
    #: "DOUBLE"), "constant" (level-C PWCETs), or "overrun" (sustained
    #: 1.25x level-C PWCETs).
    behavior: str = "constant"
    #: Recovery monitor: "null", "simple", or "adaptive".
    monitor: str = "null"
    #: SimpleMonitor speed ``s`` / AdaptiveMonitor aggressiveness ``a``.
    monitor_arg: float = 0.5
    #: Simulation horizon (seconds).
    horizon: float = 1.5
    use_virtual_time: bool = True
    record_intervals: bool = True
    monitor_latency: float = 0.0
    #: If > 0, zero the demand of every k-th job (see ZeroDemandEvery).
    zero_every: int = 0
    #: Number of synthesized level-D background tasks.
    level_d_tasks: int = 0
    #: Open-system traffic preset name ("" = none; see _traffic_presets).
    traffic: str = ""
    #: Faults injected through the kernel seam (None = unfaulted run).
    faults: Optional["FaultPlan"] = None

    def label(self) -> str:
        """Compact one-line description for failure reports.

        The traffic and fault fields append only when set, so every
        earlier scenario keeps its exact label (the golden-corpus key).
        """
        base = (
            f"seed={self.seed} m={self.m} util={self.util_range} "
            f"behavior={self.behavior} monitor={self.monitor}({self.monitor_arg}) "
            f"vt={self.use_virtual_time} lat={self.monitor_latency} "
            f"zero={self.zero_every} d={self.level_d_tasks} h={self.horizon}"
        )
        if self.traffic:
            base += f" traffic={self.traffic}"
        if self.faults is not None:
            kinds = "+".join(f.kind for f in self.faults.faults)
            base += f" faults={kinds}#{self.faults.key()[:8]}"
        return base


@dataclass(frozen=True)
class DiffResult:
    """Outcome of one reference-vs-soa comparison."""

    scenario: DiffScenario
    equal: bool
    #: Names of the fingerprint fields that diverged (empty when equal).
    mismatched: Tuple[str, ...]


def _level_d_tasks(count: int, rng_seed: int) -> List[Task]:
    """Synthesize *count* level-D background tasks (the generator emits none)."""
    rng = random.Random(rng_seed)
    out = []
    for i in range(count):
        period = rng.uniform(0.01, 0.1)
        util = rng.uniform(0.1, 0.5)
        out.append(
            Task(
                task_id=_LEVEL_D_BASE_ID + i,
                level=CriticalityLevel.D,
                period=period,
                pwcets={CriticalityLevel.D: util * period},
            )
        )
    return out


def _behavior_for(sc: DiffScenario) -> ExecutionBehavior:
    if sc.behavior in _SCENARIOS:
        behavior: ExecutionBehavior = _SCENARIOS[sc.behavior].behavior()
    elif sc.behavior == "constant":
        behavior = ConstantBehavior()
    elif sc.behavior == "overrun":
        behavior = PwcetFractionBehavior(1.25)
    else:
        raise ValueError(f"unknown behavior {sc.behavior!r}")
    if sc.zero_every:
        behavior = ZeroDemandEvery(behavior, sc.zero_every)
    return behavior


def _monitor_for(sc: DiffScenario, kernel: MC2Kernel) -> Monitor:
    if sc.monitor == "null":
        return NullMonitor(kernel)
    if sc.monitor == "simple":
        return SimpleMonitor(kernel, s=sc.monitor_arg)
    if sc.monitor == "adaptive":
        return AdaptiveMonitor(kernel, a=sc.monitor_arg)
    raise ValueError(f"unknown monitor {sc.monitor!r}")


def build_kernel(sc: DiffScenario, backend: str) -> Tuple[MC2Kernel, Monitor]:
    """Construct the kernel + monitor for *sc* on kernel *backend*."""
    ts = generate_taskset(
        sc.seed, GeneratorParams(m=sc.m, util_range=sc.util_range)
    )
    if sc.level_d_tasks:
        ts = TaskSet(
            list(ts) + _level_d_tasks(sc.level_d_tasks, sc.seed), m=ts.m
        )
    behavior = _behavior_for(sc)
    if sc.traffic:
        tspec = _traffic_presets()[sc.traffic]
        ts = tspec.augment(ts)
        behavior = tspec.build_behavior(behavior, sc.horizon)
    config = KernelConfig(
        use_virtual_time=sc.use_virtual_time,
        record_intervals=sc.record_intervals,
        monitor_latency=sc.monitor_latency,
        backend=backend,
    )
    plane = None
    if sc.faults is not None:
        from repro.faults.plane import FaultPlane

        plane = FaultPlane(sc.faults)
        config = plane.amend_config(config)
        behavior = plane.wrap_behavior(behavior)
    kernel = create_kernel(ts, behavior=behavior, config=config)
    monitor = _monitor_for(sc, kernel)
    kernel.attach_monitor(monitor)
    if plane is not None:
        plane.install(kernel, monitor)
    return kernel, monitor


def fingerprint(trace: Trace, kernel: MC2Kernel, monitor: Monitor) -> Dict[str, object]:
    """Reduce one run to its comparable observable state.

    Job records and intervals keep the kernel's recording order —
    completion order is part of the equivalence claim.  Both are read
    from the trace's rows, so no record object is built.
    """
    return {
        "jobs": [
            (tid, _LEVEL_NAMES[level], index, rel, exec_time, comp, app, vrel, vpp)
            for tid, level, index, rel, exec_time, comp, app, vrel, vpp
            in trace.job_values()
        ],
        "intervals": list(trace.interval_values()),
        "speed_changes": list(trace.speed_changes),
        "preemptions": kernel.preemptions,
        "migrations": kernel.migrations,
        "events_processed": kernel.events_processed,
        "misses": monitor.miss_count,
        "episodes": [(ep.start, ep.end) for ep in monitor.episodes],
    }


def fingerprint_digest(fp: Dict[str, object]) -> str:
    """sha256 hex digest of a :func:`fingerprint`'s canonical JSON form.

    Levels are already strings and episode ends may be ``None`` (open
    episodes), both of which JSON carries natively; tuples collapse to
    lists, which is fine because digests are only ever compared to
    other digests.  Used by the fault campaigns to compare whole runs
    across executor backends by a single stable token.
    """
    # Imported lazily: repro.io initializes through the experiments and
    # runtime packages, which build on this module.
    from repro.io.canonical import canonical_json, sha256_hex

    return sha256_hex(canonical_json(fp))


def run_backend(sc: DiffScenario, backend: str) -> Dict[str, object]:
    """Run *sc* to its horizon on kernel *backend*; return the fingerprint."""
    kernel, monitor = build_kernel(sc, backend)
    return fingerprint(kernel.run(sc.horizon), kernel, monitor)


def _heads(jobs: Iterable[Job]) -> List[Job]:
    """Each task's earliest pending job (intra-task precedence)."""
    head: Dict[int, Job] = {}
    for j in jobs:
        cur = head.get(j.task.task_id)
        if cur is None or j.index < cur.index:
            head[j.task.task_id] = j
    return list(head.values())


def scratch_assignment(kernel: MC2Kernel) -> List[Optional[Job]]:
    """The MC² assignment (Fig. 1) recomputed from the kernel's job pools.

    Reads none of the kernel's dispatch indexes: level A in table (RM)
    order and level B by EDF on each CPU, GEL-v over each level-C task's
    earliest pending job on the CPUs left, then level-D background on
    the rest — running D jobs stay in place, the others fill FIFO.  A D
    job still running on a CPU a higher level just took is not eligible
    elsewhere until that CPU deschedules it, so this is the assignment
    for the state just *before* the kernel applies one.
    """
    m = kernel.taskset.m
    assignment: List[Optional[Job]] = [None] * m
    for p in range(m):
        if kernel.jobs_a[p]:
            assignment[p] = pick_table_driven(kernel.jobs_a[p])
        elif kernel.jobs_b[p]:
            assignment[p] = pick_edf(kernel.jobs_b[p])
    free = [p for p in range(m) if assignment[p] is None]
    for p, job in select_gel_jobs(_heads(kernel.jobs_c), free).items():
        assignment[p] = job
    left = [p for p in range(m) if assignment[p] is None]
    pool = [j for j in _heads(kernel.jobs_d) if j.running_on is None or j.running_on in left]
    for p in left:
        cur = kernel.processors[p].current
        if cur is not None and cur in pool:
            assignment[p] = cur
            pool.remove(cur)
    for p in left:
        if assignment[p] is None and pool:
            assignment[p] = nxt = pick_best_effort(pool)
            pool.remove(nxt)
    return assignment


def _names(assignment: Sequence[Optional[Job]]) -> List[Optional[str]]:
    return [None if j is None else f"{j.task.task_id}.{j.index}" for j in assignment]


def check_dispatches(kernel: MC2Kernel) -> None:
    """Check every assignment *kernel* applies against :func:`scratch_assignment`.

    Wraps this reference kernel's ``_apply_assignment``: each assignment
    is compared with the policies' selection before it is applied, and
    the first difference raises :class:`AssertionError` naming the
    instant and both assignments (as ``task.job`` per CPU).  Comparing
    after the apply would not work: level-D dispatch is not idempotent.
    """
    apply = kernel._apply_assignment

    def checked(assignment: Sequence[Optional[Job]], now: float) -> None:
        expected = scratch_assignment(kernel)
        if list(assignment) != expected:
            raise AssertionError(
                f"t={now}: dispatched {_names(assignment)}, "
                f"the policies select {_names(expected)}"
            )
        apply(assignment, now)

    kernel._apply_assignment = checked  # type: ignore[method-assign]


def compare_backends(sc: DiffScenario) -> DiffResult:
    """Run *sc* on both backends, checking every reference dispatch
    (:func:`check_dispatches`); diff the fingerprints."""
    kernel, monitor = build_kernel(sc, "reference")
    check_dispatches(kernel)
    ref = fingerprint(kernel.run(sc.horizon), kernel, monitor)
    soa = run_backend(sc, "soa")
    mismatched = tuple(k for k in ref if ref[k] != soa[k])
    return DiffResult(scenario=sc, equal=not mismatched, mismatched=mismatched)


def random_scenarios(count: int, base_seed: int = 2015) -> List[DiffScenario]:
    """*count* randomized scenarios spanning the interesting axes.

    Deterministic in *base_seed*.  Overload behaviours are weighted
    heavily and always paired with an active monitor, so the sweep
    exercises recovery (speed changes, PP actualization, timer re-arming)
    rather than mostly steady-state runs.
    """
    rng = random.Random(base_seed)
    out: List[DiffScenario] = []
    for i in range(count):
        behavior = rng.choice(
            ["SHORT", "LONG", "DOUBLE", "SHORT", "LONG", "constant", "overrun"]
        )
        if behavior in _SCENARIOS or behavior == "overrun":
            monitor = rng.choice(["simple", "adaptive"])
            use_virtual_time = True
        else:
            monitor = rng.choice(["null", "simple", "adaptive"])
            use_virtual_time = monitor != "null" or rng.random() < 0.5
        out.append(
            DiffScenario(
                seed=base_seed + i,
                m=rng.choice([2, 2, 4, 4, 8]),
                util_range=rng.choice([(0.05, 0.2), (0.1, 0.4), (0.2, 0.5)]),
                behavior=behavior,
                monitor=monitor,
                monitor_arg=(
                    rng.choice([0.25, 0.5, 0.75])
                    if monitor == "simple"
                    else rng.choice([0.25, 0.5, 1.0])
                ),
                horizon=rng.choice([1.0, 1.5, 2.0]),
                use_virtual_time=use_virtual_time,
                record_intervals=rng.random() < 0.5,
                monitor_latency=rng.choice([0.0, 0.0, 0.0, 0.001]),
                zero_every=rng.choice([0, 0, 0, 3, 5]),
                level_d_tasks=rng.choice([0, 0, 0, 2]),
            )
        )
    return out


def check_many(
    scenarios: Sequence[DiffScenario],
) -> Tuple[int, List[DiffResult]]:
    """:func:`compare_backends` every scenario; return ``(checked, failures)``."""
    failures = [r for r in map(compare_backends, scenarios) if not r.equal]
    return len(scenarios), failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: sweep randomized scenarios, exit non-zero on any divergence."""
    parser = argparse.ArgumentParser(
        description="Differential check: reference vs soa kernel backend, "
        "with every reference dispatch checked against the per-level policies"
    )
    parser.add_argument("--count", type=int, default=50, help="scenarios to run")
    parser.add_argument("--base-seed", type=int, default=2015)
    parser.add_argument(
        "--horizon", type=float, default=None, help="override every scenario's horizon"
    )
    parser.add_argument(
        "--traffic",
        choices=("poisson", "mmpp", "diurnal"),
        default=None,
        help="attach this open-system traffic preset to every scenario",
    )
    args = parser.parse_args(argv)
    scenarios = random_scenarios(args.count, args.base_seed)
    if args.horizon is not None:
        scenarios = [replace(sc, horizon=args.horizon) for sc in scenarios]
    if args.traffic is not None:
        scenarios = [replace(sc, traffic=args.traffic) for sc in scenarios]
    checked, failures = check_many(scenarios)
    for fail in failures:
        print(f"DIVERGED [{', '.join(fail.mismatched)}]: {fail.scenario.label()}")
    print(f"{checked - len(failures)}/{checked} scenarios trace-equivalent")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
