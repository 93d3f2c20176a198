"""Frozen, hashable run specifications — one grid cell, declaratively.

A :class:`RunSpec` pins down everything that determines one overload
experiment's :class:`~repro.experiments.metrics.RunResult`:

* **which task set** (:class:`TaskSetSpec`): a generator seed plus
  :class:`~repro.workload.generator.GeneratorParams`, or an inline
  task-set JSON document for externally supplied workloads.  Workers
  reconstruct the task set on their side of the process boundary, so a
  spec is always cheaply picklable;
* **which overload** (:class:`ScenarioSpec`): the scenario's windows and
  overload level, by value (not by reference to a module constant);
* **which monitor** (:class:`MonitorSpec`): a registry key plus
  parameters — the plugin surface of
  :mod:`repro.runtime.registry`;
* **which kernel** (:class:`KernelSpec`): the JSON-able subset of
  :class:`~repro.sim.kernel.KernelConfig`;
* **run scale**: horizon, confirmation window, level-C budgets.

Everything is a plain frozen dataclass of primitives, so specs are
hashable (usable as dict keys), picklable (shippable to worker
processes) and canonically serializable
(:mod:`repro.io.runspec_json`), which is what makes the on-disk result
cache content-addressed: two specs with the same canonical JSON are the
same experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.io.codec import document
from repro.model.taskset import TaskSet
from repro.runtime.registry import monitor_registry
from repro.sim.kernel import KernelConfig
from repro.util.validation import store_floats
from repro.workload.generator import GeneratorParams, generate_taskset
from repro.workload.scenarios import OverloadScenario
from repro.workload.traffic import TrafficSpec

__all__ = [
    "TaskSetSpec",
    "ScenarioSpec",
    "MonitorSpec",
    "KernelSpec",
    "ObsSpec",
    "RunSpec",
]


@dataclass(frozen=True)
class TaskSetSpec:
    """A reconstructible reference to a task set.

    Exactly one of ``seed`` / ``inline`` is set:

    * ``seed`` (+ optional ``params``) — regenerate with the Sec. 5
      methodology (:func:`repro.workload.generator.generate_taskset`).
      This is the canonical form: cheap to ship, stable to hash.
    * ``inline`` — a ``repro-taskset`` JSON document (see
      :mod:`repro.io.taskset_json`) embedded verbatim, for task sets
      that did not come from the generator.
    """

    seed: Optional[int] = None
    params: Optional[GeneratorParams] = None
    inline: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.seed is None) == (self.inline is None):
            raise ValueError("TaskSetSpec needs exactly one of seed= or inline=")
        if self.inline is not None and self.params is not None:
            raise ValueError("params only apply to generated task sets (seed=...)")

    @classmethod
    def generated(cls, seed: int, params: Optional[GeneratorParams] = None) -> "TaskSetSpec":
        """Reference the generator output for *seed* (+ *params*)."""
        return cls(seed=seed, params=params)

    @classmethod
    def from_taskset(cls, ts: TaskSet) -> "TaskSetSpec":
        """Embed an existing task set by value (lossless JSON form)."""
        from repro.io.taskset_json import taskset_to_json

        return cls(inline=taskset_to_json(ts))

    def materialize(self) -> TaskSet:
        """Build the actual :class:`~repro.model.taskset.TaskSet`."""
        if self.inline is not None:
            from repro.io.taskset_json import taskset_from_json

            return taskset_from_json(self.inline)
        return generate_taskset(self.seed, self.params)

    def materialize_shared(
        self, tasksets: Optional[Dict["TaskSetSpec", TaskSet]]
    ) -> TaskSet:
        """:meth:`materialize` at most once per *tasksets* sharing scope.

        Every cell an executor runs in one scope (one serial ``run()``,
        one pool slice, one file-queue shard, one service lease grant)
        passes the same dict, so cells that reference the same task set
        reuse one instance — safe because a
        :class:`~repro.model.taskset.TaskSet` is immutable and no
        simulation mutates it.  ``None`` materializes afresh.
        """
        if tasksets is None:
            return self.materialize()
        ts = tasksets.get(self)
        if ts is None:
            ts = tasksets[self] = self.materialize()
        return ts

    @property
    def label(self) -> str:
        """Short display form, e.g. ``seed:2015`` or ``inline(23 tasks)``."""
        if self.seed is not None:
            return f"seed:{self.seed}"
        return f"inline({self.inline.count('task_id')} tasks)"


@dataclass(frozen=True)
class ScenarioSpec:
    """An overload scenario by value: named windows at an overload level.

    An empty ``windows`` tuple is valid (e.g. ``CALM``): no scripted
    overload — used for open-system runs where overload comes from a
    :class:`~repro.workload.traffic.TrafficSpec` instead.
    """

    name: str
    windows: Tuple[Tuple[float, float], ...]
    overload_level: str = "B"

    def __post_init__(self) -> None:
        # Floats, as a JSON reload gives back (see store_floats).
        windows = tuple((float(a), float(b)) for a, b in self.windows)
        object.__setattr__(self, "windows", windows)

    @classmethod
    def from_scenario(cls, sc: OverloadScenario) -> "ScenarioSpec":
        return cls(
            name=sc.name,
            windows=tuple((w.start, w.end) for w in sc.windows),
            overload_level=sc.overload_level.name,
        )

    def build(self) -> OverloadScenario:
        """The equivalent :class:`~repro.workload.scenarios.OverloadScenario`."""
        from repro.model.behavior import OverloadWindow
        from repro.model.task import CriticalityLevel

        return OverloadScenario(
            name=self.name,
            windows=tuple(OverloadWindow(a, b) for a, b in self.windows),
            overload_level=CriticalityLevel[self.overload_level],
        )


@dataclass(frozen=True)
class MonitorSpec:
    """Declarative monitor choice for the sweeps.

    ``kind`` is a key in :data:`repro.runtime.registry.monitor_registry`;
    the built-in kinds are:

    * ``"simple"`` — Algorithm 3; ``param`` = recovery speed ``s``.
    * ``"adaptive"`` — Algorithm 4; ``param`` = aggressiveness ``a``.
    * ``"stepped"`` — extension: SIMPLE with gradual restoration;
      ``param`` = ``s``, ``extra`` = step factor (default 2.0).
    * ``"clamped"`` — extension: ADAPTIVE with a speed floor;
      ``param`` = ``a``, ``extra`` = floor (default 0.2).
    * ``"none"`` — no mechanism (baseline).

    Registered third-party kinds (``examples/custom_monitor.py``) work
    everywhere a built-in does — sweeps, the CLI's ``--monitor``, the
    result cache — because both :meth:`build` and :attr:`label` derive
    from the registry entry.
    """

    kind: str
    param: Optional[float] = 1.0
    extra: Optional[float] = None

    def __post_init__(self) -> None:
        entry = monitor_registry.get(self.kind)  # raises listing known kinds
        if entry.validate is not None:
            entry.validate(self.param)
        store_floats(self, "param", "extra")

    def _resolved_extra(self) -> Optional[float]:
        if self.extra is not None:
            return self.extra
        return monitor_registry.get(self.kind).default_extra

    def build(self, kernel) -> "Monitor":  # noqa: F821 - forward ref, avoids core import
        """Instantiate the monitor against *kernel* via the registry."""
        entry = monitor_registry.get(self.kind)
        return entry.build(kernel, self.param, self._resolved_extra())

    @property
    def label(self) -> str:
        """Display label, e.g. ``SIMPLE(s=0.6)`` — also registry-derived."""
        entry = monitor_registry.get(self.kind)
        return entry.label(self.param, self._resolved_extra())


@document(omit_default=("backend",))
@dataclass(frozen=True)
class KernelSpec:
    """The serializable subset of :class:`~repro.sim.kernel.KernelConfig`.

    ``release_delay`` (an arbitrary callable) has no canonical JSON form
    and is deliberately absent: sporadic-jitter experiments go through
    :func:`~repro.experiments.runner.run_overload_experiment` directly.

    ``backend`` selects the simulator core
    (:data:`repro.sim.backend.kernel_backend_registry`); it is part of
    the canonical JSON whenever it differs from ``"reference"``, so
    results produced by different backends never share a result-cache
    key.  (Backends are gated to byte-identical traces, but the cache
    must stay honest about *what produced* an entry.)
    """

    use_virtual_time: bool = True
    record_intervals: bool = False
    monitor_latency: float = 0.0
    measure_overhead: bool = False
    backend: str = "reference"

    def __post_init__(self) -> None:
        from repro.sim.backend import kernel_backend_registry

        kernel_backend_registry.get(self.backend)  # raises listing known kinds
        store_floats(self, "monitor_latency")

    @classmethod
    def from_config(cls, config: KernelConfig) -> "KernelSpec":
        if config.release_delay is not None:
            raise ValueError(
                "KernelConfig.release_delay is a callable and cannot be captured "
                "in a RunSpec; call run_overload_experiment directly instead"
            )
        return cls(
            use_virtual_time=config.use_virtual_time,
            record_intervals=config.record_intervals,
            monitor_latency=config.monitor_latency,
            measure_overhead=config.measure_overhead,
            backend=config.backend,
        )

    def to_config(self) -> KernelConfig:
        return KernelConfig(
            use_virtual_time=self.use_virtual_time,
            record_intervals=self.record_intervals,
            monitor_latency=self.monitor_latency,
            measure_overhead=self.measure_overhead,
            backend=self.backend,
        )


@dataclass(frozen=True)
class ObsSpec:
    """Observability configuration for a run (:mod:`repro.obs`).

    Observability is **result-neutral by construction** — tracers and
    metrics only observe, they never alter scheduling decisions — so
    this spec is deliberately *excluded* from the canonical JSON and
    hence from the result-cache key: tracing a sweep does not
    invalidate its cached cells, and two specs differing only in
    ``obs`` are the same experiment.  (Note the corollary: a cell
    served from the cache was not re-simulated, so it produces no
    trace file.)

    Attributes
    ----------
    trace_dir:
        Write one JSONL event trace per simulated cell into this
        directory (created on demand); ``None`` disables tracing.
    trace_name:
        File-name override for single-run use; the default is
        ``run-<spec key prefix>.jsonl``.
    """

    trace_dir: Optional[str] = None
    trace_name: Optional[str] = None

    @property
    def tracing(self) -> bool:
        """Whether a trace file should be produced."""
        return self.trace_dir is not None


@document(
    header=("repro-runspec", 1),
    omit_default=("obs", "traffic"),
    unkeyed=("obs",),
    order=("taskset", "scenario", "monitor", "kernel", "horizon",
           "confirm_window", "level_c_budgets", "traffic", "obs"),
)
@dataclass(frozen=True)
class RunSpec:
    """One sweep cell: everything that determines one ``RunResult``.

    Executing a spec is :func:`repro.runtime.executor.run_spec`; hashing
    it is :meth:`key` (sha256 of the canonical JSON, the result cache's
    address).  Simulation is deterministic given a spec — the only
    randomness is the task-set generator, whose seed the spec pins — so
    equal keys mean bit-for-bit equal results.  The ``obs`` component
    is observation-only and excluded from the hash (see
    :class:`ObsSpec`).  ``obs`` and ``traffic`` are written only when
    set, after the older fields, so earlier documents keep their bytes.
    """

    taskset: TaskSetSpec
    scenario: ScenarioSpec
    monitor: MonitorSpec
    kernel: KernelSpec = field(default_factory=KernelSpec)
    horizon: float = 30.0
    confirm_window: float = 0.5
    level_c_budgets: bool = True
    obs: ObsSpec = field(default_factory=ObsSpec)
    #: Open-system workload (:class:`~repro.workload.traffic.TrafficSpec`):
    #: seeded arrival sources served by aperiodic server tasks appended to
    #: the materialized task set at run time.  Enters the canonical JSON
    #: only when set, so pre-traffic specs keep their exact cache keys.
    traffic: Optional[TrafficSpec] = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.confirm_window < 0:
            raise ValueError(f"confirm_window must be >= 0, got {self.confirm_window}")
        # Refused when built or decoded, not at attach_monitor inside the
        # run: plain GEL (no virtual clock) supports only the "none" monitor.
        if not self.kernel.use_virtual_time and self.monitor.kind != "none":
            raise ValueError(
                "active monitors require use_virtual_time=True; the plain-GEL "
                "baseline only supports the 'none' monitor"
            )
        store_floats(self, "horizon", "confirm_window")

    def canonical_json(self) -> str:
        """Canonical JSON form (sorted keys, no incidental whitespace)."""
        from repro.io.runspec_json import runspec_canonical_json

        return runspec_canonical_json(self)

    def key(self) -> str:
        """Content address: sha256 hex digest of :meth:`canonical_json`."""
        from repro.io.runspec_json import spec_key

        return spec_key(self)
