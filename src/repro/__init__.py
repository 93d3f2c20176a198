"""repro: Recovering from Overload in Multicore Mixed-Criticality Systems.

A from-scratch Python reproduction of Erickson, Kim & Anderson (IPPS
2015): the MC² mixed-criticality architecture with GEL-v scheduling at
level C, the SVO task model, virtual-time overload recovery with the
SIMPLE and ADAPTIVE userspace monitors, the supporting schedulability
analysis, and the paper's full experimental evaluation.

Quick start::

    from repro import (
        generate_taskset, SHORT, MonitorSpec, run_overload_experiment,
    )

    ts = generate_taskset(seed=2015)             # Sec. 5 avionics workload
    result = run_overload_experiment(ts, SHORT, MonitorSpec("simple", 0.6))
    print(result.row())                          # dissipation time etc.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.analysis import (
    DissipationBound,
    SpeedChoice,
    select_recovery_speed,
    SchedulabilityResult,
    SupplyModel,
    check_level_c,
    dissipation_bound,
    gel_response_bounds,
)
from repro.core import (
    AdaptiveMonitor,
    CompletionReport,
    Monitor,
    NullMonitor,
    SimpleMonitor,
    SpeedProfile,
    VirtualClock,
    assign_tolerances,
    gedf_relative_pps,
    gfl_relative_pps,
)
from repro.core.policies import ClampedAdaptiveMonitor, SteppedRestoreMonitor
from repro.core.tolerance import fixed_tolerances
from repro.experiments import (
    MonitorSpec,
    calibrate_tolerances,
    full_reproduction,
    RunResult,
    adaptive_sweep,
    figure6,
    figure7,
    figure8,
    measure_overheads,
    run_overload_experiment,
)
from repro.model import (
    ConstantBehavior,
    CriticalityLevel,
    Job,
    OverloadWindow,
    Task,
    TaskSet,
    TraceBehavior,
    WindowedOverloadBehavior,
)
from repro.io import taskset_from_json, taskset_to_json
from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    NullTracer,
    SpanTimer,
    summarize_trace,
    write_chrome_trace,
)
from repro.runtime import (
    KernelSpec,
    ObsSpec,
    ProcessPoolBackend,
    ResultCache,
    RunSpec,
    ScenarioSpec,
    SerialBackend,
    TaskSetSpec,
    make_executor,
    monitor_registry,
)
from repro.sim import KernelConfig, MC2Kernel, Trace, simulate
from repro.viz import svg_gantt
from repro.workload import (
    DOUBLE,
    LONG,
    SHORT,
    GeneratorParams,
    OverloadScenario,
    generate_taskset,
    generate_tasksets,
    standard_scenarios,
)

__version__ = "1.0.0"

__all__ = [
    # model
    "CriticalityLevel",
    "Task",
    "Job",
    "TaskSet",
    "ConstantBehavior",
    "TraceBehavior",
    "WindowedOverloadBehavior",
    "OverloadWindow",
    # core
    "VirtualClock",
    "SpeedProfile",
    "Monitor",
    "NullMonitor",
    "SimpleMonitor",
    "AdaptiveMonitor",
    "ClampedAdaptiveMonitor",
    "SteppedRestoreMonitor",
    "CompletionReport",
    "gfl_relative_pps",
    "gedf_relative_pps",
    "assign_tolerances",
    "fixed_tolerances",
    # analysis
    "SupplyModel",
    "gel_response_bounds",
    "check_level_c",
    "SchedulabilityResult",
    "dissipation_bound",
    "DissipationBound",
    "SpeedChoice",
    "select_recovery_speed",
    # sim
    "MC2Kernel",
    "KernelConfig",
    "Trace",
    "simulate",
    # workload
    "generate_taskset",
    "generate_tasksets",
    "GeneratorParams",
    "OverloadScenario",
    "SHORT",
    "LONG",
    "DOUBLE",
    "standard_scenarios",
    # runtime
    "RunSpec",
    "TaskSetSpec",
    "ScenarioSpec",
    "KernelSpec",
    "ObsSpec",
    "ResultCache",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_executor",
    "monitor_registry",
    # experiments
    "MonitorSpec",
    "RunResult",
    "run_overload_experiment",
    "figure6",
    "adaptive_sweep",
    "figure7",
    "figure8",
    "measure_overheads",
    "calibrate_tolerances",
    "full_reproduction",
    # obs
    "JsonlTracer",
    "NullTracer",
    "MetricsRegistry",
    "SpanTimer",
    "summarize_trace",
    "write_chrome_trace",
    "svg_gantt",
    "taskset_to_json",
    "taskset_from_json",
    "__version__",
]
