"""Open-system traffic sweeps: capacity figures beyond the paper's grid.

The paper's Figs. 6-8 script overload into fixed windows; these sweeps
let overload *emerge* from request traffic
(:mod:`repro.workload.traffic`) and plot the recovery story against the
two capacity-planning axes the ROADMAP names:

* **dissipation time vs. offered load** — homogeneous Poisson flows at
  increasing demand rates through a fixed server bank
  (:func:`figure_offered_load`); past the bank's guaranteed service
  rate the backlog stops dissipating and points truncate;
* **minimum s(t) vs. burst size** — MMPP flows whose peak dwell is
  sized to inject a target excess demand per burst
  (:func:`figure_burst_size`); bigger bursts push the monitors to
  deeper slowdowns.

Axes are expressed *per CPU* so the same sweep reads identically at
6 or 64 CPUs.  One series per recovery monitor, mean + 95 % CI over the
task sets, same presentation as :mod:`repro.experiments.figures`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.figures import FigureData, TaskSetLike, _aggregate, _as_taskset_spec
from repro.experiments.metrics import RunResult
from repro.runtime.executor import SerialBackend, SweepExecutor
from repro.runtime.spec import (
    KernelSpec,
    MonitorSpec,
    ObsSpec,
    RunSpec,
    ScenarioSpec,
)
from repro.sim.kernel import KernelConfig
from repro.workload.scenarios import CALM, OverloadScenario
from repro.workload.traffic import (
    MMPPSource,
    PoissonSource,
    ServerSpec,
    TrafficFlow,
    TrafficSpec,
)

__all__ = [
    "DEFAULT_TRAFFIC_MONITORS",
    "DEFAULT_LOADS_PER_CPU",
    "DEFAULT_BURSTS_PER_CPU",
    "poisson_traffic",
    "mmpp_traffic",
    "traffic_sweep",
    "figure_offered_load",
    "figure_burst_size",
    "render_sojourn_table",
]

#: One series per monitor: the paper's headline SIMPLE/ADAPTIVE settings.
DEFAULT_TRAFFIC_MONITORS: Tuple[MonitorSpec, ...] = (
    MonitorSpec("simple", 0.6),
    MonitorSpec("adaptive", 0.5),
)

#: Offered load per CPU (CPU-seconds of demand per second per CPU).  The
#: default server bank guarantees 0.35 CPU-s/s per CPU — just beyond the
#: generated task sets' level-C slack — so the sweep crosses from
#: comfortably served (no recovery) into bank saturation, where the busy
#: servers overload level C and dissipation climbs to the horizon.
DEFAULT_LOADS_PER_CPU: Tuple[float, ...] = (0.15, 0.3, 0.4, 0.5)

#: Burst excess per CPU (CPU-seconds of demand above baseline, per CPU).
DEFAULT_BURSTS_PER_CPU: Tuple[float, ...] = (0.02, 0.05, 0.1, 0.2)

#: Shared flow shape: small requests, tight server periods.
_MEAN_DEMAND = 0.002
_SERVER_PERIOD = 0.02
_SERVER_BUDGET = 0.004  # one server = 0.2 CPUs of guaranteed service


def _server_bank(m: int, capacity_per_cpu: float) -> ServerSpec:
    """A polling level-C bank guaranteeing ``capacity_per_cpu * m`` CPU-s/s."""
    per_server = _SERVER_BUDGET / _SERVER_PERIOD
    count = max(1, math.ceil(capacity_per_cpu * m / per_server))
    return ServerSpec(
        period=_SERVER_PERIOD, budget=_SERVER_BUDGET, level="C", count=count
    )


def poisson_traffic(
    load_per_cpu: float,
    m: int,
    seed: int = 0,
    capacity_per_cpu: float = 0.35,
) -> TrafficSpec:
    """A Poisson flow offering ``load_per_cpu * m`` CPU-s/s of demand."""
    rate = load_per_cpu * m / _MEAN_DEMAND
    return TrafficSpec(flows=(
        TrafficFlow(
            PoissonSource(rate=rate, mean_demand=_MEAN_DEMAND, seed=seed),
            _server_bank(m, capacity_per_cpu),
        ),
    ))


def mmpp_traffic(
    burst_per_cpu: float,
    m: int,
    seed: int = 0,
    base_load_per_cpu: float = 0.05,
    peak_load_per_cpu: float = 0.5,
    capacity_per_cpu: float = 0.35,
    base_dwell: float = 0.5,
) -> TrafficSpec:
    """An MMPP flow whose peak dwell injects ``burst_per_cpu * m`` CPU-s.

    The peak rate is fixed (well above the bank's guaranteed service
    rate, so every burst overloads) and the peak *dwell* is solved from
    the requested burst size:
    ``burst = (peak - base) rate x dwell x mean demand``.
    """
    base_rate = base_load_per_cpu * m / _MEAN_DEMAND
    peak_rate = peak_load_per_cpu * m / _MEAN_DEMAND
    peak_dwell = burst_per_cpu * m / ((peak_rate - base_rate) * _MEAN_DEMAND)
    return TrafficSpec(flows=(
        TrafficFlow(
            MMPPSource(
                rates=(base_rate, peak_rate),
                dwells=(base_dwell, peak_dwell),
                mean_demand=_MEAN_DEMAND,
                seed=seed,
            ),
            _server_bank(m, capacity_per_cpu),
        ),
    ))


def traffic_sweep(
    tasksets: Sequence[TaskSetLike],
    traffics: Sequence[Tuple[float, TrafficSpec]],
    monitors: Sequence[MonitorSpec] = DEFAULT_TRAFFIC_MONITORS,
    scenario: OverloadScenario = CALM,
    horizon: float = 10.0,
    config: Optional[KernelConfig] = None,
    executor: Optional[SweepExecutor] = None,
    obs: Optional[ObsSpec] = None,
) -> Dict[Tuple[str, float], List[RunResult]]:
    """Run the monitor x traffic x task-set grid, one batch.

    *traffics* pairs each x-axis value with its expanded
    :class:`~repro.workload.traffic.TrafficSpec`.  Traffic cells are
    ordinary :class:`~repro.runtime.spec.RunSpec` cells — they shard,
    cache, and share task sets through any executor like the closed-grid
    sweeps.
    Returns ``{(monitor label, x): [RunResult per task set]}``.
    """
    ex = executor if executor is not None else SerialBackend()
    kernel = KernelSpec.from_config(config) if config is not None else KernelSpec()
    obs_spec = obs if obs is not None else ObsSpec()
    ts_specs = [_as_taskset_spec(ts) for ts in tasksets]
    cells = [
        (mon.label, x)
        for mon in monitors
        for x, _ in traffics
        for _ in ts_specs
    ]
    specs = [
        RunSpec(
            taskset=ts_spec,
            scenario=ScenarioSpec.from_scenario(scenario),
            monitor=mon,
            kernel=kernel,
            horizon=horizon,
            obs=obs_spec,
            traffic=tspec,
        )
        for mon in monitors
        for _, tspec in traffics
        for ts_spec in ts_specs
    ]
    runs = ex.run(specs)
    results: Dict[Tuple[str, float], List[RunResult]] = {}
    for cell, run in zip(cells, runs):
        results.setdefault(cell, []).append(run)
    return results


def render_sojourn_table(
    results: Dict[Tuple[str, float], List[RunResult]], xlabel: str = "x"
) -> str:
    """Per-request queueing metrics of a traffic sweep, one row per cell.

    Sojourn samples are pooled across the cell's task sets by combining
    counts and (count-weighted) means; percentiles/max are the worst per
    cell across task sets — conservative, and computable from the
    per-run :class:`~repro.experiments.metrics.SojournStats` alone.
    """
    lines = [f"{'monitor':<18} {xlabel:>10}  per-request sojourn"]
    for (label, x) in sorted(results, key=lambda k: (k[0], k[1])):
        stats = [r.sojourn for r in results[(label, x)] if r.sojourn is not None]
        if not stats:
            continue
        requests = sum(s.requests for s in stats)
        served = sum(s.served for s in stats)
        mean = (
            sum(s.mean_s * s.served for s in stats) / served if served else 0.0
        )
        p50 = max(s.p50_s for s in stats)
        p95 = max(s.p95_s for s in stats)
        peak = max(s.max_s for s in stats)
        lines.append(
            f"{label:<18} {x:>10.3f}  "
            f"requests={requests:6d} served={served:6d}  "
            f"mean={mean * 1e3:8.2f} ms  p50={p50 * 1e3:8.2f} ms  "
            f"p95={p95 * 1e3:8.2f} ms  max={peak * 1e3:8.2f} ms"
        )
    return "\n".join(lines)


def figure_offered_load(
    tasksets: Sequence[TaskSetLike],
    m: int,
    loads_per_cpu: Sequence[float] = DEFAULT_LOADS_PER_CPU,
    monitors: Sequence[MonitorSpec] = DEFAULT_TRAFFIC_MONITORS,
    horizon: float = 10.0,
    seed: int = 0,
    config: Optional[KernelConfig] = None,
    executor: Optional[SweepExecutor] = None,
    obs: Optional[ObsSpec] = None,
    results_out: Optional[Dict[Tuple[str, float], List[RunResult]]] = None,
) -> FigureData:
    """Traffic figure A: dissipation time vs. offered load per CPU.

    *results_out*, when given, receives the raw per-cell
    :class:`RunResult` lists (keyed ``(monitor label, x)``) so callers
    can report per-request sojourn metrics alongside the figure.
    """
    traffics = [
        (load, poisson_traffic(load, m, seed=seed)) for load in loads_per_cpu
    ]
    results = traffic_sweep(
        tasksets, traffics, monitors=monitors, horizon=horizon,
        config=config, executor=executor, obs=obs,
    )
    if results_out is not None:
        results_out.update(results)
    return _aggregate(
        "Fig. T1",
        f"Dissipation time vs offered load (Poisson, m={m})",
        "offered load per CPU (CPU-s/s)",
        "dissipation time (s)",
        results,
        value="dissipation",
    )


def figure_burst_size(
    tasksets: Sequence[TaskSetLike],
    m: int,
    bursts_per_cpu: Sequence[float] = DEFAULT_BURSTS_PER_CPU,
    monitors: Sequence[MonitorSpec] = DEFAULT_TRAFFIC_MONITORS,
    horizon: float = 10.0,
    seed: int = 0,
    config: Optional[KernelConfig] = None,
    executor: Optional[SweepExecutor] = None,
    obs: Optional[ObsSpec] = None,
    results_out: Optional[Dict[Tuple[str, float], List[RunResult]]] = None,
) -> FigureData:
    """Traffic figure B: minimum s(t) vs. burst size per CPU.

    *results_out* as in :func:`figure_offered_load`.
    """
    traffics = [
        (burst, mmpp_traffic(burst, m, seed=seed)) for burst in bursts_per_cpu
    ]
    results = traffic_sweep(
        tasksets, traffics, monitors=monitors, horizon=horizon,
        config=config, executor=executor, obs=obs,
    )
    if results_out is not None:
        results_out.update(results)
    return _aggregate(
        "Fig. T2",
        f"Minimum s(t) vs burst size (MMPP, m={m})",
        "burst excess per CPU (CPU-s)",
        "minimum virtual-time speed",
        results,
        value="min_speed",
    )
