"""Sweep executors: run many :class:`RunSpec` cells, serially or in parallel.

The evaluation grids are embarrassingly parallel — cells share nothing —
so the executor interface is simply *"here are N specs, give me N
results in order"*:

* :class:`SerialBackend` runs cells in the calling process (the old
  nested-loop behaviour, now with caching);
* :class:`ProcessPoolBackend` fans cells out over a
  :class:`concurrent.futures.ProcessPoolExecutor` in chunks.  Specs are
  small frozen dataclasses, so only the spec crosses the process
  boundary; the worker reconstructs the task set from its seed (or
  inline JSON) on its own side.

Both backends share the cache protocol: before simulating, each cell's
:meth:`~repro.runtime.spec.RunSpec.key` is looked up in the optional
:class:`~repro.runtime.cache.ResultCache`; only misses are simulated,
and fresh results are written back.  :attr:`SweepExecutor.stats`
reports, per ``run()`` call, how many cells were served from cache and
how many were actually simulated — the number a fully warmed cache
drives to zero.

Determinism: a cell's result depends only on its spec (the task-set
seed pins the single source of randomness), so backend choice and job
count never change the aggregated figures — only the wall clock.

**Sharing scopes**: sweep grids usually share a handful of task-set
specs (the seed axis) across many cells (the scenario x monitor axes),
and for short-horizon cells task-set generation is a large fraction of
the cost.  Every executor therefore runs its cells through one
per-cell loop (``run_cells`` of the cell kind, in
:mod:`repro.runtime.shard`) with a sharing scope — a dict in which each
distinct ``TaskSetSpec`` is materialized once
(:meth:`~repro.runtime.spec.TaskSetSpec.materialize_shared`).  A scope
is one serial ``run()`` call or one pool slice here (the slice runner
:func:`~repro.runtime.shard.run_local`, which in-memory fault campaigns
use too), one file-queue shard, one lease grant in
:mod:`repro.serve.worker` — never process-wide.  Sharing is safe
because :class:`~repro.model.taskset.TaskSet` is immutable and
simulation never mutates it, so results are bit-for-bit those of fresh
materialization.

A scope also keeps each *quiet* run, one that counted no
response-time-tolerance miss, under its spec with the monitor removed:
cells of a monitor sweep that differ only in a built-in monitor run the
same schedule until the first miss (the quiet-run guarantee of
:mod:`repro.core.monitor`), so a later cell of a quiet group is the
kept result under its own monitor label, with no simulation of its
own (:func:`run_spec`).  Traced cells, fault cells and third-party
monitor kinds always simulate.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.metrics import RunResult
from repro.model.taskset import TaskSet
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.report import CellReport, SweepReport
from repro.runtime.cache import ResultCache
from repro.runtime.registry import acts_only_on_miss
from repro.runtime.spec import MonitorSpec, RunSpec, TaskSetSpec

__all__ = [
    "simulate_spec",
    "run_spec",
    "SweepStats",
    "PoolDegradation",
    "map_pool_resilient",
    "SweepExecutor",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_executor",
]


def simulate_spec(
    spec: RunSpec,
    tasksets: Optional[Dict[TaskSetSpec, TaskSet]],
    trace_header: Callable[[], Tuple[str, Dict[str, Any]]],
    **options: Any,
):
    """The one ``RunSpec`` -> run body behind :func:`run_spec` and
    :func:`repro.faults.campaign.run_cell`.

    Materializes the task set in the sharing scope *tasksets* (``None``:
    afresh, same result), opens the :class:`~repro.obs.tracer.JsonlTracer`
    ``spec.obs`` asks for (*trace_header* gives its default file name
    and meta header) and returns
    :func:`~repro.experiments.runner.run_overload_experiment` run with
    every ``RunSpec`` field and *options* (``keep_artifacts``,
    ``fault_plane``).
    """
    from repro.experiments.runner import run_overload_experiment

    ts = spec.taskset.materialize_shared(tasksets)
    tracer = None
    if spec.obs.tracing:
        from repro.obs.tracer import JsonlTracer

        name, meta = trace_header()
        os.makedirs(spec.obs.trace_dir, exist_ok=True)
        tracer = JsonlTracer(
            os.path.join(spec.obs.trace_dir, spec.obs.trace_name or name), meta=meta
        )
    try:
        return run_overload_experiment(
            ts,
            spec.scenario.build(),
            spec.monitor,
            horizon=spec.horizon,
            confirm_window=spec.confirm_window,
            config=spec.kernel.to_config(),
            level_c_budgets=spec.level_c_budgets,
            tracer=tracer,
            traffic=spec.traffic,
            **options,
        )
    finally:
        if tracer is not None:
            tracer.close()


#: The monitor of the key a quiet run is kept under in a sharing scope.
_NO_MONITOR = MonitorSpec("none")


def run_spec(spec: RunSpec, tasksets: Optional[Dict[Any, Any]] = None) -> RunResult:
    """Execute one sweep cell in the sharing scope *tasksets*.

    Custom monitor kinds must be registered at *import* time of a module
    pool workers also import — with the default ``fork`` start method on
    Linux, anything registered in the parent is simply inherited.  A
    traced run streams its events to ``<trace_dir>/run-<key
    prefix>.jsonl``; tracing is observation only.

    An untraced cell of a built-in monitor kind
    (:func:`~repro.runtime.registry.acts_only_on_miss`) keeps a quiet
    result, one with ``miss_count == 0``, in the scope under its spec
    with the monitor removed, and returns a kept one, relabelled,
    instead of simulating.  By the quiet-run guarantee of
    :mod:`repro.core.monitor` that is the cell's own run, byte for byte.
    """
    group = None
    if tasksets is not None and not spec.obs.tracing and acts_only_on_miss(spec.monitor.kind):
        group = dataclasses.replace(spec, monitor=_NO_MONITOR)
        quiet = tasksets.get(group)
        if quiet is not None:
            return dataclasses.replace(quiet, monitor=spec.monitor.label)
    result = simulate_spec(
        spec,
        tasksets,
        lambda: (
            f"run-{spec.key()[:12]}.jsonl",
            {
                "spec_key": spec.key(),
                "scenario": spec.scenario.name,
                "monitor": spec.monitor.label,
            },
        ),
    )
    assert isinstance(result, RunResult)
    if group is not None and result.miss_count == 0:
        tasksets[group] = result
    return result


@dataclass(frozen=True)
class SweepStats:
    """What one ``run()`` call actually did."""

    #: Cells requested.
    cells_total: int = 0
    #: Cells computed (cache misses).  A cell that shares a quiet run
    #: (:func:`run_spec`) counts here, though it had no simulation of
    #: its own.
    cells_simulated: int = 0
    #: Cells served from the result cache.
    cache_hits: int = 0
    #: Cells re-dispatched to a fresh pool after a worker death.
    pool_retried: int = 0
    #: Cells that fell back to in-process execution (the retry pool
    #: broke too).
    pool_serial_fallback: int = 0
    #: ``BrokenProcessPool`` events absorbed while executing.
    pool_breaks: int = 0


@dataclass(frozen=True)
class PoolDegradation:
    """How far a pool execution had to degrade to finish (see
    :func:`map_pool_resilient`)."""

    retried: int = 0
    serial_fallback: int = 0
    breaks: int = 0


def map_pool_resilient(
    fn,
    items: Sequence,
    workers: int,
    chunksize: int,
    on_result=None,
) -> Tuple[list, PoolDegradation]:
    """``pool.map(fn, items)`` that survives worker death.

    A killed worker (OOM, SIGKILL, interpreter crash) surfaces as
    :class:`concurrent.futures.process.BrokenProcessPool`, which by
    default poisons the whole sweep.  Because ``pool.map`` yields
    results strictly in submission order, everything collected before
    the break is valid — so the remainder is re-dispatched once on a
    fresh pool, and if that pool breaks too, the stragglers run
    in-process (``fn`` is deterministic, so a re-run is equivalent).
    Returns the in-order results plus a :class:`PoolDegradation`
    record of how far execution had to degrade.
    """
    items = list(items)
    results: list = []
    breaks = 0
    retried = 0
    for attempt in range(2):
        remaining = items[len(results):]
        if not remaining:
            break
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(remaining))
            ) as pool:
                for res in pool.map(fn, remaining, chunksize=chunksize):
                    results.append(res)
                    if on_result is not None:
                        on_result(res)
            break
        except concurrent.futures.process.BrokenProcessPool:
            breaks += 1
            if attempt == 0:
                retried = len(items) - len(results)
    serial_fallback = len(items) - len(results)
    for item in items[len(results):]:
        res = fn(item)
        results.append(res)
        if on_result is not None:
            on_result(res)
    return results, PoolDegradation(
        retried=retried, serial_fallback=serial_fallback, breaks=breaks
    )


class SweepExecutor:
    """Common sweep front-end: cache lookups around a simulation backend.

    Subclasses implement :meth:`_execute` (simulate these specs, in
    order, reporting each cell's wall time); the base class handles
    cache consultation, write-back and accounting.  ``stats`` describes
    the most recent :meth:`run`; ``total`` accumulates across the
    executor's lifetime.

    Observability (:mod:`repro.obs`) is layered on top: every
    :meth:`run` rebuilds ``report`` (a per-cell
    :class:`~repro.obs.report.SweepReport` — cache status, wall time,
    truncation), per-cell wall times feed the ``executor.cell.ns``
    histogram of ``metrics``, and an optional
    :class:`~repro.obs.progress.ProgressReporter` gets a tick as each
    cell lands.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.progress = progress
        self.stats = SweepStats()
        self.total = SweepStats()
        self.report = SweepReport()
        #: Optional path: when set (``--merged-out``), every :meth:`run`
        #: also writes the canonical merged artifact + its sibling
        #: ``repro-provenance`` manifest there, byte-identical to a
        #: sharded campaign of the same cells at ``merged_shard_size``.
        self.merged_out: Optional[str] = None
        self.merged_shard_size: int = 16
        #: How far the most recent backend execution degraded (set by
        #: pool backends; stays pristine for serial execution).
        self._degradation = PoolDegradation()

    def _execute(self, specs: Sequence[RunSpec]) -> List[Tuple[RunResult, int]]:
        """Simulate *specs*, in order, reporting ``(result, wall_ns)`` per cell."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the executor holds open between runs (nothing here;
        a service connection for :class:`~repro.serve.client.ServiceBackend`)."""

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _run_local(
        self, specs: Sequence[RunSpec], jobs: int, chunksize: Optional[int] = None
    ) -> List[Tuple[RunResult, int]]:
        """:meth:`_execute` in this process or on a pool of *jobs* processes,
        through :func:`~repro.runtime.shard.run_local`."""
        # Imported lazily: shard builds on this module.
        from repro.runtime.shard import get_kind, run_local

        rows, self._degradation = run_local(
            get_kind("sweep"),
            specs,
            jobs,
            chunksize,
            on_cell=lambda row: self._cell_finished(row[2]),
        )
        return [(result, wall_ns) for result, _cached, wall_ns in rows]

    def _cell_finished(self, wall_ns: int) -> None:
        """Backend hook: one cell just finished simulating."""
        self.metrics.histogram("executor.cell.ns").record(wall_ns)
        if self.progress is not None:
            self.progress.cell_done(cached=False)

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Results for *specs*, in the same order."""
        specs = list(specs)
        keys: List[str] = [""] * len(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        miss_idx: List[int] = []
        if self.cache is not None:
            keys = [s.key() for s in specs]
            for i, key in enumerate(keys):
                hit = self.cache.get(key)
                if hit is not None:
                    results[i] = hit
                else:
                    miss_idx.append(i)
        else:
            miss_idx = list(range(len(specs)))
        cached = [r is not None for r in results]

        if self.progress is not None:
            self.progress.begin(len(specs))
            for _ in range(len(specs) - len(miss_idx)):
                self.progress.cell_done(cached=True)

        wall = [0] * len(specs)
        self._degradation = PoolDegradation()
        if miss_idx:
            timed = self._execute([specs[i] for i in miss_idx])
            for i, (result, wall_ns) in zip(miss_idx, timed):
                results[i] = result
                wall[i] = wall_ns
                if self.cache is not None:
                    from repro.io.runspec_json import runspec_to_dict

                    self.cache.put(keys[i], runspec_to_dict(specs[i]), result)

        if self.progress is not None:
            self.progress.finish()

        return self._finish_run(
            specs,
            keys,
            results,  # type: ignore[arg-type]
            cached,
            wall,
            simulated=len(miss_idx),
            degradation=self._degradation,
        )

    def _finish_run(
        self,
        specs: Sequence[RunSpec],
        keys: Sequence[str],
        results: List[RunResult],
        cached: Sequence[bool],
        wall_ns: Sequence[int],
        simulated: int,
        degradation: PoolDegradation,
    ) -> List[RunResult]:
        """Record one finished :meth:`run` and return its *results*.

        The one tail of every backend's ``run()``: rebuilds ``report``
        from the per-cell *keys* (``""`` when unknown), *cached* flags
        and *wall_ns*, bumps the ``executor.*`` counters, sets ``stats``
        (*simulated* cells, the rest counted as cache hits, pool
        figures from *degradation*), adds it into ``total``, and writes
        the ``--merged-out`` artifact when one is requested.
        """
        self.report = SweepReport(
            cells=[
                CellReport(
                    index=i,
                    key=key[:12],
                    scenario=spec.scenario.name,
                    monitor=spec.monitor.label,
                    cached=hit,
                    wall_ns=ns,
                    sim_end=result.sim_end,
                    events=result.events,
                    truncated=result.truncated,
                    backend=spec.kernel.backend,
                )
                for i, (spec, key, result, hit, ns) in enumerate(
                    zip(specs, keys, results, cached, wall_ns)
                )
            ]
        )
        n = len(specs)
        self.metrics.counter("executor.cells").inc(n)
        self.metrics.counter("executor.cache_hits").inc(n - simulated)
        self.stats = SweepStats(
            cells_total=n,
            cells_simulated=simulated,
            cache_hits=n - simulated,
            pool_retried=degradation.retried,
            pool_serial_fallback=degradation.serial_fallback,
            pool_breaks=degradation.breaks,
        )
        self.total = SweepStats(
            *(
                getattr(self.total, f.name) + getattr(self.stats, f.name)
                for f in fields(SweepStats)
            )
        )
        if self.merged_out:
            # Imported lazily: shard builds on this module.
            from repro.runtime.shard import write_results_artifact

            write_results_artifact(
                specs, results, self.merged_out, shard_size=self.merged_shard_size
            )
        return results


class SerialBackend(SweepExecutor):
    """Simulate cells one after another in the calling process.

    The whole miss list of one ``run()`` call is one sharing scope.
    """

    def _execute(self, specs: Sequence[RunSpec]) -> List[Tuple[RunResult, int]]:
        return self._run_local(specs, 1)


class ProcessPoolBackend(SweepExecutor):
    """Simulate cells across a pool of worker processes.

    Parameters
    ----------
    jobs:
        Worker count (default: ``os.cpu_count()``).
    chunksize:
        Cells per pool task (a *slice*, one sharing scope);
        ``None`` picks ``ceil(n / (4 * jobs))``, which amortizes
        dispatch overhead while still load-balancing cells of uneven
        cost (short vs. truncated runs).
    cache:
        Optional shared result cache (consulted in the parent; workers
        never touch the disk cache).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        chunksize: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        super().__init__(cache=cache, metrics=metrics, progress=progress)
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.chunksize = chunksize

    def _execute(self, specs: Sequence[RunSpec]) -> List[Tuple[RunResult, int]]:
        return self._run_local(specs, self.jobs, self.chunksize)


def make_executor(
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    shard_size: int = 16,
    telemetry: bool = False,
    service_addr: Optional[str] = None,
    merged_out: Optional[str] = None,
) -> SweepExecutor:
    """CLI-flag-shaped factory: ``--jobs N`` / ``--cache-dir PATH``.

    ``--merged-out FILE`` makes every backend — serial and pool
    included — write the canonical merged artifact plus its sibling
    ``repro-provenance`` manifest to *FILE* after the run, so even an
    in-memory sweep leaves a verifiable (``repro-mc2 verify``) artifact
    byte-identical to a sharded campaign of the same cells.

    ``--checkpoint-dir`` selects the checkpointed
    :class:`~repro.runtime.shard.ShardedBackend`: the sweep is split
    into durable shards under *checkpoint_dir* and a killed run resumes
    from its completed shards (``repro-mc2 sweep resume``).

    ``--service HOST:PORT`` routes execution through a running
    ``repro-serve`` coordinator
    (:class:`~repro.serve.client.ServiceBackend`): the spec list is
    submitted as a content-addressed campaign and the coordinator's
    workers drain it.  The file-based backends are the degenerate
    single-machine case of the same seam — results and artifacts are
    identical either way.  Mutually exclusive with ``checkpoint_dir``
    (the coordinator owns its own campaign directories).

    ``--telemetry`` makes the sharded backend's workers write per-worker
    NDJSON telemetry streams (with kernel phase profiles) next to their
    heartbeat files.  Observation only: results and cache keys are
    identical either way.  It needs ``checkpoint_dir``: no other backend
    has a telemetry writer, so the flag is refused there.
    """
    if telemetry and not checkpoint_dir:
        raise ValueError(
            "--telemetry needs --checkpoint-dir: telemetry streams are "
            "written into the checkpointed campaign directory"
        )
    cache = ResultCache(cache_dir) if cache_dir else None
    executor: SweepExecutor
    if service_addr:
        if checkpoint_dir:
            raise ValueError("--service and --checkpoint-dir are mutually exclusive")
        # Imported lazily: repro.serve.client subclasses SweepExecutor,
        # so a top-level import here would be circular.
        from repro.serve.client import ServiceBackend

        executor = ServiceBackend(
            service_addr,
            shard_size=shard_size,
            cache=cache,
            metrics=metrics,
            progress=progress,
        )
    elif checkpoint_dir:
        # Imported lazily: shard builds on this module (and on
        # repro.faults), so a top-level import would be circular.
        from repro.runtime.shard import ShardedBackend

        executor = ShardedBackend(
            checkpoint_dir,
            jobs=jobs,
            shard_size=shard_size,
            cache=cache,
            metrics=metrics,
            progress=progress,
            telemetry=telemetry,
        )
    elif jobs <= 1:
        executor = SerialBackend(cache=cache, metrics=metrics, progress=progress)
    else:
        executor = ProcessPoolBackend(
            jobs=jobs, cache=cache, metrics=metrics, progress=progress
        )
    executor.merged_out = merged_out
    executor.merged_shard_size = shard_size
    return executor
