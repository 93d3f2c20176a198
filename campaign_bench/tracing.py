"""Span recorder and the wrappers the traced run installs around each seam.

The traced run never edits the simulator: :func:`install` replaces the
public functions and methods at each layer boundary (and the kernel
callbacks the runner drives) with thin wrappers that record one span per
call, and :func:`uninstall` puts every original object back.  Spans are
kept in flat in-memory arrays (:class:`SpanLog`) and written out once,
when the process ends its part of the run:

* the batch process writes its log explicitly after the timed phase;
* forked pool and file-queue workers inherit the wrappers and write
  theirs from a ``multiprocessing`` exit finalizer;
* the service coordinator and workers are started through
  ``serve_entry.py``, which installs the wrappers before ``serve`` /
  ``run_worker`` and writes the log when they return.

A span records its layer, start and end (``CLOCK_MONOTONIC``, shared by
every process on the host), the index of the enclosing span, and the
campaign position of the cell being executed (``-1`` outside a cell).
The deterministic ordinal (workload, cell, layer, call index) is
derived from record order when the logs are read back
(:func:`ordinal_lines`).
"""

from __future__ import annotations

import array
import functools
import json
import os
import pathlib
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "SpanLog",
    "install",
    "uninstall",
    "load",
    "ordinal_lines",
]

_now = time.monotonic_ns

#: Every span name the traced run can record, in a fixed order (the
#: layer id stored in a span is the index into this tuple).
LAYERS: Tuple[str, ...] = (
    "phase",
    "cell",
    "workload.materialize",
    "workload.traffic.expand",
    "workload.traffic.sojourn",
    "experiments.run",
    "model.behavior",
    "core.release",
    "core.monitor",
    "experiments.stop_check",
    "sim.kernel.run",
    "sim.kernel.build",
    "sim.kernel.finish",
    "sim.fingerprint",
    "faults.plane",
    "faults.invariants",
    "runtime.cache.put",
    "runtime.cache.get",
    "runtime.shard.work",
    "runtime.shard.lease",
    "runtime.shard.heartbeat",
    "runtime.shard.manifest",
    "runtime.shard.scan",
    "runtime.merge",
    "io.key",
    "io.encode",
    "io.decode",
    "provenance.emit",
    "serve.client.submit",
    "serve.client.wait",
    "serve.client.fetch",
    "serve.coordinator.lease",
    "serve.coordinator.cell",
    "serve.coordinator.commit",
    "serve.coordinator.heartbeat",
    "serve.coordinator.other",
    "serve.worker",
    "serve.worker.execute",
)
_ID = {name: i for i, name in enumerate(LAYERS)}

#: Coordinator request types -> the layer their handling is charged to.
_COORDINATOR_LAYER = {
    "LeaseRequest": _ID["serve.coordinator.lease"],
    "CellResult": _ID["serve.coordinator.cell"],
    "ShardDone": _ID["serve.coordinator.commit"],
    "Heartbeat": _ID["serve.coordinator.heartbeat"],
}


class SpanLog:
    """In-memory spans of one process, as parallel arrays.

    Only the thread that installed the wrappers records spans: every
    wrapped seam runs on a process's main thread (the executors' loops,
    the coordinator's event loop, the worker's lease loop).
    """

    def __init__(self, spans_dir: str, role: str, workload: str) -> None:
        self.spans_dir = spans_dir
        self.role = role
        self.workload = workload
        #: Campaign position of each cell, keyed by the cell object
        #: (``RunSpec`` or ``CampaignCell``; both hash by value).
        self.positions: Dict[Any, int] = {}
        self.counters: Dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self.layer = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.cell = array.array("i")
        self.stack: List[int] = [-1]
        self.cur_cell = -1
        self.counters = {}

    # -- recording -------------------------------------------------------
    def open(self, layer: int) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.start.append(_now())
        self.end.append(-1)
        self.parent.append(self.stack[-1])
        self.cell.append(self.cur_cell)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self.stack.pop()

    def leaf(self, layer: int, t0: int, t1: int) -> None:
        self.layer.append(layer)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self.stack[-1])
        self.cell.append(self.cur_cell)

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def innermost(self) -> int:
        """Layer id of the innermost open span (``-1`` when none is open)."""
        top = self.stack[-1]
        return self.layer[top] if top >= 0 else -1

    # -- output ----------------------------------------------------------
    def dump(self) -> pathlib.Path:
        """Write the log under ``spans_dir`` as one header line + arrays."""
        path = pathlib.Path(self.spans_dir) / f"{self.role}-{os.getpid()}.spans"
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "role": self.role,
            "pid": os.getpid(),
            "workload": self.workload,
            "spans": len(self.layer),
            "layers": list(LAYERS),
            "counters": self.counters,
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
            for arr in (self.layer, self.start, self.end, self.parent, self.cell):
                arr.tofile(fh)
        os.replace(tmp, path)
        return path

    def after_fork(self) -> None:
        """Start an empty log in a forked worker, written when it exits."""
        import multiprocessing.util

        self._reset()
        self.role = "fork"
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)


Spans = Tuple["array.array[int]", ...]


def load(path: "str | os.PathLike[str]") -> Tuple[dict, Spans]:
    """Read one written log: ``(header, (layer, start, end, parent, cell))`` arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        n = header["spans"]
        arrays = []
        for code in ("i", "q", "q", "i", "i"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, tuple(arrays)


def ordinal_lines(workload: str, logs: Iterable[Spans]) -> List[str]:
    """Render the spans of several logs as ``workload cell layer call start end``.

    The first four columns are the span's deterministic ordinal: the call
    index counts one layer's calls within one cell in record order (a
    cell runs in one process, so its order is that process's).  Lines
    are sorted by ordinal, so two traces of the same workload and seed
    diff line by line on those columns while only the clocks differ.
    """
    rows = []
    for layers, starts, ends, _parents, cells in logs:
        seen: Dict[Tuple[int, int], int] = {}
        for layer, start, end, cell in zip(layers, starts, ends, cells):
            call = seen.get((cell, layer), 0)
            seen[(cell, layer)] = call + 1
            rows.append((cell, LAYERS[layer], call, start, end))
    rows.sort(key=lambda r: r[:3])
    return [f"{workload}\t{c}\t{name}\t{call}\t{s}\t{e}" for c, name, call, s, e in rows]


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
_installed: List[Tuple[Any, str, bool, Any]] = []


def _patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
    """Replace ``owner.attr`` with ``make(original)``; remember how to undo it."""
    own = attr in vars(owner)
    raw = vars(owner)[attr] if own else getattr(owner, attr)
    _installed.append((owner, attr, own, raw))
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def uninstall() -> None:
    """Put back every original object :func:`install` replaced."""
    while _installed:
        owner, attr, own, raw = _installed.pop()
        if own:
            setattr(owner, attr, raw)
        else:
            delattr(owner, attr)


def _span(log: SpanLog, layer: int) -> Callable[[Any], Any]:
    """A wrapper recording one span per call; nested same-layer calls fold in."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if log.innermost() == layer:
                return fn(*args, **kwargs)
            i = log.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(i)

        return wrapper

    return make


def _leaf(log: SpanLog, layer: int) -> Callable[[Any], Any]:
    """Hot-path wrapper for calls that contain no other traced span."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            t0 = _now()
            try:
                return fn(*args)
            finally:
                log.leaf(layer, t0, _now())

        return wrapper

    return make


def _cell(log: SpanLog) -> Callable[[Any], Any]:
    """Charge everything under one cell execution to its campaign position."""
    layer = _ID["cell"]

    def make(fn):
        @functools.wraps(fn)
        def wrapper(cell, *args, **kwargs):
            outer = log.cur_cell
            log.cur_cell = log.positions.get(cell, -1)
            i = log.open(layer)
            try:
                return fn(cell, *args, **kwargs)
            finally:
                log.close(i)
                log.cur_cell = outer

        return wrapper

    return make


class _TimedBehavior:
    """Times ``exec_time`` on the behaviour chain the runner built."""

    __slots__ = ("_inner", "_log")

    def __init__(self, inner: Any, log: SpanLog) -> None:
        self._inner = inner
        self._log = log

    def exec_time(self, task, job_index, release):
        t0 = _now()
        try:
            return self._inner.exec_time(task, job_index, release)
        finally:
            self._log.leaf(_ID["model.behavior"], t0, _now())

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def install(log: SpanLog) -> None:
    """Wrap every traced seam so calls record spans into *log*."""
    if _installed:
        raise RuntimeError("tracing wrappers are already installed")
    import repro.experiments.runner as runner
    import repro.faults.campaign as fcampaign
    import repro.io.results_json as results_json
    import repro.io.runspec_json as runspec_json
    import repro.provenance as provenance
    import repro.runtime.executor as executor
    import repro.runtime.shard as shard
    import repro.serve.coordinator as coordinator
    from repro.core.monitor import Monitor
    from repro.core.svo import ReleaseController
    from repro.experiments.metrics import SojournStats
    from repro.faults.plane import FaultPlane
    from repro.runtime.cache import ResultCache
    from repro.runtime.spec import TaskSetSpec
    from repro.serve.client import ServiceClient
    from repro.serve.worker import WorkerClient
    from repro.sim.kernel import MC2Kernel
    from repro.sim.soa import SoAKernel
    from repro.workload.traffic import TrafficBehavior, TrafficSpec

    span = functools.partial(_span, log)
    leaf = functools.partial(_leaf, log)

    # Which cell is running: the per-cell entry points of each executor.
    _patch(executor, "run_spec", _cell(log))  # serial + process pool
    _patch(shard, "run_spec", _cell(log))  # file-queue / service sweep cells
    _patch(shard, "run_cell", _cell(log))  # fault-campaign cells

    _patch(TaskSetSpec, "materialize", span(_ID["workload.materialize"]))
    _patch(runner, "run_overload_experiment", span(_ID["experiments.run"]))
    _patch(TrafficSpec, "augment", span(_ID["workload.traffic.expand"]))
    _patch(TrafficSpec, "build_behavior", span(_ID["workload.traffic.expand"]))
    _patch(TrafficBehavior, "sojourn_samples", span(_ID["workload.traffic.sojourn"]))
    _patch(SojournStats, "from_samples", span(_ID["workload.traffic.sojourn"]))

    def timed_create_kernel(fn):
        build = _ID["sim.kernel.build"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs.get("behavior") is not None:
                kwargs["behavior"] = _TimedBehavior(kwargs["behavior"], log)
            i = log.open(build)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(i)

        return wrapper

    _patch(runner, "create_kernel", timed_create_kernel)

    def timed_run_until(fn):
        run = _ID["sim.kernel.run"]
        check = _ID["experiments.stop_check"]

        @functools.wraps(fn)
        def wrapper(self, until, stop=None):
            if stop is not None:
                inner = stop

                def stop():
                    t0 = _now()
                    try:
                        return inner()
                    finally:
                        log.leaf(check, t0, _now())

            i = log.open(run)
            try:
                return fn(self, until, stop)
            finally:
                log.close(i)

        return wrapper

    for kernel in (MC2Kernel, SoAKernel):
        _patch(kernel, "attach_monitor", span(_ID["sim.kernel.build"]))
        _patch(kernel, "run_until", timed_run_until)
        _patch(kernel, "finish", span(_ID["sim.kernel.finish"]))

    _patch(ReleaseController, "fire", leaf(_ID["core.release"]))
    monitors = [Monitor]
    for cls in monitors:
        monitors.extend(c for c in cls.__subclasses__() if c not in monitors)
    for cls in monitors:
        for name in ("on_job_release", "on_job_complete"):
            if name in vars(cls):
                _patch(cls, name, leaf(_ID["core.monitor"]))

    _patch(FaultPlane, "__init__", span(_ID["faults.plane"]))
    _patch(FaultPlane, "install", span(_ID["faults.plane"]))
    _patch(fcampaign, "evaluate_invariants", span(_ID["faults.invariants"]))
    _patch(fcampaign, "fingerprint", span(_ID["sim.fingerprint"]))
    _patch(fcampaign, "fingerprint_digest", span(_ID["sim.fingerprint"]))

    _patch(runspec_json, "spec_key", span(_ID["io.key"]))
    _patch(fcampaign.CampaignCell, "key", span(_ID["io.key"]))
    _patch(results_json, "run_result_to_dict", span(_ID["io.encode"]))
    _patch(fcampaign.CellOutcome, "to_dict", span(_ID["io.encode"]))
    _patch(results_json, "run_result_from_dict", span(_ID["io.decode"]))
    _patch(runspec_json, "runspec_from_dict", span(_ID["io.decode"]))
    _patch(fcampaign.CellOutcome, "from_dict", span(_ID["io.decode"]))

    def counted(layer: Optional[int], counter: str, when: Callable[[Any], bool]):
        def make(fn):
            wrapped = fn if layer is None else _span(log, layer)(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = wrapped(*args, **kwargs)
                if when(result):
                    log.count(counter)
                return result

            return wrapper

        return make

    _patch(ResultCache, "put", span(_ID["runtime.cache.put"]))
    _patch(
        ResultCache,
        "get",
        counted(_ID["runtime.cache.get"], "runtime.cache.hits", lambda r: r is not None),
    )
    store = shard.CampaignStore
    _patch(
        store,
        "try_acquire",
        counted(_ID["runtime.shard.lease"], "runtime.shard.lease.lost", lambda r: not r),
    )
    _patch(store, "heartbeat", span(_ID["runtime.shard.heartbeat"]))
    _patch(store, "write_manifest", span(_ID["runtime.shard.manifest"]))
    _patch(store, "shard_done", span(_ID["runtime.shard.scan"]))
    _patch(shard, "work", span(_ID["runtime.shard.work"]))
    for module in (shard, coordinator):
        for name in ("write_merged_results", "write_merged_scorecard"):
            _patch(module, name, span(_ID["runtime.merge"]))
    _patch(shard, "write_results_artifact", span(_ID["runtime.merge"]))
    _patch(provenance, "build_manifest", span(_ID["provenance.emit"]))
    _patch(provenance, "write_manifest", span(_ID["provenance.emit"]))

    _patch(ServiceClient, "submit", span(_ID["serve.client.submit"]))
    _patch(ServiceClient, "wait", span(_ID["serve.client.wait"]))
    _patch(ServiceClient, "fetch", span(_ID["serve.client.fetch"]))

    def timed_handle(fn):
        other = _ID["serve.coordinator.other"]

        @functools.wraps(fn)
        def wrapper(self, msg):
            i = log.open(_COORDINATOR_LAYER.get(type(msg).__name__, other))
            try:
                replies = fn(self, msg)
            finally:
                log.close(i)
            if type(msg).__name__ == "ShardDone" and not getattr(
                replies[0], "accepted", True
            ):
                log.count("serve.rejections")
            return replies

        return wrapper

    _patch(coordinator.Coordinator, "handle", timed_handle)
    _patch(WorkerClient, "run", span(_ID["serve.worker"]))
    _patch(WorkerClient, "_execute_grant", span(_ID["serve.worker.execute"]))
    _patch(
        WorkerClient,
        "_reconnect_with_backoff",
        counted(None, "serve.reconnects", lambda _r: True),
    )

    import multiprocessing.util

    multiprocessing.util.register_after_fork(log, SpanLog.after_fork)
