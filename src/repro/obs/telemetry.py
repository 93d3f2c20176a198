"""Fleet-level campaign telemetry: worker time series over the shard fabric.

PR 5's campaign directories already carry the *liveness* signal (lease
heartbeats) and the *completion* signal (shard manifests); this module
adds the **throughput** signal.  Each worker appends versioned NDJSON
telemetry records next to its heartbeat files — cells/sec and
events/sec per kernel backend, cache hit-rate, lease
acquisitions/steals, RSS, and cumulative per-phase
kernel timings — and any other process can reconstruct the campaign's
live state *from the files alone*: ``repro-mc2 status --watch`` and
``repro-mc2 top`` render dashboards, and :mod:`repro.obs.export` turns
the same data into Prometheus textfiles and canonical JSON snapshots.
No coordinator is involved, so the record format doubles as the wire
format when the ROADMAP's client/server campaign service lands.

Design rules (shared with every other observability layer here):

* **Result-neutral.**  Telemetry never enters canonical RunSpec JSON,
  result-cache keys, shard manifests, or merged artifacts — like
  :class:`~repro.runtime.spec.ObsSpec`, turning it on cannot perturb a
  single result byte.  ``tests/runtime/test_shard_telemetry.py`` pins
  ``merged.json`` byte-identity with telemetry on vs off.
* **Torn-tolerant.**  Records are appended with
  :func:`repro.util.atomicio.append_line` (one ``O_APPEND`` write per
  record); a SIGKILLed worker leaves at most one torn final line, which
  :func:`read_telemetry` silently skips — mirroring how torn shard
  manifests read as missing.
* **Deterministic aggregation.**  :class:`TelemetryAggregator` sorts
  workers by name and records by sequence number and deduplicates on
  ``(worker, seq)``, so the canonical aggregate JSON is byte-identical
  regardless of file discovery order or double reads.

Record schema (``repro-telemetry`` v1, one JSON object per line)::

    {"rec": "meta", "format": "repro-telemetry", "version": 1,
     "owner": ..., "campaign": ..., "pid": ..., "host": ...}
    {"rec": "sample", "seq": 0, "wall": ..., "cells_done": ...,
     "cells_run": ..., "cache_hits": ..., "events": ...,
     "cells_per_sec": ..., "events_per_sec": ..., "rss_bytes": ...,
     "shards_claimed": ..., "leases_acquired": ..., "leases_stolen": ...,
     "backend": ...,
     "phases": {"dispatch": {"count": ..., "sampled_ns": ...,
                             "samples": ...}, ...}}

Counters are cumulative per worker (rates are the writer's view of the
interval since its previous sample; aggregators can recompute any
windowing they like from the deltas).  The final sample of a clean
shutdown carries ``"final": true``.

The second leg is :class:`PhaseProfiler`: cheap per-phase
counters/timers for both kernel backends (engine pop, dispatch, monitor
delivery, release-timer re-arm).  It is deliberately a *process-global*
toggle (:func:`enable_phase_profiling`) read once at kernel
construction — a :class:`~repro.runtime.spec.KernelSpec` field would
enter canonical RunSpec JSON and split the result cache, which is
exactly what observability must never do.  Costs when enabled stay
inside the ≤2% gate of ``benchmarks/bench_trace_overhead.py`` because
counts ride on existing loop variables and wall-clock sampling touches
only every :data:`PHASE_SAMPLE_MASK`+1-th event.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.util.atomicio import append_line

# NOTE: repro.io.canonical is imported lazily inside methods, as in
# repro.runtime.cache: the kernels import this module, and importing
# repro.io at module level would close a cycle back through them.

__all__ = [
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "AGGREGATE_FORMAT",
    "PHASES",
    "PHASE_SAMPLE_MASK",
    "PhaseProfiler",
    "PHASE_PROFILER",
    "enable_phase_profiling",
    "rss_bytes",
    "telemetry_dir",
    "telemetry_path",
    "TelemetryWriter",
    "read_telemetry",
    "iter_telemetry_files",
    "TelemetryAggregator",
    "aggregate_campaign",
    "WorkerStatus",
    "worker_statuses",
    "render_status",
    "render_top",
]

TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 1
AGGREGATE_FORMAT = "repro-telemetry-aggregate"
AGGREGATE_VERSION = 1


Pathish = Union[str, "os.PathLike[str]"]

#: The kernel phases both backends account for.
PHASES = ("engine_pop", "dispatch", "monitor", "timer_rearm")

#: Wall-clock sampling mask: a phase timer fires only when
#: ``events & PHASE_SAMPLE_MASK == 0`` (every 128th event), so enabling
#: phase profiling adds one counter increment per event and two
#: ``perf_counter_ns`` calls per 128 events — the price the ≤2%
#: overhead gate in ``bench_trace_overhead.py`` holds the line on.
PHASE_SAMPLE_MASK = 127


class PhaseProfiler:
    """Process-wide accumulator of per-phase kernel counters/timers.

    ``counts`` are exact (every occurrence), ``sampled_ns``/``samples``
    are a 1-in-128 wall-clock sample of the phase's duration — enough to
    estimate mean cost per occurrence without paying two timer calls per
    event.  Kernels read :attr:`enabled` once at construction (the same
    zero-cost pattern as ``tracer.enabled``) and flush their totals here
    in ``_finalize``, so the profiler aggregates across every kernel the
    process runs.
    """

    __slots__ = ("enabled", "counts", "sampled_ns", "samples")

    def __init__(self) -> None:
        self.enabled = False
        self.counts: Dict[str, int] = {p: 0 for p in PHASES}
        self.sampled_ns: Dict[str, int] = {p: 0 for p in PHASES}
        self.samples: Dict[str, int] = {p: 0 for p in PHASES}

    def reset(self) -> None:
        for p in PHASES:
            self.counts[p] = 0
            self.sampled_ns[p] = 0
            self.samples[p] = 0

    def add(self, phase: str, count: int = 0, ns: int = 0, samples: int = 0) -> None:
        """Accumulate one kernel's totals for *phase* (create-on-first-use)."""
        self.counts[phase] = self.counts.get(phase, 0) + count
        self.sampled_ns[phase] = self.sampled_ns.get(phase, 0) + ns
        self.samples[phase] = self.samples.get(phase, 0) + samples

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """JSON-ready cumulative totals, stable key order."""
        return {
            p: {
                "count": self.counts.get(p, 0),
                "sampled_ns": self.sampled_ns.get(p, 0),
                "samples": self.samples.get(p, 0),
            }
            for p in sorted(self.counts)
        }


#: The process-global profiler kernels consult at construction.
PHASE_PROFILER = PhaseProfiler()


def enable_phase_profiling(enabled: bool = True) -> PhaseProfiler:
    """Turn phase profiling on/off for kernels built *after* this call.

    Deliberately process-global rather than a spec field: phase
    profiling must never enter canonical RunSpec JSON (it would split
    result-cache keyspaces for an observation-only toggle).  Worker
    processes enable it when campaign telemetry is on.
    """
    PHASE_PROFILER.enabled = enabled
    return PHASE_PROFILER


def rss_bytes() -> int:
    """This process's resident set size, without psutil.

    Reads ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` (portable, kilobyte granularity); returns 0
    when neither source is available.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _sanitize_owner(owner: str) -> str:
    """Owner string -> safe file stem (owners look like ``host:pid:w0``)."""
    return "".join(c if (c.isalnum() or c in "._-") else "_" for c in owner)


def telemetry_dir(campaign_dir: Pathish) -> pathlib.Path:
    """Where a campaign's telemetry streams live (next to ``leases/``)."""
    return pathlib.Path(campaign_dir) / "telemetry"


def telemetry_path(campaign_dir: Pathish, owner: str) -> pathlib.Path:
    return telemetry_dir(campaign_dir) / f"{_sanitize_owner(owner)}.ndjson"


class TelemetryWriter:
    """Append one worker's telemetry stream (cumulative counters + rates).

    The writer owns the emission cadence: counter updates are cheap
    in-memory increments, and :meth:`maybe_sample` appends a record at
    most every ``interval_s`` seconds (:meth:`sample` with
    ``force=True`` — used at shard boundaries and shutdown — always
    writes).  Each record is a single ``O_APPEND`` write, so concurrent
    readers never see a torn *interior* line.

    Two clocks: ``clock`` (wall) stamps records for cross-host display
    and liveness, while ``mono`` (monotonic) drives the sampling
    throttle and the interval *rates* — a wall-clock step (NTP slew,
    suspend/resume) must never yield negative or absurd
    ``cells_per_sec``/``events_per_sec``.  Non-positive monotonic
    intervals (first sample, duplicate timestamps) report zero rates.

    ``sink`` replaces the file with a callable taking one canonical
    record line (no trailing newline): service workers
    (:mod:`repro.serve.worker`) relay records to the coordinator over
    the wire instead of the filesystem, and the coordinator appends
    them to the campaign's ``telemetry/`` stream — same bytes, same
    readers.  With a sink, ``path`` may be ``None``.
    """

    def __init__(
        self,
        path: Optional[Pathish],
        owner: str,
        campaign: str = "",
        interval_s: float = 0.5,
        clock: Callable[[], float] = time.time,
        mono: Callable[[], float] = time.monotonic,
        rss_fn: Callable[[], int] = rss_bytes,
        backend: str = "",
        phase_profiler: Optional[PhaseProfiler] = None,
        sink: Optional[Callable[[str], None]] = None,
    ) -> None:
        if path is None and sink is None:
            raise ValueError("TelemetryWriter needs a path or a sink")
        self.path = pathlib.Path(path) if path is not None else None
        self._sink = sink
        self.owner = owner
        self.interval_s = interval_s
        self._clock = clock
        self._mono = mono
        self._rss_fn = rss_fn
        self.backend = backend
        self._profiler = phase_profiler if phase_profiler is not None else PHASE_PROFILER
        self._seq = 0
        self._last_mono = float("-inf")
        # (cells_done, events, mono) at last sample; mono None until then.
        self._prev: tuple = (0, 0, None)
        # Cumulative counters.
        self.cells_done = 0
        self.cells_run = 0
        self.cache_hits = 0
        self.events = 0
        self.shards_claimed = 0
        self.shards_done = 0
        self.leases_acquired = 0
        self.leases_stolen = 0
        # Provenance spot-check accounting (coordinator-side streams).
        self.cells_verified = 0
        self.verify_failures = 0
        self.quarantines = 0
        self.closed = False
        from repro.io.canonical import canonical_json

        self._emit(
            canonical_json(
                {
                    "rec": "meta",
                    "format": TELEMETRY_FORMAT,
                    "version": TELEMETRY_VERSION,
                    "owner": owner,
                    "campaign": campaign,
                    "pid": os.getpid(),
                    "host": os.uname().nodename,
                    "start": self._clock(),
                    "mono_start": self._mono(),
                }
            )
        )

    def _emit(self, line: str) -> None:
        if self._sink is not None:
            self._sink(line)
        else:
            assert self.path is not None
            append_line(self.path, line)

    # -- counter updates ----------------------------------------------
    def lease_acquired(self, stolen: bool = False) -> None:
        self.leases_acquired += 1
        if stolen:
            self.leases_stolen += 1

    def shard_claimed(self) -> None:
        self.shards_claimed += 1

    def shard_finished(self) -> None:
        self.shards_done += 1
        self.sample(force=True)

    def cell_verified(self, ok: bool) -> None:
        """One cell re-executed by the verification spot-check."""
        self.cells_verified += 1
        if not ok:
            self.verify_failures += 1

    def shard_quarantined(self) -> None:
        """One shard failed verification and was re-queued."""
        self.quarantines += 1
        self.sample(force=True)

    def cell_done(self, cached: bool, events: int = 0, wall_ns: int = 0) -> None:
        self.cells_done += 1
        if cached:
            self.cache_hits += 1
        else:
            self.cells_run += 1
        self.events += int(events)
        self.maybe_sample()

    # -- emission ------------------------------------------------------
    def maybe_sample(self) -> None:
        if self._mono() - self._last_mono >= self.interval_s:
            self.sample()

    def sample(
        self, force: bool = False, final: bool = False, now: Optional[float] = None
    ) -> None:
        if self.closed:
            return
        wall = self._clock() if now is None else now
        mono = self._mono()
        if not force and not final and mono - self._last_mono < self.interval_s:
            return
        prev_cells, prev_events, prev_mono = self._prev
        # Interval from the monotonic clock only: a wall step must not
        # produce negative (or inflated) rates.  dt <= 0 -> rates 0.
        dt = mono - prev_mono if prev_mono is not None else 0.0
        record: Dict[str, Any] = {
            "rec": "sample",
            "seq": self._seq,
            "wall": wall,
            "mono": mono,
            "cells_done": self.cells_done,
            "cells_run": self.cells_run,
            "cache_hits": self.cache_hits,
            "events": self.events,
            "shards_claimed": self.shards_claimed,
            "shards_done": self.shards_done,
            "leases_acquired": self.leases_acquired,
            "leases_stolen": self.leases_stolen,
            "cells_verified": self.cells_verified,
            "verify_failures": self.verify_failures,
            "quarantines": self.quarantines,
            "cells_per_sec": (self.cells_done - prev_cells) / dt if dt > 0 else 0.0,
            "events_per_sec": (self.events - prev_events) / dt if dt > 0 else 0.0,
            "rss_bytes": self._rss_fn(),
            "backend": self.backend,
            "phases": self._profiler.snapshot(),
        }
        if final:
            record["final"] = True
        from repro.io.canonical import canonical_json

        self._emit(canonical_json(record))
        self._seq += 1
        self._last_mono = mono
        self._prev = (self.cells_done, self.events, mono)

    def close(self) -> None:
        """Emit the final sample and stop accepting writes."""
        if not self.closed:
            self.sample(force=True, final=True)
            self.closed = True


# ----------------------------------------------------------------------
# Reader / aggregation
# ----------------------------------------------------------------------
def read_telemetry(path: Pathish) -> Iterator[Dict[str, Any]]:
    """Iterate the records of one telemetry stream, skipping torn lines.

    Unlike :func:`repro.obs.tracer.read_trace` (which raises on damage,
    because a trace is a complete artifact), telemetry is read *live*
    from files that crashed or still-running writers are appending to —
    a torn or truncated line is expected, not an error, and is simply
    skipped.  Records from a non-matching format header are rejected
    wholesale.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn/truncated line (killed writer): skip
            if not isinstance(record, dict):
                continue
            if record.get("rec") == "meta" and (
                record.get("format") != TELEMETRY_FORMAT
                or record.get("version") != TELEMETRY_VERSION
            ):
                return  # foreign stream: ignore entirely
            yield record


def iter_telemetry_files(campaign_dir: Pathish) -> List[pathlib.Path]:
    """A campaign's telemetry stream files, sorted by name."""
    tdir = telemetry_dir(campaign_dir)
    if not tdir.is_dir():
        return []
    return sorted(p for p in tdir.iterdir() if p.suffix == ".ndjson")


class TelemetryAggregator:
    """Merge per-worker telemetry streams into one deterministic view.

    Feed it files (:meth:`add_file`) or raw records (:meth:`add_records`)
    in *any* order; :meth:`aggregate` always produces the same document
    for the same underlying records: workers sort by name, each worker's
    samples sort by ``seq``, duplicates (same worker, same seq — e.g. a
    file read twice) collapse, and :meth:`to_json` is canonical JSON.
    """

    def __init__(self) -> None:
        self._meta: Dict[str, Dict[str, Any]] = {}
        self._samples: Dict[str, Dict[int, Dict[str, Any]]] = {}
        self._campaign = ""

    def add_file(self, path: Pathish) -> None:
        self.add_records(read_telemetry(path))

    def add_records(self, records: Iterable[Dict[str, Any]]) -> None:
        owner = ""
        for record in records:
            rec = record.get("rec")
            if rec == "meta":
                owner = str(record.get("owner", ""))
                self._meta.setdefault(owner, record)
                if not self._campaign and record.get("campaign"):
                    self._campaign = str(record["campaign"])
            elif rec == "sample":
                try:
                    seq = int(record["seq"])
                except (KeyError, TypeError, ValueError):
                    continue
                self._samples.setdefault(owner, {})[seq] = record

    def add_campaign(self, campaign_dir: Pathish) -> None:
        for path in iter_telemetry_files(campaign_dir):
            self.add_file(path)

    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, Any]:
        """The merged campaign-level document (JSON-ready, deterministic)."""
        workers: Dict[str, Any] = {}
        totals = {
            "cells_done": 0,
            "cells_run": 0,
            "cache_hits": 0,
            "events": 0,
            "shards_claimed": 0,
            "shards_done": 0,
            "leases_acquired": 0,
            "leases_stolen": 0,
            "cells_verified": 0,
            "verify_failures": 0,
            "quarantines": 0,
        }
        phase_totals: Dict[str, Dict[str, int]] = {}
        wall_rate_cells = 0.0
        wall_rate_events = 0.0
        for owner in sorted(self._samples):
            by_seq = self._samples[owner]
            ordered = [by_seq[s] for s in sorted(by_seq)]
            if not ordered:
                continue
            last = ordered[-1]
            first = ordered[0]
            meta = self._meta.get(owner, {})
            start = float(meta.get("start", first.get("wall", 0.0)))
            # Lifetime from the monotonic clock when the stream carries
            # it (format >= this fix); wall only as a legacy fallback.
            mono_start = meta.get("mono_start", first.get("mono"))
            if mono_start is not None and last.get("mono") is not None:
                lifetime = float(last["mono"]) - float(mono_start)
            else:
                lifetime = float(last.get("wall", 0.0)) - start
            lifetime = max(lifetime, 0.0)
            cells = int(last.get("cells_done", 0))
            events = int(last.get("events", 0))
            workers[owner] = {
                "samples": len(ordered),
                "first_wall": float(first.get("wall", 0.0)),
                "last_wall": float(last.get("wall", 0.0)),
                "cells_done": cells,
                "cells_run": int(last.get("cells_run", 0)),
                "cache_hits": int(last.get("cache_hits", 0)),
                "events": events,
                "shards_claimed": int(last.get("shards_claimed", 0)),
                "shards_done": int(last.get("shards_done", 0)),
                "leases_acquired": int(last.get("leases_acquired", 0)),
                "leases_stolen": int(last.get("leases_stolen", 0)),
                "cells_verified": int(last.get("cells_verified", 0)),
                "verify_failures": int(last.get("verify_failures", 0)),
                "quarantines": int(last.get("quarantines", 0)),
                "rss_bytes": int(last.get("rss_bytes", 0)),
                "backend": str(last.get("backend", "")),
                "final": bool(last.get("final", False)),
                "cells_per_sec": cells / lifetime if lifetime > 0 else 0.0,
                "events_per_sec": events / lifetime if lifetime > 0 else 0.0,
                "phases": last.get("phases", {}),
                "series": [
                    [
                        float(s.get("wall", 0.0)),
                        int(s.get("cells_done", 0)),
                        int(s.get("events", 0)),
                    ]
                    for s in ordered
                ],
            }
            for key in totals:
                totals[key] += workers[owner][key]
            for phase, vals in (last.get("phases") or {}).items():
                agg = phase_totals.setdefault(
                    phase, {"count": 0, "sampled_ns": 0, "samples": 0}
                )
                for k in agg:
                    agg[k] += int(vals.get(k, 0))
            if lifetime > 0:
                wall_rate_cells += cells / lifetime
                wall_rate_events += events / lifetime
        return {
            "format": AGGREGATE_FORMAT,
            "version": AGGREGATE_VERSION,
            "campaign": self._campaign,
            "workers": workers,
            "totals": totals,
            "phases": {p: phase_totals[p] for p in sorted(phase_totals)},
            "rates": {
                "cells_per_sec": wall_rate_cells,
                "events_per_sec": wall_rate_events,
            },
        }

    def to_json(self) -> str:
        """Canonical JSON of :meth:`aggregate` — byte-identical for the
        same records regardless of ingestion order."""
        from repro.io.canonical import canonical_json

        return canonical_json(self.aggregate()) + "\n"


def aggregate_campaign(campaign_dir: Pathish) -> Dict[str, Any]:
    """One-shot: aggregate every telemetry stream under *campaign_dir*."""
    agg = TelemetryAggregator()
    agg.add_campaign(campaign_dir)
    return agg.aggregate()


# ----------------------------------------------------------------------
# Live status (files -> dashboard)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerStatus:
    """One worker's live state, reconstructed from campaign files alone."""

    owner: str
    #: Seconds since the worker's most recent telemetry sample.
    age_s: float
    #: ``"live"`` (sampled within ttl), ``"done"`` (final sample seen),
    #: or ``"stale"`` (no recent sample, no clean shutdown).
    state: str
    cells_done: int
    cells_run: int
    cache_hits: int
    events: int
    cells_per_sec: float
    events_per_sec: float
    rss_bytes: int
    backend: str
    shards_done: int
    leases_stolen: int


def worker_statuses(
    campaign_dir: Pathish,
    ttl: float = 15.0,
    now: Optional[float] = None,
    aggregate: Optional[Dict[str, Any]] = None,
) -> List[WorkerStatus]:
    """Per-worker liveness + throughput from the telemetry files."""
    agg = aggregate if aggregate is not None else aggregate_campaign(campaign_dir)
    wall_now = time.time() if now is None else now
    out: List[WorkerStatus] = []
    for owner, w in sorted(agg.get("workers", {}).items()):
        age = wall_now - float(w.get("last_wall", 0.0))
        if w.get("final"):
            state = "done"
        elif age <= ttl:
            state = "live"
        else:
            state = "stale"
        out.append(
            WorkerStatus(
                owner=owner,
                age_s=age,
                state=state,
                cells_done=int(w.get("cells_done", 0)),
                cells_run=int(w.get("cells_run", 0)),
                cache_hits=int(w.get("cache_hits", 0)),
                events=int(w.get("events", 0)),
                cells_per_sec=float(w.get("cells_per_sec", 0.0)),
                events_per_sec=float(w.get("events_per_sec", 0.0)),
                rss_bytes=int(w.get("rss_bytes", 0)),
                backend=str(w.get("backend", "")),
                shards_done=int(w.get("shards_done", 0)),
                leases_stolen=int(w.get("leases_stolen", 0)),
            )
        )
    return out


def _fmt_rate(x: float) -> str:
    if x >= 1e6:
        return f"{x / 1e6:.1f}M"
    if x >= 1e3:
        return f"{x / 1e3:.1f}k"
    return f"{x:.1f}"


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 30:
        return f"{n / (1 << 30):.1f}G"
    if n >= 1 << 20:
        return f"{n / (1 << 20):.0f}M"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.0f}k"
    return str(n)


def render_top(
    campaign_dir: Pathish, ttl: float = 15.0, now: Optional[float] = None
) -> str:
    """The ``repro-mc2 top`` table: one row per worker."""
    statuses = worker_statuses(campaign_dir, ttl=ttl, now=now)
    lines = [
        f"{'worker':<28}{'state':<7}{'age':>6}  {'cells':>7}{'run':>7}"
        f"{'hit':>6}  {'cells/s':>8}{'events/s':>9}{'rss':>6}  backend"
    ]
    if not statuses:
        lines.append("  (no telemetry streams found)")
    for s in statuses:
        lines.append(
            f"{s.owner[:27]:<28}{s.state:<7}{s.age_s:>5.0f}s  "
            f"{s.cells_done:>7}{s.cells_run:>7}{s.cache_hits:>6}  "
            f"{_fmt_rate(s.cells_per_sec):>8}{_fmt_rate(s.events_per_sec):>9}"
            f"{_fmt_bytes(s.rss_bytes):>6}  {s.backend}"
        )
    return "\n".join(lines)


def render_status(
    campaign_dir: Pathish, ttl: float = 15.0, now: Optional[float] = None
) -> str:
    """The ``repro-mc2 status`` dashboard for one campaign directory.

    Combines the durable truth (shard manifests, lease files — via
    :func:`repro.runtime.shard.campaign_status`) with the telemetry
    streams (throughput, phases) — all read from the directory, no
    process state needed.
    """
    from repro.runtime.shard import campaign_status

    shards = campaign_status(campaign_dir)
    agg = aggregate_campaign(campaign_dir)
    done = sum(1 for s in shards if s.state == "done")
    leased = sum(1 for s in shards if s.state == "leased")
    cells_done = sum(s.cells for s in shards if s.state == "done")
    cells_total = sum(s.cells for s in shards)
    pct = 100.0 * cells_done / cells_total if cells_total else 100.0
    rates = agg.get("rates", {})
    cps = float(rates.get("cells_per_sec", 0.0))
    lines = [
        f"campaign {str(agg.get('campaign', ''))[:12]}  "
        f"shards {done}/{len(shards)} done, {leased} leased  "
        f"cells {cells_done}/{cells_total} ({pct:.0f}%)",
    ]
    if cps > 0 and cells_total > cells_done:
        lines[0] += f"  eta {(cells_total - cells_done) / cps:.0f}s"
    totals = agg.get("totals", {})
    if totals.get("cells_done"):
        lines.append(
            f"throughput {_fmt_rate(cps)} cells/s, "
            f"{_fmt_rate(float(rates.get('events_per_sec', 0.0)))} events/s  "
            f"cache hits {totals.get('cache_hits', 0)}  "
            f"lease steals {totals.get('leases_stolen', 0)}"
        )
    if totals.get("cells_verified") or totals.get("quarantines"):
        lines.append(
            f"verification: {totals.get('cells_verified', 0)} cells re-executed, "
            f"{totals.get('verify_failures', 0)} failures, "
            f"{totals.get('quarantines', 0)} shard(s) quarantined"
        )
    phases = agg.get("phases", {})
    if phases:
        parts = []
        for name in PHASES:
            vals = phases.get(name)
            if not vals:
                continue
            count = vals.get("count", 0)
            samples = vals.get("samples", 0)
            mean_ns = vals.get("sampled_ns", 0) / samples if samples else 0.0
            parts.append(f"{name} {count} ({mean_ns:.0f}ns)")
        if parts:
            lines.append("phases: " + "  ".join(parts))
    lines.append("")
    lines.append(render_top(campaign_dir, ttl=ttl, now=now))
    return "\n".join(lines)
