"""Checkpointed, sharded campaign execution with crash-safe resume.

The sweeps behind the paper's evaluation (Figs. 6-9 grids, the fault
campaigns of :mod:`repro.faults`) are long: hundreds to thousands of
deterministic cells.  The process-pool backends parallelize them, but a
killed process loses every in-flight cell and an interrupted campaign
must restart from whatever the :class:`~repro.runtime.cache.ResultCache`
happened to retain.  This module makes campaign execution *durable*:

* **Content-addressed shards.**  A cell list (``RunSpec`` sweep cells or
  :class:`~repro.faults.campaign.CampaignCell` fault cells) is split
  into fixed-size shards; the campaign key is the sha256 of the ordered
  cell keys, and each shard's id is the sha256 of the campaign key plus
  its slice.  The same cell list always maps to the same shards, so a
  re-attached run agrees with the original about what the work *is*.

* **File-based work queue with lease/heartbeat ownership.**  Workers —
  threads of one process, separate processes, even separate invocations
  of the CLI — claim shards by publishing a lease file in one step (a
  same-directory temp file holding the lease is hard-linked to the
  lease path, which fails if a lease exists, so no owner can see a
  lease without its content), heartbeat it after every cell, and
  release it when the shard's result manifest lands.  A lease whose
  heartbeat is older than the TTL is presumed dead and reclaimed: the
  thief takes an exclusive ``flock`` on ``leases/steal.lock``, re-reads
  the lease, and replaces it only if it is still the one it judged
  expired, so of several owners stealing one lease exactly one wins.
  Results do not depend on leases: cells are deterministic, so the rare
  double execution after an expired lease is stolen from a worker that
  was only slow writes the same manifest twice.

* **Atomic per-shard result manifests.**  Each completed shard is one
  JSON file written via temp-file + ``os.replace``
  (:mod:`repro.util.atomicio`); a crash mid-write leaves a stray
  ``*.tmp``, never a torn manifest.  A campaign is complete exactly when
  every shard has a valid manifest, and *resume* is nothing more than
  executing the shards that don't.

* **Streaming reduce.**  Merging walks shard manifests in order
  (:func:`iter_result_rows`, one parse per manifest) and feeds results
  one at a time into the artifact writers (:func:`write_merged_results`,
  :func:`~repro.faults.campaign.scorecard_json_chunks`), so the final
  artifact is produced without ever holding the whole campaign's
  results in memory — and it is byte-identical to what an uninterrupted
  in-memory run would have saved.

Directory layout (one campaign)::

    <dir>/
      campaign.json        # manifest: kind, cells, shard size, key
      shards/<id>.json     # one atomic result manifest per shard
      leases/<id>.json     # live ownership (deleted on completion)
      merged.json          # streamed final artifact

:func:`prepare_campaign` nests each campaign under a key-prefixed
subdirectory of a shared root, so the same root can host many grids and
``repro-mc2 sweep resume <root>`` / ``faults resume <root>`` re-attach
to whatever is unfinished.
"""

from __future__ import annotations

import concurrent.futures
import fcntl
import functools
import hashlib
import importlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import (
    Annotated,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.metrics import RunResult
from repro.faults.campaign import (
    CampaignCell,
    CellOutcome,
    Scorecard,
    run_cell,
    scorecard_json_chunks,
)
from repro.io import codec
from repro.io.canonical import canonical_json, sha256_hex
from repro.obs.report import ShardReport
from repro.runtime.cache import ResultCache
from repro.runtime.executor import PoolDegradation, SweepExecutor, map_pool_resilient, run_spec
from repro.runtime.spec import RunSpec
from repro.util.atomicio import atomic_write_text, atomic_writer

__all__ = [
    "CAMPAIGN_FORMAT",
    "SHARD_RESULT_FORMAT",
    "MERGED_SWEEP_FORMAT",
    "CampaignMismatchError",
    "IncompleteCampaignError",
    "ShardSpec",
    "ShardedCampaign",
    "CampaignStore",
    "get_kind",
    "ShardColumns",
    "run_shard",
    "run_local",
    "WorkStats",
    "work",
    "run_workers",
    "prepare_campaign",
    "iter_campaign_dirs",
    "campaign_status",
    "iter_result_rows",
    "merge_results",
    "write_merged_results",
    "merge_scorecard",
    "write_merged_scorecard",
    "write_results_artifact",
    "run_sharded_campaign",
    "resume_campaign",
    "ShardedBackend",
]

CAMPAIGN_FORMAT = "repro-shard-campaign"
CAMPAIGN_VERSION = 1
SHARD_RESULT_FORMAT = "repro-shard-result"
SHARD_RESULT_VERSION = 1
LEASE_FORMAT = "repro-shard-lease"
MERGED_SWEEP_FORMAT = "repro-sweep-results"
MERGED_SWEEP_VERSION = 1

Pathish = Union[str, "os.PathLike[str]"]


class CampaignMismatchError(ValueError):
    """The directory already holds a *different* campaign."""


class IncompleteCampaignError(RuntimeError):
    """A merge was requested while shards are still missing."""

    def __init__(self, missing: Sequence[int]) -> None:
        self.missing = tuple(missing)
        super().__init__(
            f"campaign is incomplete: {len(self.missing)} shard(s) missing "
            f"(indices {list(self.missing)[:8]}{'...' if len(self.missing) > 8 else ''})"
        )


# ----------------------------------------------------------------------
# Kind adapters: what a "cell" is and how to run one.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Kind:
    """How the orchestrator handles one campaign flavour."""

    name: str
    #: The cell class (``RunSpec`` / ``CampaignCell``).
    cell_type: type
    cell_key: Callable[[Any], str]
    cell_to_dict: Callable[[Any], Dict[str, Any]]
    cell_from_dict: Callable[[Dict[str, Any]], Any]
    #: ``execute(cell, tasksets=None)``: the cell's result object
    #: (``RunResult`` / ``CellOutcome``), in an optional sharing scope.
    execute: Callable[..., Any]
    #: A result's JSON-ready document (manifests, wire, digests).
    result_to_dict: Callable[[Any], Dict[str, Any]]
    #: Whether cells can be served from / written to a ResultCache.
    cacheable: bool

    def run_cells(
        self,
        cells: Sequence[Any],
        keys: Optional[Sequence[str]] = None,
        cache: Optional[ResultCache] = None,
    ) -> Iterator[Tuple[Any, bool, int]]:
        """Yield ``(result, cached, wall_ns)`` per cell, in order.

        The one per-cell loop of every executor: cache lookup, execution
        in one sharing scope for the whole call (task sets and quiet
        runs, :func:`~repro.runtime.executor.run_spec`), cache
        write-back, with ``wall_ns`` timed around the three.  Without
        *keys*, or for an empty key, the cache is bypassed.  A generator,
        so callers heartbeat and report after every cell.
        """
        scope: Dict[Any, Any] = {}
        use_cache = self.cacheable and cache is not None and keys is not None
        for i, cell in enumerate(cells):
            t0 = time.perf_counter_ns()
            key = keys[i] if use_cache else ""  # type: ignore[index]
            result = cache.get(key) if key else None  # type: ignore[union-attr]
            cached = result is not None
            if result is None:
                result = self.execute(cell, scope)
                if key:
                    cache.put(key, self.cell_to_dict(cell), result)  # type: ignore[union-attr]
            yield result, cached, time.perf_counter_ns() - t0


def _run_slice(kind_name: str, cells: Sequence[Any]) -> List[Tuple[Any, bool, int]]:
    """One pool task of :func:`run_local`: a slice in its own sharing
    scope (module-level and list-returning, so it pickles)."""
    return list(_KINDS[kind_name].run_cells(cells))


def run_local(
    kind: _Kind,
    cells: Sequence[Any],
    jobs: int = 1,
    chunksize: Optional[int] = None,
    on_cell: Optional[Callable[[Tuple[Any, bool, int]], None]] = None,
) -> Tuple[List[Tuple[Any, bool, int]], PoolDegradation]:
    """The slice runner of the in-memory executors (sweep backends,
    :func:`repro.faults.campaign.run_campaign`): *cells*' ``(result,
    cached, wall_ns)`` rows in order, and the pool's degradation in cells.

    ``jobs <= 1`` or one cell: one :meth:`_Kind.run_cells` call here.
    Otherwise slices of *chunksize* cells (default
    ``ceil(n / (4 * jobs))``: amortized dispatch, balanced load), each
    one pool task and sharing scope, run through
    :func:`~repro.runtime.executor.map_pool_resilient`.  *on_cell* gets
    each row as it lands here, or as its slice lands.
    """

    def landed(rows: List[Tuple[Any, bool, int]]) -> None:
        if on_cell is not None:
            for row in rows:
                on_cell(row)

    cells = list(cells)
    if jobs <= 1 or len(cells) <= 1:
        rows: List[Tuple[Any, bool, int]] = []
        for row in kind.run_cells(cells):
            rows.append(row)
            landed([row])
        return rows, PoolDegradation()
    per = chunksize if chunksize is not None else -(-len(cells) // (4 * jobs))
    slices = [cells[i : i + per] for i in range(0, len(cells), per)]
    nested, deg = map_pool_resilient(
        functools.partial(_run_slice, kind.name),
        slices,
        min(jobs, len(slices)),
        1,
        on_result=landed,
    )
    # map_pool_resilient counts slices; the re-run slices are always the
    # trailing ones.
    degradation = PoolDegradation(
        retried=sum(len(s) for s in slices[len(slices) - deg.retried :]),
        serial_fallback=sum(len(s) for s in slices[len(slices) - deg.serial_fallback :]),
        breaks=deg.breaks,
    )
    return [row for slice_rows in nested for row in slice_rows], degradation


def _io(module: str, name: str) -> Callable[[Any], Any]:
    """``repro.io.<module>.<name>``, looked up (and imported) at every call."""

    def call(arg: Any) -> Any:
        return getattr(importlib.import_module(f"repro.io.{module}"), name)(arg)

    return call


# The execute and sweep document entries look their functions up at call
# time, so a wrapper installed on this module or on repro.io's sees every
# cell.
_KINDS: Dict[str, _Kind] = {
    "sweep": _Kind(
        name="sweep",
        cell_type=RunSpec,
        cell_key=lambda spec: spec.key(),
        cell_to_dict=_io("runspec_json", "runspec_to_dict"),
        cell_from_dict=_io("runspec_json", "runspec_from_dict"),
        execute=lambda spec, tasksets=None: run_spec(spec, tasksets),
        result_to_dict=_io("results_json", "run_result_to_dict"),
        cacheable=True,
    ),
    "faults": _Kind(
        name="faults",
        cell_type=CampaignCell,
        cell_key=lambda cell: cell.key(),
        cell_to_dict=lambda cell: cell.to_dict(),
        cell_from_dict=CampaignCell.from_dict,
        execute=lambda cell, tasksets=None: run_cell(cell, tasksets),
        result_to_dict=lambda outcome: outcome.to_dict(),
        cacheable=False,
    ),
}


def get_kind(name: str) -> _Kind:
    """The kind adapter for *name* (``"sweep"`` / ``"faults"``).

    The public accessor remote executors (:mod:`repro.serve.worker`) use
    to reconstruct and execute cells from their wire documents with the
    exact serialization/execution semantics of the file queue.
    """
    try:
        return _KINDS[name]
    except KeyError:
        raise ValueError(f"unknown campaign kind {name!r} (have {sorted(_KINDS)})") from None


# ----------------------------------------------------------------------
# Campaign identity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One content-addressed slice of a campaign's cell list."""

    index: int
    shard_id: str
    #: Cell positions in the campaign's cell list (contiguous slice).
    start: int
    stop: int

    @property
    def cells(self) -> int:
        return self.stop - self.start


class ShardedCampaign:
    """An immutable cell list plus its sharding, content-addressed.

    Parameters
    ----------
    kind:
        ``"sweep"`` (cells are :class:`~repro.runtime.spec.RunSpec`) or
        ``"faults"`` (cells are
        :class:`~repro.faults.campaign.CampaignCell`).
    cells:
        The ordered cell list.  Order is part of the campaign's identity
        — merged artifacts restore it exactly.
    shard_size:
        Cells per shard (the last shard may be short).
    meta:
        Free-form JSON-able metadata carried in the manifest (e.g. the
        fault campaign's ``fault_free`` flag, so ``resume`` can apply
        acceptance-gate semantics without re-supplying flags).
    """

    def __init__(
        self,
        kind: str,
        cells: Sequence[Any],
        shard_size: int = 16,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown campaign kind {kind!r} (have {sorted(_KINDS)})")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if not cells:
            raise ValueError("a campaign needs at least one cell")
        self.kind = kind
        self.cells: Tuple[Any, ...] = tuple(cells)
        self.shard_size = shard_size
        self.meta: Dict[str, Any] = dict(meta or {})
        k = _KINDS[kind]
        self.cell_keys: Tuple[str, ...] = tuple(k.cell_key(c) for c in self.cells)
        self.campaign_key = self._compute_key()
        self.shards: Tuple[ShardSpec, ...] = tuple(self._compute_shards())

    def _compute_key(self) -> str:
        doc = {
            "format": CAMPAIGN_FORMAT,
            "version": CAMPAIGN_VERSION,
            "kind": self.kind,
            "shard_size": self.shard_size,
            "cell_keys": list(self.cell_keys),
        }
        return sha256_hex(canonical_json(doc))

    def _compute_shards(self) -> List[ShardSpec]:
        out: List[ShardSpec] = []
        for idx, start in enumerate(range(0, len(self.cells), self.shard_size)):
            stop = min(start + self.shard_size, len(self.cells))
            shard_id = sha256_hex(
                canonical_json(
                    {
                        "campaign": self.campaign_key,
                        "index": idx,
                        "cell_keys": list(self.cell_keys[start:stop]),
                    }
                )
            )
            out.append(ShardSpec(index=idx, shard_id=shard_id, start=start, stop=stop))
        return out

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": CAMPAIGN_FORMAT,
            "version": CAMPAIGN_VERSION,
            "kind": self.kind,
            "key": self.campaign_key,
            "shard_size": self.shard_size,
            "meta": self.meta,
            "cells": codec.encode(self.cells, Tuple[_KINDS[self.kind].cell_type, ...]),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ShardedCampaign":
        """Read a campaign document; its derived ``key`` must match."""
        head = codec.decode(_CampaignDocument, doc)
        kind = get_kind(head.kind)
        campaign = cls(
            kind=head.kind,
            cells=codec.decode(Annotated[Tuple[kind.cell_type, ...], "cells"], doc.get("cells")),
            shard_size=head.shard_size,
            meta=head.meta,
        )
        if head.key is not None and head.key != campaign.campaign_key:
            raise ValueError(
                f"campaign manifest key {head.key[:12]} does not match its "
                f"reconstructed cells ({campaign.campaign_key[:12]}); the "
                "manifest is corrupt or from an incompatible version"
            )
        return campaign


@codec.document(header=(CAMPAIGN_FORMAT, CAMPAIGN_VERSION))
@dataclass(frozen=True)
class _CampaignDocument:
    """The typed head of a campaign document; ``cells`` are decoded by
    their kind's class, and ``key`` is derived from them."""

    kind: str
    shard_size: int
    meta: Dict[str, Any] = field(default_factory=dict)
    key: Optional[str] = None


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
class CampaignStore:
    """Directory layout + atomic IO for one campaign."""

    def __init__(self, directory: Pathish) -> None:
        self.root = pathlib.Path(directory)

    @property
    def campaign_path(self) -> pathlib.Path:
        return self.root / "campaign.json"

    @property
    def merged_path(self) -> pathlib.Path:
        return self.root / "merged.json"

    def shard_path(self, shard_id: str) -> pathlib.Path:
        return self.root / "shards" / f"{shard_id}.json"

    def lease_path(self, shard_id: str) -> pathlib.Path:
        return self.root / "leases" / f"{shard_id}.json"

    # -- campaign manifest ---------------------------------------------
    def initialize(self, campaign: ShardedCampaign) -> None:
        """Write the campaign manifest, or verify an existing one matches."""
        if self.campaign_path.exists():
            existing = self.load()
            if existing.campaign_key != campaign.campaign_key:
                raise CampaignMismatchError(
                    f"{self.root} already holds campaign "
                    f"{existing.campaign_key[:12]} ({len(existing.cells)} cells), "
                    f"not {campaign.campaign_key[:12]} ({len(campaign.cells)} "
                    "cells); use a fresh directory per cell list"
                )
            return
        atomic_write_text(
            self.campaign_path, json.dumps(campaign.to_dict(), indent=2) + "\n"
        )

    def load(self) -> ShardedCampaign:
        with open(self.campaign_path, "r", encoding="utf-8") as fh:
            return ShardedCampaign.from_dict(json.load(fh))

    # -- shard manifests -----------------------------------------------
    def read_manifest(self, shard: ShardSpec) -> Optional[Dict[str, Any]]:
        """The shard's result manifest, or ``None`` if absent/torn."""
        try:
            doc = json.loads(self.shard_path(shard.shard_id).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if doc.get("format") != SHARD_RESULT_FORMAT or doc.get("shard") != shard.shard_id:
            return None
        if len(doc.get("results", ())) != shard.cells:
            return None
        return doc

    def shard_done(self, shard: ShardSpec) -> bool:
        return self.read_manifest(shard) is not None

    def write_manifest(
        self,
        campaign: ShardedCampaign,
        shard: ShardSpec,
        results: Sequence[Dict[str, Any]],
        cached: Sequence[bool],
        wall_ns: Sequence[int],
        owner: str,
        shard_wall_ns: int,
    ) -> None:
        doc = {
            "format": SHARD_RESULT_FORMAT,
            "version": SHARD_RESULT_VERSION,
            "campaign": campaign.campaign_key,
            "shard": shard.shard_id,
            "index": shard.index,
            "cell_keys": list(campaign.cell_keys[shard.start : shard.stop]),
            "results": list(results),
            "cached": list(cached),
            "wall_ns": list(wall_ns),
            "owner": owner,
            "shard_wall_ns": shard_wall_ns,
        }
        atomic_write_text(
            self.shard_path(shard.shard_id), json.dumps(doc, indent=2) + "\n"
        )

    # -- leases --------------------------------------------------------
    def _lease_doc(self, owner: str, acquired: float, heartbeat: float) -> str:
        # acquired/heartbeat come from the staleness clock (monotonic by
        # default — see try_acquire); "wall" is display-only, so humans
        # inspecting a lease file still see a civil timestamp.
        return json.dumps(
            {
                "format": LEASE_FORMAT,
                "owner": owner,
                "acquired": acquired,
                "heartbeat": heartbeat,
                "wall": time.time(),
            }
        )

    def read_lease(self, shard_id: str) -> Optional[Dict[str, Any]]:
        try:
            doc = json.loads(self.lease_path(shard_id).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if doc.get("format") != LEASE_FORMAT:
            return None
        return doc

    def try_acquire(
        self,
        shard_id: str,
        owner: str,
        lease_ttl: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> bool:
        """Claim *shard_id*: a fresh lease, a renewal of the caller's own,
        or a steal of one that is not live (:meth:`live_owner`).

        Of several owners claiming one free or expired lease, exactly
        one wins.  A live owner that was only slow can still lose its
        lease to a thief — see the module docstring; that costs a
        redundant (deterministic) shard execution, never a wrong result.

        Staleness is judged on ``clock``, **monotonic** by default:
        lease files coordinate processes on one machine, where
        ``CLOCK_MONOTONIC`` is shared, and a wall-clock step (NTP slew,
        suspend/resume) must neither steal a live worker's lease (jump
        forward) nor keep a dead worker's lease alive (jump back) —
        the same dual-clock rule the telemetry writer follows.
        """
        path = self.lease_path(shard_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        now = clock()
        payload = self._lease_doc(owner, now, now)
        # Publish the lease and its content in one step.  Creating the
        # lease path with O_EXCL and then writing it would let a second
        # owner read the still-empty file, take it for torn and steal it:
        # both owners would then run the shard.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.link(tmp, path)
            return True
        except FileExistsError:
            pass  # another owner holds (or held) the lease
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        existing = self.read_lease(shard_id)
        if existing is not None:
            if existing.get("owner") == owner:
                # Re-acquiring one's own lease renews it, expired or not.
                self.heartbeat(shard_id, owner, clock)
                return True
            if _lease_live(existing, lease_ttl, now):
                return False
        # Expired (or torn) lease: steal it under the steal lock, unless
        # another thief replaced it between our read and the lock.
        fd = os.open(path.parent / "steal.lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            if self.read_lease(shard_id) != existing:
                return False
            atomic_write_text(path, payload, fsync=False)
            return True
        finally:
            os.close(fd)  # releases the lock

    def live_owner(
        self, shard_id: str, lease_ttl: float, clock: Callable[[], float] = time.monotonic
    ) -> Optional[str]:
        """The owner of *shard_id*'s live lease (last heartbeat on *clock*
        at most *lease_ttl* old), or ``None``.  The one TTL rule: steals,
        the coordinator's heartbeat verdicts and leased counts use it."""
        lease = self.read_lease(shard_id)
        if lease is None or not _lease_live(lease, lease_ttl, clock()):
            return None
        return str(lease.get("owner", ""))

    def heartbeat(
        self, shard_id: str, owner: str, clock: Callable[[], float] = time.monotonic
    ) -> None:
        existing = self.read_lease(shard_id)
        if existing is None or existing.get("owner") != owner:
            return  # lost the lease; the executing work is still valid
        atomic_write_text(
            self.lease_path(shard_id),
            self._lease_doc(owner, float(existing.get("acquired", 0.0)), clock()),
            fsync=False,
        )

    def release(self, shard_id: str, owner: str) -> None:
        existing = self.read_lease(shard_id)
        if existing is not None and existing.get("owner") == owner:
            self.drop_lease(shard_id)

    def drop_lease(self, shard_id: str) -> None:
        """Delete *shard_id*'s lease, whoever holds it."""
        try:
            os.unlink(self.lease_path(shard_id))
        except OSError:
            pass


def _lease_live(lease: Dict[str, Any], lease_ttl: float, now: float) -> bool:
    """Whether *lease*'s last heartbeat is at most *lease_ttl* before *now*."""
    return now - float(lease.get("heartbeat", 0.0)) <= lease_ttl


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkStats:
    """What one :func:`work` (or :func:`run_workers`) call did."""

    shards_total: int = 0
    #: Shards this call executed (claimed, ran, wrote the manifest).
    shards_claimed: int = 0
    #: Shards whose manifest already existed when visited.
    shards_skipped: int = 0
    #: Cells actually simulated by this call.
    cells_run: int = 0
    #: Cells served from the result cache (sweep kind only).
    cache_hits: int = 0
    #: Process-pool breaks absorbed (pool driver only).
    pool_breaks: int = 0

    def merged(self, other: "WorkStats") -> "WorkStats":
        return WorkStats(
            shards_total=max(self.shards_total, other.shards_total),
            shards_claimed=self.shards_claimed + other.shards_claimed,
            shards_skipped=self.shards_skipped + other.shards_skipped,
            cells_run=self.cells_run + other.cells_run,
            cache_hits=self.cache_hits + other.cache_hits,
            pool_breaks=self.pool_breaks + other.pool_breaks,
        )


def _default_owner() -> str:
    return f"{os.uname().nodename}:{os.getpid()}"


class ShardColumns(NamedTuple):
    """A finished shard's per-cell manifest columns, in cell order."""

    results: List[Dict[str, Any]]
    cached: List[bool]
    wall_ns: List[int]


def run_shard(
    kind: _Kind,
    cells: Sequence[Any],
    keys: Sequence[str],
    cache: Optional[ResultCache] = None,
    on_cell: Optional[Callable[[bool], None]] = None,
    telemetry=None,
) -> ShardColumns:
    """Run one shard, as one sharing scope, to its columns.

    The one shard body of both transports: the file queue writes the
    columns as the shard's manifest (:func:`_execute_shard`), and a
    service worker sends them in one ``shard_done`` frame that the
    coordinator writes the same way.  *on_cell* gets each cell's
    ``cached`` flag as it lands (heartbeats, progress), and *telemetry*
    a ``cell_done`` sample.
    """
    columns = ShardColumns([], [], [])
    for result, was_cached, wall_ns in kind.run_cells(cells, keys, cache):
        columns.results.append(kind.result_to_dict(result))
        columns.cached.append(was_cached)
        columns.wall_ns.append(wall_ns)
        if on_cell is not None:
            on_cell(was_cached)
        if telemetry is not None:
            telemetry.cell_done(was_cached, events=result.events, wall_ns=wall_ns)
    return columns


def _execute_shard(
    store: CampaignStore,
    campaign: ShardedCampaign,
    shard: ShardSpec,
    owner: str,
    cache: Optional[ResultCache],
    clock: Callable[[], float],
    on_cell: Optional[Callable[[bool], None]] = None,
    telemetry=None,
) -> Tuple[int, int]:
    """Run one claimed shard to its manifest; returns (cells_run, hits)."""

    def beat(was_cached: bool) -> None:
        store.heartbeat(shard.shard_id, owner, clock)
        if on_cell is not None:
            on_cell(was_cached)

    t_shard = time.perf_counter_ns()
    results, cached, wall = run_shard(
        _KINDS[campaign.kind],
        campaign.cells[shard.start : shard.stop],
        campaign.cell_keys[shard.start : shard.stop],
        cache,
        beat,
        telemetry,
    )
    store.write_manifest(
        campaign, shard, results, cached, wall, owner, time.perf_counter_ns() - t_shard
    )
    hits = sum(cached)
    return len(results) - hits, hits


def work(
    directory: Pathish,
    owner: Optional[str] = None,
    cache: Optional[ResultCache] = None,
    lease_ttl: float = 60.0,
    poll_interval: float = 0.05,
    wait: bool = True,
    max_shards: Optional[int] = None,
    progress=None,
    metrics=None,
    clock: Callable[[], float] = time.monotonic,
    telemetry: bool = False,
) -> WorkStats:
    """Drive one campaign directory toward completion from this process.

    Repeatedly scans the shard list in index order, claims unowned
    incomplete shards, executes them, and writes their manifests.  With
    ``wait=True`` (default) the call returns only when **every** shard
    has a manifest — shards held by live foreign leases are polled until
    their owners finish or their leases expire (TTL), at which point
    they are reclaimed and executed here.  ``wait=False`` returns as
    soon as no shard is claimable.  ``max_shards`` stops after this call
    has executed that many shards (used by tests and incremental runs).
    ``telemetry=True`` appends an NDJSON telemetry stream under
    ``<dir>/telemetry/<owner>.ndjson`` (:mod:`repro.obs.telemetry`) and
    enables kernel phase profiling — observation only, results and
    manifests are byte-identical either way.

    Safe to run concurrently from any number of processes against the
    same directory; the lease files partition the work.
    """
    store = CampaignStore(directory)
    campaign = store.load()
    who = owner if owner is not None else _default_owner()
    spans = None
    if metrics is not None:
        from repro.obs.spans import SpanTimer

        spans = SpanTimer(metrics, "shard")
    tele = None
    if telemetry:
        from repro.obs.telemetry import (
            TelemetryWriter,
            enable_phase_profiling,
            telemetry_path,
        )

        enable_phase_profiling(True)
        backend = ""
        if campaign.kind == "sweep" and campaign.cells:
            backend = campaign.cells[0].kernel.backend
        # Note: the telemetry writer keeps its own (wall, monotonic)
        # clock pair — the lease clock is monotonic and must not leak
        # into wall-stamped telemetry records.
        tele = TelemetryWriter(
            telemetry_path(directory, who),
            owner=who,
            campaign=campaign.campaign_key,
            backend=backend,
        )
    claimed = 0
    skipped = 0
    cells_run = 0
    hits = 0
    seen_done: set = set()
    on_cell = progress.cell_done if progress is not None else None

    try:
        while True:
            pending = [s for s in campaign.shards if s.shard_id not in seen_done]
            progressed = False
            for shard in pending:
                if store.shard_done(shard):
                    skipped += 1
                    seen_done.add(shard.shard_id)
                    progressed = True
                    continue
                if max_shards is not None and claimed >= max_shards:
                    continue
                prior_owner = None
                if tele is not None:
                    prior = store.read_lease(shard.shard_id)
                    prior_owner = prior.get("owner") if prior else None
                if not store.try_acquire(shard.shard_id, who, lease_ttl, clock):
                    continue
                if tele is not None:
                    tele.lease_acquired(
                        stolen=prior_owner is not None and prior_owner != who
                    )
                # Re-check under the lease: a racing worker may have finished
                # the shard between our scan and the acquire.
                if store.shard_done(shard):
                    store.release(shard.shard_id, who)
                    skipped += 1
                    seen_done.add(shard.shard_id)
                    progressed = True
                    continue
                if tele is not None:
                    tele.shard_claimed()
                try:
                    if spans is not None:
                        with spans.span("execute"):
                            ran, h = _execute_shard(
                                store, campaign, shard, who, cache, clock,
                                on_cell, tele,
                            )
                    else:
                        ran, h = _execute_shard(
                            store, campaign, shard, who, cache, clock,
                            on_cell, tele,
                        )
                finally:
                    store.release(shard.shard_id, who)
                claimed += 1
                cells_run += ran
                hits += h
                seen_done.add(shard.shard_id)
                if tele is not None:
                    tele.shard_finished()
                progressed = True
            remaining = [s for s in campaign.shards if s.shard_id not in seen_done]
            if not remaining:
                break
            if max_shards is not None and claimed >= max_shards:
                break
            if not progressed:
                if not wait:
                    break
                time.sleep(poll_interval)
    finally:
        if tele is not None:
            tele.close()
    return WorkStats(
        shards_total=len(campaign.shards),
        shards_claimed=claimed,
        shards_skipped=skipped,
        cells_run=cells_run,
        cache_hits=hits,
    )


def _work_entry(
    directory: str,
    owner: str,
    cache_dir: Optional[str],
    lease_ttl: float,
    telemetry: bool = False,
) -> WorkStats:
    """Module-level pool entry point (picklable)."""
    cache = ResultCache(cache_dir) if cache_dir else None
    return work(
        directory,
        owner=owner,
        cache=cache,
        lease_ttl=lease_ttl,
        wait=False,
        telemetry=telemetry,
    )


def run_workers(
    directory: Pathish,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    lease_ttl: float = 60.0,
    progress=None,
    metrics=None,
    max_shards: Optional[int] = None,
    telemetry: bool = False,
) -> WorkStats:
    """Drive a campaign with *jobs* worker processes (1 = in-process).

    Worker processes coordinate purely through the campaign directory's
    lease files, so a SIGKILLed worker costs only its in-flight shard:
    the resulting ``BrokenProcessPool`` is absorbed and the survivors'
    completed manifests stand.  After the pool returns (or breaks), a
    final in-process :func:`work` pass executes whatever is left —
    including shards orphaned behind expired leases — so this function
    returns only when the campaign is complete (unless ``max_shards``
    cut it short).
    """
    if jobs <= 1 or max_shards is not None:
        return work(
            directory,
            cache=cache,
            lease_ttl=lease_ttl,
            progress=progress,
            metrics=metrics,
            max_shards=max_shards,
            telemetry=telemetry,
        )
    store = CampaignStore(directory)
    campaign = store.load()
    cache_dir = str(cache.directory) if cache is not None else None
    breaks = 0
    stats = WorkStats(shards_total=len(campaign.shards))
    workers = min(jobs, len(campaign.shards))
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [
                pool.submit(
                    _work_entry,
                    str(directory),
                    f"{_default_owner()}:w{i}",
                    cache_dir,
                    lease_ttl,
                    telemetry,
                )
                for i in range(workers)
            ]
            pending = set(futs)
            while pending:
                done, pending = concurrent.futures.wait(pending, timeout=0.2)
                for fut in done:
                    stats = stats.merged(fut.result())
                _poll_progress(store, campaign, progress)
    except concurrent.futures.process.BrokenProcessPool:
        breaks = 1
    # Finish (or verify) in-process: reclaims expired leases and blocks
    # until every shard has a manifest.
    tail = work(
        directory,
        cache=cache,
        lease_ttl=lease_ttl,
        progress=progress,
        metrics=metrics,
        telemetry=telemetry,
    )
    merged = stats.merged(tail)
    return WorkStats(
        shards_total=merged.shards_total,
        shards_claimed=merged.shards_claimed,
        shards_skipped=merged.shards_skipped,
        cells_run=merged.cells_run,
        cache_hits=merged.cache_hits,
        pool_breaks=breaks,
    )


def _poll_progress(store: CampaignStore, campaign: ShardedCampaign, progress) -> None:
    """Pool-mode progress: the parent reads completion off the manifests."""
    if progress is None:
        return
    done_cells = sum(s.cells for s in campaign.shards if store.shard_done(s))
    progress.set_completed_cells(done_cells)


# ----------------------------------------------------------------------
# Campaign roots: many campaigns under one directory
# ----------------------------------------------------------------------
def prepare_campaign(root: Pathish, campaign: ShardedCampaign) -> pathlib.Path:
    """Initialize (or re-attach to) *campaign* under *root*; returns its dir.

    Campaigns nest under a key-prefixed subdirectory, so one root can
    host every grid a reproduction touches and resume finds them all.
    """
    cdir = pathlib.Path(root) / campaign.campaign_key[:16]
    CampaignStore(cdir).initialize(campaign)
    return cdir


def iter_campaign_dirs(root: Pathish) -> List[pathlib.Path]:
    """Campaign directories under *root* (or *root* itself), sorted."""
    rootp = pathlib.Path(root)
    if (rootp / "campaign.json").is_file():
        return [rootp]
    if not rootp.is_dir():
        return []
    return sorted(
        p for p in rootp.iterdir() if p.is_dir() and (p / "campaign.json").is_file()
    )


def campaign_status(directory: Pathish) -> List[ShardReport]:
    """Per-shard completion/ownership, in shard order."""
    store = CampaignStore(directory)
    campaign = store.load()
    out: List[ShardReport] = []
    for shard in campaign.shards:
        manifest = store.read_manifest(shard)
        if manifest is not None:
            out.append(
                ShardReport(
                    index=shard.index,
                    shard_id=shard.shard_id,
                    cells=shard.cells,
                    state="done",
                    owner=str(manifest.get("owner", "")),
                    wall_ns=int(manifest.get("shard_wall_ns", 0)),
                )
            )
            continue
        lease = store.read_lease(shard.shard_id)
        if lease is not None:
            out.append(
                ShardReport(
                    index=shard.index,
                    shard_id=shard.shard_id,
                    cells=shard.cells,
                    state="leased",
                    owner=str(lease.get("owner", "")),
                    wall_ns=0,
                )
            )
        else:
            out.append(
                ShardReport(
                    index=shard.index,
                    shard_id=shard.shard_id,
                    cells=shard.cells,
                    state="pending",
                    owner="",
                    wall_ns=0,
                )
            )
    return out


# ----------------------------------------------------------------------
# Streaming reduce
# ----------------------------------------------------------------------
def iter_result_rows(
    store: CampaignStore,
    campaign: ShardedCampaign,
    owners: Optional[List[Dict[str, Any]]] = None,
) -> Iterator[Tuple[Dict[str, Any], bool, int]]:
    """Yield ``(doc, cached, wall_ns)`` per cell, in campaign cell order.

    The one reader of shard manifests' per-cell columns: every merge,
    the sharded executor's report and the coordinator's ``fetch`` go
    through it.  Each manifest is parsed once and at most one is held
    in memory at a time.  When *owners* is given, ``{"index", "shard",
    "owner"}`` is appended to it as each shard streams by, so a merge
    can stamp worker attribution into its provenance manifest without a
    second pass.

    Reaching a shard with no valid manifest raises
    :class:`IncompleteCampaignError` listing that shard and every later
    missing one — every earlier shard was just read, so the list is
    complete.  Merges stream into :func:`~repro.util.atomicio.atomic_writer`,
    so an artifact abandoned this way never replaces a finished one.
    """
    for shard in campaign.shards:
        manifest = store.read_manifest(shard)
        if manifest is None:
            later = campaign.shards[shard.index + 1 :]
            raise IncompleteCampaignError(
                [shard.index] + [s.index for s in later if not store.shard_done(s)]
            )
        if owners is not None:
            owners.append(
                {
                    "index": shard.index,
                    "shard": shard.shard_id,
                    "owner": str(manifest.get("owner", "")),
                }
            )
        cached = manifest.get("cached", [False] * shard.cells)
        wall = manifest.get("wall_ns", [0] * shard.cells)
        for off, doc in enumerate(manifest["results"]):
            yield doc, bool(cached[off]), int(wall[off])


def merge_results(directory: Pathish) -> List[RunResult]:
    """A completed sweep campaign's results, in submission order."""
    from repro.io.results_json import run_result_from_dict

    store = CampaignStore(directory)
    return [
        run_result_from_dict(doc)
        for doc, _cached, _wall in iter_result_rows(store, store.load())
    ]


class _HashingWriter:
    """Text-writer wrapper that sha256s everything written through it.

    Lets the streaming merges compute the merged artifact's content
    address in the same pass that produces the bytes — provenance
    emission never re-reads (or changes) the artifact.
    """

    def __init__(self, fh) -> None:
        self._fh = fh
        self._hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self._fh.write(text)
        self._hash.update(text.encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _emit_provenance(
    campaign: ShardedCampaign,
    dest: pathlib.Path,
    artifact_sha256: str,
    cell_digests: Sequence[str],
    owners: Sequence[Dict[str, Any]],
) -> pathlib.Path:
    """Write the sibling ``repro-provenance`` manifest for one merge."""
    from repro.provenance import build_manifest, provenance_path, write_manifest

    manifest = build_manifest(
        kind=campaign.kind,
        campaign_key=campaign.campaign_key,
        cell_keys=campaign.cell_keys,
        cell_digests=cell_digests,
        artifact=dest,
        artifact_sha256=artifact_sha256,
        cells=campaign.cells,
        owners=owners,
    )
    return write_manifest(manifest, provenance_path(dest))


def _write_sweep_artifact(
    campaign: ShardedCampaign, dest: pathlib.Path, docs: Iterable[Dict[str, Any]]
) -> Tuple[str, List[str]]:
    """Stream result *docs* into *campaign*'s merged sweep artifact at *dest*.

    The one writer body behind :func:`write_merged_results` and
    :func:`write_results_artifact`: canonical JSON over the campaign
    key, the ordered result list and a small aggregate summary, written
    atomically.  Returns the artifact's sha256 (hashed in the same pass)
    and the per-cell digests for the provenance manifest.
    """
    cells = 0
    truncated = 0
    events_total = 0
    digests: List[str] = []
    with atomic_writer(dest) as raw:
        fh = _HashingWriter(raw)
        fh.write(
            '{"campaign":"%s","format":"%s","results":['
            % (campaign.campaign_key, MERGED_SWEEP_FORMAT)
        )
        for doc in docs:
            if cells:
                fh.write(",")
            text = canonical_json(doc)
            fh.write(text)
            digests.append(sha256_hex(text))
            cells += 1
            truncated += 1 if doc.get("truncated") else 0
            events_total += int(doc.get("events", 0))
        summary = {"cells": cells, "truncated": truncated, "events_total": events_total}
        fh.write(
            '],"summary":%s,"version":%d}\n'
            % (canonical_json(summary), MERGED_SWEEP_VERSION)
        )
    return fh.hexdigest(), digests


def write_merged_results(
    directory: Pathish, out: Optional[Pathish] = None
) -> pathlib.Path:
    """Stream a completed sweep campaign into its merged artifact.

    Because every cell is deterministic, the bytes depend only on the
    campaign — not on which workers ran it, in how many attempts, or how
    it was interrupted.

    A ``repro-provenance`` manifest (cell keys + per-cell digests +
    artifact sha256 + per-shard owners) is written as a sibling file via
    :func:`repro.provenance.provenance_path`; the merged bytes
    themselves are unchanged by provenance emission.
    """
    store = CampaignStore(directory)
    campaign = store.load()
    dest = pathlib.Path(out) if out is not None else store.merged_path
    owners: List[Dict[str, Any]] = []
    sha, digests = _write_sweep_artifact(
        campaign,
        dest,
        (doc for doc, _cached, _wall in iter_result_rows(store, campaign, owners)),
    )
    _emit_provenance(campaign, dest, sha, digests, owners)
    return dest


def write_results_artifact(
    specs: Sequence[RunSpec],
    results: Sequence[RunResult],
    out: Pathish,
    shard_size: int = 16,
    owner: str = "local",
) -> pathlib.Path:
    """Write a merged sweep artifact + provenance from in-memory results.

    The serial and process-pool backends hold their results in memory
    rather than in a campaign directory; this produces the *same bytes*
    :func:`write_merged_results` would for a sharded run of the same
    cells at the same ``shard_size`` (the campaign key embeds both), so
    every executor backend emits interchangeable, verifiable artifacts.
    """
    from repro.io.results_json import run_result_to_dict

    if len(specs) != len(results):
        raise ValueError(f"{len(specs)} specs but {len(results)} results")
    campaign = ShardedCampaign("sweep", list(specs), shard_size=shard_size)
    dest = pathlib.Path(out)
    sha, digests = _write_sweep_artifact(
        campaign, dest, (run_result_to_dict(r) for r in results)
    )
    owners = [
        {"index": s.index, "shard": s.shard_id, "owner": owner}
        for s in campaign.shards
    ]
    # A sibling campaign document makes the artifact verifiable
    # standalone: `repro-mc2 verify` re-executes cells from it.
    atomic_write_text(
        dest.with_name(dest.stem + ".campaign.json"),
        json.dumps(campaign.to_dict(), indent=2) + "\n",
    )
    _emit_provenance(campaign, dest, sha, digests, owners)
    return dest


def _scorecard_outcomes(
    store: CampaignStore,
    campaign: ShardedCampaign,
    owners: Optional[List[Dict[str, Any]]] = None,
) -> Iterator[CellOutcome]:
    for doc, _cached, _wall in iter_result_rows(store, campaign, owners):
        yield CellOutcome.from_dict(doc)


def merge_scorecard(directory: Pathish) -> Scorecard:
    """A completed faults campaign's :class:`Scorecard` (in memory)."""
    store = CampaignStore(directory)
    return Scorecard(outcomes=tuple(_scorecard_outcomes(store, store.load())))


def write_merged_scorecard(
    directory: Pathish, out: Optional[Pathish] = None
) -> pathlib.Path:
    """Stream a completed faults campaign into scorecard JSON.

    Byte-identical to ``Scorecard.save()`` of an uninterrupted serial
    :func:`~repro.faults.campaign.run_campaign` over the same cells: both
    write through :func:`~repro.faults.campaign.scorecard_json_chunks`,
    here fed outcome by outcome as the shard manifests stream by — the
    whole outcome list is never resident at once.
    """
    store = CampaignStore(directory)
    campaign = store.load()
    dest = pathlib.Path(out) if out is not None else store.merged_path
    digests: List[str] = []
    owners: List[Dict[str, Any]] = []
    outcomes = _scorecard_outcomes(store, campaign, owners)
    with atomic_writer(dest) as raw:
        fh = _HashingWriter(raw)
        for chunk in scorecard_json_chunks(outcomes, digests=digests):
            fh.write(chunk)
        fh.write("\n")
    _emit_provenance(campaign, dest, fh.hexdigest(), digests, owners)
    return dest


# ----------------------------------------------------------------------
# High-level drivers
# ----------------------------------------------------------------------
def run_sharded_campaign(
    cells: Sequence[CampaignCell],
    root: Pathish,
    jobs: int = 1,
    shard_size: int = 16,
    lease_ttl: float = 60.0,
    progress=None,
    metrics=None,
    meta: Optional[Dict[str, Any]] = None,
    telemetry: bool = False,
) -> Tuple[Scorecard, pathlib.Path, WorkStats]:
    """Checkpointed fault campaign: execute (or resume) *cells* under *root*.

    Returns the merged scorecard, the campaign directory and the work
    stats.  Interrupt it at any point — including ``kill -9`` of any
    worker — and calling it again with the same cells (or running
    ``repro-mc2 faults resume <root>``) completes only the missing
    shards and merges to the identical artifact.
    """
    campaign = ShardedCampaign("faults", cells, shard_size=shard_size, meta=meta)
    cdir = prepare_campaign(root, campaign)
    stats = resume_campaign(
        cdir,
        jobs=jobs,
        lease_ttl=lease_ttl,
        progress=progress,
        metrics=metrics,
        telemetry=telemetry,
    )
    outcomes = tuple(_scorecard_outcomes(CampaignStore(cdir), campaign))
    return Scorecard(outcomes=outcomes), cdir, stats


def resume_campaign(
    directory: Pathish,
    jobs: int = 1,
    lease_ttl: float = 60.0,
    cache: Optional[ResultCache] = None,
    progress=None,
    metrics=None,
    telemetry: bool = False,
) -> WorkStats:
    """Re-attach to one campaign directory and drive it to completion.

    Expired leases are reclaimed, completed shards are skipped, the
    merged artifact is (re)written.  Works for both kinds; the caller
    can inspect ``CampaignStore(directory).load().kind`` to decide how
    to present the merged artifact.  The one drive-then-merge path:
    :func:`run_sharded_campaign` and :class:`ShardedBackend` run through
    it too.
    """
    store = CampaignStore(directory)
    campaign = store.load()
    if progress is not None:
        progress.begin(len(campaign.cells))
    stats = run_workers(
        directory,
        jobs=jobs,
        cache=cache,
        lease_ttl=lease_ttl,
        progress=progress,
        metrics=metrics,
        telemetry=telemetry,
    )
    if progress is not None:
        progress.finish()
    if campaign.kind == "faults":
        write_merged_scorecard(directory)
    else:
        write_merged_results(directory)
    return stats


# ----------------------------------------------------------------------
# Sweep executor backend
# ----------------------------------------------------------------------
class ShardedBackend(SweepExecutor):
    """A :class:`~repro.runtime.executor.SweepExecutor` that checkpoints.

    ``run(specs)`` content-addresses the spec list into a campaign under
    ``directory``, drives it with ``jobs`` workers, and merges — so a
    sweep killed at any point (including SIGKILL of the whole process
    tree) resumes from its completed shards on the next identical
    ``run()`` call, or via ``repro-mc2 sweep resume``.

    Unlike the pool backend, the campaign covers the *full* spec list
    (its identity must not depend on cache warmth); the per-cell result
    cache is consulted inside the workers instead of up front.
    """

    def __init__(
        self,
        directory: Pathish,
        jobs: int = 1,
        shard_size: int = 16,
        cache: Optional[ResultCache] = None,
        lease_ttl: float = 60.0,
        metrics=None,
        progress=None,
        telemetry: bool = False,
    ) -> None:
        super().__init__(cache=cache, metrics=metrics, progress=progress)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.directory = pathlib.Path(directory)
        self.jobs = jobs
        self.shard_size = shard_size
        self.lease_ttl = lease_ttl
        #: Write per-worker telemetry streams + kernel phase profiles
        #: (observation only; results are byte-identical either way).
        self.telemetry = telemetry
        #: Campaign directory of the most recent run() (for resume/status).
        self.last_campaign_dir: Optional[pathlib.Path] = None

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        from repro.io.results_json import run_result_from_dict

        specs = list(specs)
        campaign = ShardedCampaign("sweep", specs, shard_size=self.shard_size)
        cdir = prepare_campaign(self.directory, campaign)
        self.last_campaign_dir = cdir
        stats = resume_campaign(
            cdir,
            jobs=self.jobs,
            lease_ttl=self.lease_ttl,
            cache=self.cache,
            progress=self.progress,
            metrics=self.metrics,
            telemetry=self.telemetry,
        )
        results: List[RunResult] = []
        cached: List[bool] = []
        wall: List[int] = []
        cell_ns = self.metrics.histogram("executor.cell.ns")
        for doc, was_cached, wall_ns in iter_result_rows(CampaignStore(cdir), campaign):
            results.append(run_result_from_dict(doc))
            cached.append(was_cached)
            wall.append(wall_ns)
            cell_ns.record(wall_ns)
        return self._finish_run(
            specs,
            campaign.cell_keys,
            results,
            cached,
            wall,
            simulated=stats.cells_run,
            degradation=PoolDegradation(breaks=stats.pool_breaks),
        )
