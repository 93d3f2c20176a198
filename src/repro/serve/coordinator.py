"""The ``repro-serve`` coordinator: an asyncio service over campaign dirs.

One coordinator process owns a campaign *root* (the same layout
``prepare_campaign`` builds for the file queue) and speaks
:mod:`repro.serve.protocol` to any number of workers and clients:

* ``submit`` registers a content-addressed campaign — literally
  :func:`repro.runtime.shard.prepare_campaign` under the root, so the
  on-disk truth is identical to a file-queue campaign and every
  file-based tool (``sweep status``, ``status``, ``top``, ``resume``)
  keeps working against the serve root;
* ``lease`` grants shards in campaign order through the file queue's
  own lease files (:class:`~repro.runtime.shard.CampaignStore`, on the
  coordinator's monotonic clock), the one lease table both use; a
  restarted coordinator drops every lease of the campaigns it loads,
  and a shard a file-queue worker committed is never granted;
* streamed ``cell_result`` messages are buffered per shard **and
  journaled** (``<root>/coordinator.journal``, one ``O_APPEND`` NDJSON
  line per cell) so a coordinator crash mid-stream loses nothing a
  restart can't reassemble;
* ``shard_done`` commits the shard through the existing atomic
  :meth:`~repro.runtime.shard.CampaignStore.write_manifest`, and the
  last manifest triggers the streaming merge
  (:func:`~repro.runtime.shard.write_merged_results` /
  :func:`~repro.runtime.shard.write_merged_scorecard`) — so the merged
  artifact is byte-identical to an uninterrupted serial run no matter
  how many workers, reconnects, or restarts happened in between.

Correctness never depends on the lease bookkeeping: cells are
deterministic, so a lease lost to a network partition or TTL expiry
costs at most a redundant execution that writes the same bytes.

Nothing polls.  :meth:`Coordinator.handle` answers every request at
once; the server loop parks a ``lease`` or ``jobs`` request that asked
to wait (see :mod:`repro.serve.protocol`) and handles it again when a
campaign is registered, a shard is committed or quarantined, or a
heartbeat period passes (a lease may have expired), until it can be
answered or :data:`~repro.serve.protocol.MAX_WAIT_S` runs out.  A peer
that hangs up while parked is never answered, so no grant goes to a
dead worker.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.io.canonical import canonical_json, doc_digest
from repro.runtime.shard import (
    CampaignStore,
    IncompleteCampaignError,
    ShardedCampaign,
    ShardSpec,
    get_kind,
    iter_campaign_dirs,
    iter_result_rows,
    prepare_campaign,
    write_merged_results,
    write_merged_scorecard,
)
from repro.serve import protocol as wire
from repro.util.atomicio import append_line

__all__ = ["JOURNAL_NAME", "Coordinator", "serve"]

JOURNAL_NAME = "coordinator.journal"


def _provenance_sibling(state: "_CampaignState") -> pathlib.Path:
    from repro.provenance import provenance_path

    return provenance_path(state.store.merged_path)


def _provenance_doc(state: "_CampaignState") -> Dict[str, Any]:
    """The merged artifact's provenance document, or ``{}`` if absent."""
    try:
        doc = json.loads(_provenance_sibling(state).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


@dataclass
class _CampaignState:
    """One registered campaign: durable store (leases included) + buffers."""

    campaign: ShardedCampaign
    cdir: pathlib.Path
    store: CampaignStore
    done: Set[str] = field(default_factory=set)
    #: shard_id -> {campaign cell position -> (doc, cached, wall_ns)}.
    buffers: Dict[str, Dict[int, Tuple[Dict[str, Any], bool, int]]] = field(
        default_factory=dict
    )
    #: Shard submissions rejected by the verification spot-check.
    quarantined: int = 0
    #: Lazily-created coordinator-side TelemetryWriter (verify counters).
    telemetry: Any = None

    @property
    def complete(self) -> bool:
        return len(self.done) == len(self.campaign.shards)

    def shard_by_id(self, shard_id: str) -> Optional[ShardSpec]:
        for shard in self.campaign.shards:
            if shard.shard_id == shard_id:
                return shard
        return None


class Coordinator:
    """Protocol state machine + asyncio server (see the module docstring).

    Message handling is synchronous inside the event loop, so per-message
    state transitions are atomic without locks; the durable transitions
    (journal append, manifest write, merge) are the same atomic-IO
    primitives the file queue uses.
    """

    def __init__(
        self,
        root: "str | pathlib.Path",
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl: float = 60.0,
        mono=time.monotonic,
        verify_fraction: float = 0.0,
        verify_seed: int = 0,
    ) -> None:
        if not 0.0 <= verify_fraction <= 1.0:
            raise ValueError(
                f"verify_fraction must be in [0, 1], got {verify_fraction}"
            )
        self.root = pathlib.Path(root)
        self.host = host
        self.port = port
        self.lease_ttl = lease_ttl
        self._mono = mono
        #: Fraction of each committed shard's cells the coordinator
        #: re-executes before accepting it (0 disables the spot-check).
        self.verify_fraction = verify_fraction
        self.verify_seed = verify_seed
        #: Workers that failed a spot-check; they are never granted work
        #: again and their streamed frames are dropped.
        self.quarantined_owners: Set[str] = set()
        self.campaigns: Dict[str, _CampaignState] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self.recovered_shards = 0
        #: Bumped whenever a parked request may have a new answer: a
        #: campaign registered, a shard committed or back in the pool.
        self._changes = 0
        #: Requests the server loop holds right now.
        self.parked = 0
        #: Resolved (and replaced) when ``_changes`` moves; parked
        #: requests await it.  Created by :meth:`start`.
        self._wake: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    # Durability: journal + recovery
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> pathlib.Path:
        return self.root / JOURNAL_NAME

    def _journal(self, event: Dict[str, Any]) -> None:
        append_line(self.journal_path, canonical_json(event))

    def recover(self) -> None:
        """Rebuild state from the root: manifests first, then the journal.

        Shard manifests are the durable truth; the journal only
        re-seeds the in-memory cell buffers of shards that were still
        streaming when the coordinator died.  A shard whose every cell
        made it into the journal is committed to its manifest right
        here (owner ``"recovered"`` — owners never enter merged
        artifacts), so a crash between the last ``cell_result`` and the
        manifest write costs nothing.  Every lease of a loaded campaign
        is dropped: a restarted coordinator holds none.
        """
        for cdir in iter_campaign_dirs(self.root):
            state = self._register(CampaignStore(cdir).load(), cdir)
            for shard in state.campaign.shards:
                state.store.drop_lease(shard.shard_id)
        try:
            fh = open(self.journal_path, "r", encoding="utf-8")
        except OSError:
            fh = None
        if fh is not None:
            with fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue  # torn final line of a killed coordinator
                    ev = event.get("ev")
                    if ev == "quarantine":
                        owner = str(event.get("owner", ""))
                        if owner:
                            self.quarantined_owners.add(owner)
                        qstate = self.campaigns.get(event.get("c", ""))
                        if qstate is not None:
                            qstate.quarantined += 1
                            # The rejected cells were journaled before
                            # the verdict; drop them so recovery can't
                            # commit a shard verification refused.
                            qstate.buffers.pop(str(event.get("s", "")), None)
                        continue
                    if ev != "cell":
                        continue
                    state = self.campaigns.get(event.get("c", ""))
                    if state is None:
                        continue
                    shard_id = str(event.get("s", ""))
                    if shard_id in state.done:
                        continue
                    try:
                        pos = int(event["p"])
                        doc = event["doc"]
                    except (KeyError, TypeError, ValueError):
                        continue
                    state.buffers.setdefault(shard_id, {})[pos] = (
                        doc,
                        bool(event.get("cached", False)),
                        int(event.get("w", 0)),
                    )
        for state in self.campaigns.values():
            for shard in state.campaign.shards:
                if shard.shard_id in state.done:
                    continue
                buf = state.buffers.get(shard.shard_id, {})
                if all(p in buf for p in range(shard.start, shard.stop)):
                    self._commit_shard(state, shard, "recovered", 0)
                    self.recovered_shards += 1
            if state.complete:
                self._merge(state)

    def _register(self, campaign: ShardedCampaign, cdir: pathlib.Path) -> _CampaignState:
        """Track *campaign* (stored in *cdir*); its manifests say what is done."""
        store = CampaignStore(cdir)
        state = _CampaignState(campaign=campaign, cdir=cdir, store=store)
        state.done = {s.shard_id for s in campaign.shards if store.shard_done(s)}
        self.campaigns[campaign.campaign_key] = state
        self._changes += 1
        return state

    def _commit_shard(
        self, state: _CampaignState, shard: ShardSpec, owner: str, shard_wall_ns: int
    ) -> None:
        buf = state.buffers.get(shard.shard_id, {})
        rows = [buf[p] for p in range(shard.start, shard.stop)]
        state.store.write_manifest(
            state.campaign,
            shard,
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            owner,
            shard_wall_ns,
        )
        self._journal({"ev": "shard", "c": state.campaign.campaign_key,
                       "s": shard.shard_id})
        state.done.add(shard.shard_id)
        state.buffers.pop(shard.shard_id, None)
        state.store.drop_lease(shard.shard_id)
        self._changes += 1

    def _merge(self, state: _CampaignState) -> pathlib.Path:
        if state.campaign.kind == "faults":
            return write_merged_scorecard(state.cdir)
        return write_merged_results(state.cdir)

    # ------------------------------------------------------------------
    # Verification spot-check (untrusted workers)
    # ------------------------------------------------------------------
    def _writer(self, state: _CampaignState):
        """The campaign's coordinator-side telemetry stream (lazy)."""
        if state.telemetry is None:
            from repro.obs.telemetry import TelemetryWriter, telemetry_path

            state.telemetry = TelemetryWriter(
                telemetry_path(state.cdir, "coordinator"),
                owner="coordinator",
                campaign=state.campaign.campaign_key,
            )
        return state.telemetry

    def _spot_check(self, state: _CampaignState, shard: ShardSpec) -> List[int]:
        """Re-execute a seeded sample of a buffered shard's cells.

        Returns the campaign positions whose streamed result document
        does not digest to what a fresh execution produces.  The sample
        is deterministic per (seed, shard), so a re-submitted shard is
        checked at the same positions — a dishonest worker cannot win by
        resubmitting until the sample misses its corruption.
        """
        buf = state.buffers.get(shard.shard_id, {})
        n = shard.stop - shard.start
        if self.verify_fraction >= 1.0:
            k = n
        else:
            k = min(n, max(1, round(self.verify_fraction * n)))
        rng = random.Random(f"{self.verify_seed}:{shard.shard_id}")
        positions = sorted(rng.sample(range(shard.start, shard.stop), k))
        kind = get_kind(state.campaign.kind)
        writer = self._writer(state)
        divergent: List[int] = []
        for pos in positions:
            expected = doc_digest(
                kind.result_to_dict(kind.execute(state.campaign.cells[pos]))
            )
            ok = doc_digest(buf[pos][0]) == expected
            writer.cell_verified(ok)
            if not ok:
                divergent.append(pos)
        # Flush at every verification verdict (shard boundary) so the
        # stream's tail always reflects the full verified-cell count.
        writer.sample(force=True)
        return divergent

    def _quarantine(
        self, state: _CampaignState, shard: ShardSpec, owner: str, bad: List[int]
    ) -> wire.Message:
        """Reject a shard that failed verification and bar its worker.

        The buffered results and the shard's lease are dropped, so the
        shard goes back into the grantable pool for honest workers; the
        quarantine is journaled so a coordinator restart keeps the
        worker barred.
        """
        self._journal({
            "ev": "quarantine", "c": state.campaign.campaign_key,
            "s": shard.shard_id, "owner": owner, "p": bad,
        })
        state.buffers.pop(shard.shard_id, None)
        state.store.drop_lease(shard.shard_id)
        self._changes += 1
        if owner:
            self.quarantined_owners.add(owner)
        state.quarantined += 1
        self._writer(state).shard_quarantined()
        return wire.ShardOk(
            accepted=False,
            quarantined=True,
            reason=f"verification failed at cell(s) "
                   f"{bad[:8]}{'...' if len(bad) > 8 else ''}; "
                   f"shard re-queued, owner {owner!r} quarantined",
        )

    # ------------------------------------------------------------------
    # Message handlers (one per request type)
    # ------------------------------------------------------------------
    def handle(self, msg: wire.Message) -> List[wire.Message]:
        """Map one request to its reply (or reply stream, for fetch)."""
        if isinstance(msg, wire.Hello):
            if msg.format != wire.PROTOCOL_FORMAT or msg.version != wire.PROTOCOL_VERSION:
                return [wire.ErrorReply(
                    reason=f"protocol mismatch: want {wire.PROTOCOL_FORMAT} "
                           f"v{wire.PROTOCOL_VERSION}, got {msg.format} v{msg.version}"
                )]
            return [wire.HelloOk()]
        if isinstance(msg, wire.Submit):
            return [self._on_submit(msg)]
        if isinstance(msg, wire.LeaseRequest):
            return [self._on_lease(msg)]
        if isinstance(msg, wire.CellResult):
            return [self._on_cell(msg)]
        if isinstance(msg, wire.ShardDone):
            return [self._on_shard_done(msg)]
        if isinstance(msg, wire.Heartbeat):
            return [self._on_heartbeat(msg)]
        if isinstance(msg, wire.Telemetry):
            return [self._on_telemetry(msg)]
        if isinstance(msg, wire.JobsRequest):
            return [self._on_jobs()]
        if isinstance(msg, wire.StatusRequest):
            return [self._on_status()]
        if isinstance(msg, wire.FetchRequest):
            return self._on_fetch(msg)
        return [wire.ErrorReply(reason=f"unexpected message type {msg.TYPE!r}")]

    def _on_submit(self, msg: wire.Submit) -> wire.Message:
        try:
            campaign = ShardedCampaign.from_dict(dict(msg.campaign))
        except (KeyError, TypeError, ValueError) as exc:
            return wire.ErrorReply(reason=f"bad campaign document: {exc}")
        created = campaign.campaign_key not in self.campaigns
        if created:
            state = self._register(campaign, prepare_campaign(self.root, campaign))
            self._journal({"ev": "campaign", "key": campaign.campaign_key,
                           "dir": state.cdir.name})
            if state.complete:
                self._merge(state)
        state = self.campaigns[campaign.campaign_key]
        return wire.SubmitOk(
            key=campaign.campaign_key,
            shards=len(campaign.shards),
            shards_done=len(state.done),
            created=created,
        )

    def _live_owner(self, state: _CampaignState, shard_id: str) -> Optional[str]:
        """The owner of the shard's live lease (the store's TTL rule)."""
        return state.store.live_owner(shard_id, self.lease_ttl, self._mono)

    def _on_lease(self, msg: wire.LeaseRequest) -> wire.Message:
        """Grant the first incomplete shard, in campaign order, whose lease
        is not live and which :meth:`_acquire` wins."""
        if msg.owner and msg.owner in self.quarantined_owners:
            return wire.NoWork(active=0, drained=False, quarantined=True)
        for key in sorted(self.campaigns):
            state = self.campaigns[key]
            if state.complete:
                continue
            for shard in state.campaign.shards:
                if not self._acquire(state, shard, msg.owner):
                    continue
                campaign = state.campaign
                to_dict = get_kind(campaign.kind).cell_to_dict
                return wire.LeaseGrant(
                    campaign=campaign.campaign_key,
                    shard=shard.shard_id,
                    index=shard.index,
                    start=shard.start,
                    stop=shard.stop,
                    kind=campaign.kind,
                    cells=[to_dict(campaign.cells[p])
                           for p in range(shard.start, shard.stop)],
                    cell_keys=list(campaign.cell_keys[shard.start:shard.stop]),
                    meta=dict(campaign.meta),
                    ttl=self.lease_ttl,
                )
        active = sum(not state.complete for state in self.campaigns.values())
        return wire.NoWork(active=active, drained=active == 0)

    def _acquire(self, state: _CampaignState, shard: ShardSpec, owner: str) -> bool:
        """Lease *shard* to *owner* if it is not done and not leased.

        Under the won lease the shard's manifest is checked again, as
        ``work()`` does: a file-queue worker on this root may have
        committed it.  Such a shard counts as done (merging the campaign
        if it was the last) and is not granted.
        """
        sid = shard.shard_id
        if sid in state.done or self._live_owner(state, sid) is not None:
            return False
        if not state.store.try_acquire(sid, owner, self.lease_ttl, self._mono):
            return False
        if not state.store.shard_done(shard):
            return True
        state.store.drop_lease(sid)
        state.done.add(sid)
        state.buffers.pop(sid, None)
        self._changes += 1
        if state.complete:
            self._merge(state)
        return False

    def _on_cell(self, msg: wire.CellResult) -> wire.Message:
        state = self.campaigns.get(msg.campaign)
        if state is None:
            return wire.ErrorReply(reason=f"unknown campaign {msg.campaign[:12]}")
        if msg.owner and msg.owner in self.quarantined_owners:
            # Acknowledge but drop: a quarantined worker's frames must
            # never reach the journal or buffers, and an error reply
            # would just crash its stream loop mid-shard.
            return wire.CellOk()
        if msg.shard in state.done:
            return wire.CellOk()  # duplicate delivery after a re-grant
        shard = state.shard_by_id(msg.shard)
        if shard is None:
            return wire.ErrorReply(reason=f"unknown shard {msg.shard[:12]}")
        if not shard.start <= msg.pos < shard.stop:
            return wire.ErrorReply(
                reason=f"cell {msg.pos} outside shard slice "
                       f"[{shard.start}, {shard.stop})"
            )
        self._journal({
            "ev": "cell", "c": msg.campaign, "s": msg.shard, "p": msg.pos,
            "doc": msg.doc, "cached": msg.cached, "w": msg.wall_ns,
        })
        state.buffers.setdefault(msg.shard, {})[msg.pos] = (
            dict(msg.doc), msg.cached, msg.wall_ns,
        )
        return wire.CellOk()

    def _on_shard_done(self, msg: wire.ShardDone) -> wire.Message:
        state = self.campaigns.get(msg.campaign)
        if state is None:
            return wire.ErrorReply(reason=f"unknown campaign {msg.campaign[:12]}")
        if msg.shard in state.done:
            return wire.ShardOk(accepted=True)
        shard = state.shard_by_id(msg.shard)
        if shard is None:
            return wire.ErrorReply(reason=f"unknown shard {msg.shard[:12]}")
        if msg.owner and msg.owner in self.quarantined_owners:
            return wire.ShardOk(
                accepted=False,
                quarantined=True,
                reason=f"owner {msg.owner!r} is quarantined",
            )
        buf = state.buffers.get(msg.shard, {})
        missing = [p for p in range(shard.start, shard.stop) if p not in buf]
        if missing:
            # A restarted coordinator may have lost nothing (journal) or
            # everything before the journal existed; either way the
            # worker just re-streams the listed cells and retries.
            return wire.ShardOk(
                accepted=False,
                reason=f"missing {len(missing)} cell(s): "
                       f"{missing[:8]}{'...' if len(missing) > 8 else ''}",
            )
        if self.verify_fraction > 0.0 and msg.owner not in ("", "recovered"):
            bad = self._spot_check(state, shard)
            if bad:
                return self._quarantine(state, shard, msg.owner, bad)
        self._commit_shard(state, shard, msg.owner, msg.shard_wall_ns)
        if state.complete:
            self._merge(state)
        return wire.ShardOk(accepted=True)

    def _on_heartbeat(self, msg: wire.Heartbeat) -> wire.Message:
        state = self.campaigns.get(msg.campaign)
        if state is None or self._live_owner(state, msg.shard) != msg.owner:
            return wire.HeartbeatOk(valid=False)
        state.store.heartbeat(msg.shard, msg.owner, self._mono)
        return wire.HeartbeatOk(valid=True)

    def _on_telemetry(self, msg: wire.Telemetry) -> wire.Message:
        from repro.obs.telemetry import telemetry_path

        state = self.campaigns.get(msg.campaign)
        if state is None:
            return wire.ErrorReply(reason=f"unknown campaign {msg.campaign[:12]}")
        append_line(
            telemetry_path(state.cdir, msg.owner),
            canonical_json(msg.record),
        )
        return wire.TelemetryOk()

    def _on_jobs(self) -> wire.Message:
        docs = []
        for key in sorted(self.campaigns):
            state = self.campaigns[key]
            docs.append({
                "key": key,
                "kind": state.campaign.kind,
                "cells": len(state.campaign.cells),
                "shards": len(state.campaign.shards),
                "shards_done": len(state.done),
                "leased": sum(
                    self._live_owner(state, s.shard_id) is not None
                    for s in state.campaign.shards
                    if s.shard_id not in state.done
                ),
                "merged": state.store.merged_path.is_file(),
                "quarantined": state.quarantined,
                "manifest": _provenance_sibling(state).is_file(),
                "dir": state.cdir.name,
            })
        return wire.JobsReply(campaigns=docs)

    def _on_status(self) -> wire.Message:
        from repro.obs.telemetry import TelemetryAggregator, render_status

        agg = TelemetryAggregator()
        blocks = []
        for key in sorted(self.campaigns):
            state = self.campaigns[key]
            agg.add_campaign(state.cdir)
            blocks.append(str(state.cdir))
            blocks.append(render_status(state.cdir))
        return wire.StatusReply(aggregate=agg.aggregate(), text="\n".join(blocks))

    def _on_fetch(self, msg: wire.FetchRequest) -> List[wire.Message]:
        state = self.campaigns.get(msg.campaign)
        if state is None:
            return [wire.ErrorReply(reason=f"unknown campaign {msg.campaign[:12]}")]
        if not state.complete:
            return [wire.ErrorReply(
                reason=f"campaign incomplete: "
                       f"{len(state.done)}/{len(state.campaign.shards)} shards"
            )]
        try:
            out: List[wire.Message] = [
                wire.FetchCell(pos=pos, doc=doc, cached=cached, wall_ns=wall_ns)
                for pos, (doc, cached, wall_ns) in enumerate(
                    iter_result_rows(state.store, state.campaign)
                )
            ]
        except IncompleteCampaignError as exc:
            return [wire.ErrorReply(reason=f"shard manifest vanished: {exc}")]
        out.append(wire.FetchDone(
            cells=len(state.campaign.cells),
            manifest=_provenance_doc(state),
        ))
        return out

    # ------------------------------------------------------------------
    # asyncio server
    # ------------------------------------------------------------------
    def _handle_and_wake(self, msg: wire.Message) -> List[wire.Message]:
        """:meth:`handle`, then wake the parked requests if state moved."""
        changes = self._changes
        replies = self.handle(msg)
        if self._changes != changes:
            wake = self._wake
            self._wake = asyncio.get_running_loop().create_future()
            wake.set_result(None)
        return replies

    def _waits(self, msg: wire.Message, reply: wire.Message) -> bool:
        """Whether a parked *msg* has nothing new to say in *reply* yet."""
        if isinstance(msg, wire.LeaseRequest):
            return (
                isinstance(reply, wire.NoWork)
                and not reply.quarantined
                and not (msg.once and reply.drained)
            )
        if isinstance(msg, wire.JobsRequest) and msg.wait_for:
            state = self.campaigns.get(msg.wait_for)
            return state is None or not state.complete
        return False

    async def _answer(
        self, msg: wire.Message, read: asyncio.Future
    ) -> Optional[List[wire.Message]]:
        """The replies to *msg*, parked while it waits for news.

        *read* is the connection's outstanding read.  ``None`` means the
        peer hung up while its request was parked: it gets no reply, and
        in particular no grant.
        """
        replies = self._handle_and_wake(msg)
        budget = min(getattr(msg, "wait_s", 0.0), wire.MAX_WAIT_S)
        if not budget > 0.0 or not self._waits(msg, replies[0]):
            return replies
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget
        recheck = wire.heartbeat_period(self.lease_ttl)
        self.parked += 1
        try:
            while self._waits(msg, replies[0]):
                left = deadline - loop.time()
                if left <= 0.0:
                    break
                await asyncio.wait(
                    (read, self._wake),
                    timeout=min(left, recheck),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if read.done():
                    if read.exception() is not None or not read.result():
                        return None
                    break  # the peer spoke out of turn: answer it now
                replies = self._handle_and_wake(msg)
        finally:
            self.parked -= 1
        return replies

    async def _client_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = wire.LineDecoder()
        # The next read is always outstanding while a chunk's requests
        # are answered, so a parked request sees its peer hang up.
        read = asyncio.ensure_future(reader.read(65536))
        try:
            while True:
                data = await read
                if not data:
                    break
                read = asyncio.ensure_future(reader.read(65536))
                for line in decoder.lines(data):
                    try:
                        msg = wire.decode_message(line)
                    except wire.ProtocolError as exc:
                        # A bad frame is answered, and the next one read.
                        replies = [wire.ErrorReply(reason=str(exc))]
                    else:
                        replies = await self._answer(msg, read)
                        if replies is None:
                            return
                    for reply in replies:
                        writer.write(wire.encode_message(reply))
                await writer.drain()
        except ConnectionError:
            pass  # a worker died; its lease will expire
        finally:
            read.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def start(self, port_file: Optional[str] = None) -> int:
        """Bind and start serving; returns the bound port."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._wake = asyncio.get_running_loop().create_future()
        self.recover()
        self._server = await asyncio.start_server(
            self._client_loop, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if port_file:
            from repro.util.atomicio import atomic_write_text

            atomic_write_text(port_file, f"{self.port}\n")
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def _serve_async(
    root: str,
    host: str,
    port: int,
    lease_ttl: float,
    port_file: Optional[str],
    log=print,
    verify_fraction: float = 0.0,
    verify_seed: int = 0,
) -> None:
    coordinator = Coordinator(
        root, host=host, port=port, lease_ttl=lease_ttl,
        verify_fraction=verify_fraction, verify_seed=verify_seed,
    )
    bound = await coordinator.start(port_file=port_file)
    known = len(coordinator.campaigns)
    verify = (
        f"  verify_fraction={coordinator.verify_fraction:g}"
        if coordinator.verify_fraction > 0
        else ""
    )
    log(f"repro-serve v{wire.PROTOCOL_VERSION} coordinator on "
        f"{coordinator.host}:{bound}  root={root}  "
        f"campaigns={known}  recovered_shards={coordinator.recovered_shards}"
        f"{verify}")
    await coordinator.serve_forever()


def serve(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_ttl: float = 60.0,
    port_file: Optional[str] = None,
    log=print,
    verify_fraction: float = 0.0,
    verify_seed: int = 0,
) -> int:
    """Run a coordinator until interrupted (the ``repro-mc2 serve`` body)."""
    try:
        asyncio.run(_serve_async(
            root, host, port, lease_ttl, port_file, log=log,
            verify_fraction=verify_fraction, verify_seed=verify_seed,
        ))
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return 0
