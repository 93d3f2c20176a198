"""One lease table: a Hypothesis stateful model of campaign shard leases.

File-queue owners drive :class:`~repro.runtime.shard.CampaignStore`
directly, as ``work()`` does, and service workers drive a
:class:`~repro.serve.coordinator.Coordinator` through ``handle()``.  Both
share the campaign directory's lease files on one fake monotonic clock.
A plain-dict model predicts every grant, heartbeat verdict and lease,
and the rules check that:

* the store's live owner of every shard is the model's (at most one);
* a heartbeat is valid exactly when its owner holds a live lease;
* a shard with a result manifest is never granted, whoever wrote it;
* a coordinator restart leaves no lease;
* the merged artifact equals the file-queue reference.

Owners grant, heartbeat, stream, commit and walk away in any order while
the clock advances and the coordinator restarts.  Results are the
file-queue reference's own documents, so no cell runs inside the model.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from typing import Any, Dict, List, Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.runtime.shard import (
    CampaignStore,
    ShardedCampaign,
    iter_result_rows,
    prepare_campaign,
    work,
    write_merged_results,
)
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.serve import protocol as wire
from repro.serve.coordinator import Coordinator
from repro.workload.generator import GeneratorParams, taskset_seeds
from repro.workload.scenarios import SHORT

TTL = 1.0
SERVICE = ("s0", "s1")
FILE_QUEUE = ("f0",)

_REFERENCE: Dict[str, Any] = {}


def reference() -> Dict[str, Any]:
    """The campaign (3 shards of 2 cells), its per-cell result documents
    and its merged artifact, drained once through the file queue."""
    if not _REFERENCE:
        cells = [
            RunSpec(
                taskset=TaskSetSpec.generated(seed, GeneratorParams(m=2)),
                scenario=ScenarioSpec.from_scenario(SHORT),
                monitor=MonitorSpec("simple", 0.6),
                horizon=2.0,
            )
            for seed in taskset_seeds(6, base_seed=31)
        ]
        campaign = ShardedCampaign("sweep", cells, shard_size=2)
        tmp = tempfile.mkdtemp(prefix="lease-ref-")
        try:
            cdir = prepare_campaign(tmp, campaign)
            work(cdir)
            merged = write_merged_results(cdir).read_bytes()
            docs = [doc for doc, _c, _w in iter_result_rows(CampaignStore(cdir), campaign)]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        _REFERENCE.update(campaign=campaign, docs=docs, merged=merged)
    return _REFERENCE


class LeaseTable(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        ref = reference()
        self.campaign: ShardedCampaign = ref["campaign"]
        self.docs: List[Dict[str, Any]] = ref["docs"]
        self.merged: bytes = ref["merged"]
        self.key = self.campaign.campaign_key
        self.shards = self.campaign.shards
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="lease-model-"))
        self.now = 0.0
        self.coord = self._start_coordinator()
        self.coord.handle(wire.Submit(campaign=self.campaign.to_dict()))
        self.store = CampaignStore(self.coord.campaigns[self.key].cdir)
        # The model.
        self.leases: Dict[int, List[Any]] = {}  # shard -> [owner, last beat]
        self.committed: set = set()  # the coordinator's done shards
        self.on_disk: set = set()  # shards with a result manifest
        self.streamed: Dict[int, set] = {}  # shard -> journaled positions
        self.holding: Dict[str, int] = {}  # owner -> shard it works on

    # -- helpers -------------------------------------------------------
    def clock(self) -> float:
        return self.now

    def _start_coordinator(self) -> Coordinator:
        coord = Coordinator(self.root, lease_ttl=TTL, mono=self.clock)
        coord.recover()
        return coord

    def _live(self, idx: int) -> Optional[List[Any]]:
        lease = self.leases.get(idx)
        if lease is not None and self.now - lease[1] <= TTL:
            return lease
        return None

    def _sid(self, idx: int) -> str:
        return self.shards[idx].shard_id

    def _complete(self, idx: int) -> bool:
        shard = self.shards[idx]
        return self.streamed.get(idx, set()) >= set(range(shard.start, shard.stop))

    def _commit(self, idx: int) -> None:
        self.committed.add(idx)
        self.on_disk.add(idx)
        self.leases.pop(idx, None)  # dropped, whoever holds it
        self.streamed.pop(idx, None)

    # -- rules ---------------------------------------------------------
    @rule(dt=st.sampled_from([0.25, 0.5, 1.25]))
    def advance(self, dt: float) -> None:
        self.now += dt

    @rule(w=st.sampled_from(SERVICE))
    def service_lease(self, w: str) -> None:
        if w in self.holding:
            return
        (reply,) = self.coord.handle(wire.LeaseRequest(owner=w))
        expected = None
        for i in range(len(self.shards)):
            if i in self.committed or self._live(i) is not None:
                continue
            if i in self.on_disk:
                # A file-queue commit: the coordinator finds the manifest
                # under the lease it won, counts the shard done and moves on.
                self._commit(i)
                continue
            expected = i
            break
        if expected is None:
            assert isinstance(reply, wire.NoWork)
            assert reply.drained == (len(self.committed) == len(self.shards))
            return
        assert isinstance(reply, wire.LeaseGrant)
        assert reply.index == expected
        assert reply.index not in self.on_disk
        self.leases[expected] = [w, self.now]
        self.holding[w] = expected

    @rule(w=st.sampled_from(SERVICE))
    def service_heartbeat(self, w: str) -> None:
        idx = self.holding.get(w)
        if idx is None:
            return
        (reply,) = self.coord.handle(
            wire.Heartbeat(owner=w, campaign=self.key, shard=self._sid(idx))
        )
        lease = self._live(idx)
        valid = lease is not None and lease[0] == w
        assert reply.valid == valid
        if valid:
            lease[1] = self.now  # type: ignore[index]

    @rule(w=st.sampled_from(SERVICE), count=st.integers(1, 2))
    def service_stream(self, w: str, count: int) -> None:
        idx = self.holding.get(w)
        if idx is None:
            return
        shard = self.shards[idx]
        for pos in range(shard.start, min(shard.start + count, shard.stop)):
            (ok,) = self.coord.handle(
                wire.CellResult(
                    campaign=self.key, shard=shard.shard_id, pos=pos,
                    doc=self.docs[pos], cached=False, wall_ns=0, owner=w,
                )
            )
            assert ok == wire.CellOk()
            if idx not in self.committed:
                self.streamed.setdefault(idx, set()).add(pos)

    @rule(w=st.sampled_from(SERVICE))
    def service_commit(self, w: str) -> None:
        idx = self.holding.get(w)
        if idx is None:
            return
        (reply,) = self.coord.handle(
            wire.ShardDone(campaign=self.key, shard=self._sid(idx), owner=w)
        )
        if idx in self.committed:
            assert reply.accepted  # a late duplicate stays idempotent
        elif self._complete(idx):
            assert reply.accepted
            self._commit(idx)
        else:
            assert not reply.accepted
            return
        del self.holding[w]

    @rule(f=st.sampled_from(FILE_QUEUE), idx=st.integers(0, 2))
    def file_queue_acquire(self, f: str, idx: int) -> None:
        if f in self.holding or idx in self.on_disk:
            return  # work() skips shards whose manifest exists
        ok = self.store.try_acquire(self._sid(idx), f, TTL, self.clock)
        lease = self._live(idx)
        assert ok == (lease is None or lease[0] == f)
        if ok:
            self.leases[idx] = [f, self.now]
            self.holding[f] = idx

    @rule(f=st.sampled_from(FILE_QUEUE))
    def file_queue_heartbeat(self, f: str) -> None:
        idx = self.holding.get(f)
        if idx is None:
            return
        self.store.heartbeat(self._sid(idx), f, self.clock)
        lease = self.leases.get(idx)
        if lease is not None and lease[0] == f:
            lease[1] = self.now

    @rule(f=st.sampled_from(FILE_QUEUE))
    def file_queue_commit(self, f: str) -> None:
        idx = self.holding.pop(f, None)
        if idx is None:
            return
        shard = self.shards[idx]
        self.store.write_manifest(
            self.campaign, shard, self.docs[shard.start : shard.stop],
            [False] * shard.cells, [0] * shard.cells, f, 0,
        )
        self.store.release(shard.shard_id, f)
        self.on_disk.add(idx)
        lease = self.leases.get(idx)
        if lease is not None and lease[0] == f:
            del self.leases[idx]

    @rule(owner=st.sampled_from(SERVICE + FILE_QUEUE))
    def walk_away(self, owner: str) -> None:
        self.holding.pop(owner, None)  # its lease stays until it expires

    @rule()
    def restart_coordinator(self) -> None:
        self.coord = self._start_coordinator()
        self.leases.clear()
        self.committed = set(self.on_disk)
        for idx in range(len(self.shards)):
            if idx not in self.committed and self._complete(idx):
                self._commit(idx)  # recovered from the journal
        self.streamed = {i: p for i, p in self.streamed.items() if i not in self.committed}
        for idx in range(len(self.shards)):
            assert self.store.read_lease(self._sid(idx)) is None

    # -- invariants ----------------------------------------------------
    @invariant()
    def store_agrees_with_model(self) -> None:
        for idx in range(len(self.shards)):
            lease = self._live(idx)
            assert self.store.live_owner(self._sid(idx), TTL, self.clock) == (
                lease[0] if lease is not None else None
            )

    @invariant()
    def jobs_reply_agrees_with_model(self) -> None:
        (reply,) = self.coord.handle(wire.JobsRequest())
        (doc,) = reply.campaigns
        assert doc["shards_done"] == len(self.committed)
        assert doc["leased"] == sum(
            1
            for i in range(len(self.shards))
            if i not in self.committed and self._live(i) is not None
        )

    @invariant()
    def merged_artifact_is_the_reference(self) -> None:
        state = self.coord.campaigns[self.key]
        if state.complete:
            assert state.store.merged_path.read_bytes() == self.merged

    def teardown(self) -> None:
        """Let every lease expire and drain the rest through the service."""
        try:
            self.now += 2 * TTL
            for _ in range(len(self.shards) + 1):
                (reply,) = self.coord.handle(wire.LeaseRequest(owner="drain"))
                if isinstance(reply, wire.NoWork):
                    assert reply.drained
                    break
                for pos in range(reply.start, reply.stop):
                    self.coord.handle(
                        wire.CellResult(
                            campaign=self.key, shard=reply.shard, pos=pos,
                            doc=self.docs[pos], cached=False, wall_ns=0,
                            owner="drain",
                        )
                    )
                (done,) = self.coord.handle(
                    wire.ShardDone(campaign=self.key, shard=reply.shard, owner="drain")
                )
                assert done.accepted
            state = self.coord.campaigns[self.key]
            assert state.complete
            assert state.store.merged_path.read_bytes() == self.merged
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


TestLeaseTable = LeaseTable.TestCase
TestLeaseTable.settings = settings(max_examples=150, stateful_step_count=30, deadline=None)
