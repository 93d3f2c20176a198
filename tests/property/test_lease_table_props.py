"""One lease table: a Hypothesis stateful model of campaign shard leases.

File-queue owners drive :class:`~repro.runtime.shard.CampaignStore`
directly, as ``work()`` does, and service workers drive a
:class:`~repro.serve.coordinator.Coordinator` through ``handle()``.  Both
share the campaign directory's lease files on one fake monotonic clock,
and both commit a shard as one manifest: a service worker in one
``shard_done`` frame.  The coordinator spot-checks every delivered cell.
A plain-dict model predicts every grant, heartbeat verdict, lease, commit
and quarantine, and the rules check that:

* the store's live owner of every shard is the model's (at most one);
* a heartbeat is valid exactly when its owner holds a live lease;
* a shard with a result manifest is never granted, whoever wrote it;
* a dishonest owner's frame is refused and writes nothing, a named
  owner is barred (its re-sent frames refused too), and the shard stays
  grantable; an anonymous one is spot-checked like any other;
* a torn frame gets one error and changes nothing, and a duplicate
  after the commit is acknowledged and leaves the manifest alone;
* a coordinator restart leaves no lease and keeps every bar;
* the merged artifact equals the file-queue reference.

Owners grant, heartbeat, commit and walk away in any order while the
clock advances and the coordinator restarts.  Results are the
file-queue reference's own documents, and the spot check's re-execution
reads them too, so no cell runs inside the model.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import tempfile
from typing import Any, Dict, List, Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.runtime.shard as shard_module
from repro.io.results_json import run_result_from_dict
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
#: Service workers; ``m0`` and the anonymous ``""`` corrupt every shard
#: they deliver.
SERVICE = ("s0", "s1", "m0", "")
DISHONEST = ("m0", "")
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
        self.holding: Dict[str, int] = {}  # owner -> shard it works on
        self.barred: set = set()  # owners the spot check convicted
        self.quarantines = 0  # shards the spot check refused
        # The spot check re-executes cells through the sweep kind's
        # run_spec; here it reads the reference results instead.  Patched
        # last: teardown() restores it, and runs only if __init__ returns.
        results = {
            cell: run_result_from_dict(doc)
            for cell, doc in zip(self.campaign.cells, self.docs)
        }
        self._run_spec = shard_module.run_spec
        shard_module.run_spec = lambda spec, tasksets=None: results[spec]

    # -- helpers -------------------------------------------------------
    def clock(self) -> float:
        return self.now

    def _start_coordinator(self) -> Coordinator:
        coord = Coordinator(self.root, lease_ttl=TTL, mono=self.clock, verify_fraction=1.0)
        coord.recover()
        return coord

    def _live(self, idx: int) -> Optional[List[Any]]:
        lease = self.leases.get(idx)
        if lease is not None and self.now - lease[1] <= TTL:
            return lease
        return None

    def _sid(self, idx: int) -> str:
        return self.shards[idx].shard_id

    def _commit(self, idx: int) -> None:
        self.committed.add(idx)
        self.on_disk.add(idx)
        self.leases.pop(idx, None)  # dropped, whoever holds it

    def _shard_done(self, idx: int, owner: str) -> wire.ShardDone:
        shard = self.shards[idx]
        docs = self.docs[shard.start : shard.stop]
        if owner in DISHONEST:
            docs = [dict(doc, miss_count=doc["miss_count"] + 1) for doc in docs]
        return wire.ShardDone(
            campaign=self.key, shard=shard.shard_id, owner=owner, results=docs,
            cached=[False] * shard.cells, wall_ns=[0] * shard.cells,
        )

    # -- rules ---------------------------------------------------------
    @rule(dt=st.sampled_from([0.25, 0.5, 1.25]))
    def advance(self, dt: float) -> None:
        self.now += dt

    @rule(w=st.sampled_from(SERVICE))
    def service_lease(self, w: str) -> None:
        if w in self.holding:
            return
        (reply,) = self.coord.handle(wire.LeaseRequest(owner=w))
        if w in self.barred:
            assert reply == wire.NoWork(active=0, drained=False, quarantined=True)
            return
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
            assert isinstance(reply, wire.NoWork) and not reply.quarantined
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

    @rule(w=st.sampled_from(SERVICE))
    def service_shard_done(self, w: str) -> None:
        """Deliver the whole shard in one frame, lease or no lease.

        A refused dishonest owner keeps its shard and may send it again.
        """
        idx = self.holding.get(w)
        if idx is None:
            return
        path = self.store.shard_path(self._sid(idx))
        before = path.read_bytes() if idx in self.committed else None
        (reply,) = self.coord.handle(self._shard_done(idx, w))
        if idx in self.committed:
            assert reply == wire.ShardOk(accepted=True)  # a late duplicate
            assert path.read_bytes() == before
        elif w in self.barred:
            assert reply.quarantined and not reply.accepted
            return
        elif w in DISHONEST:
            assert reply.quarantined and not reply.accepted
            # Refused: nothing written, the lease dropped whoever holds
            # it, a named owner barred; the shard goes back to the pool.
            if w:
                self.barred.add(w)
            self.quarantines += 1
            self.leases.pop(idx, None)
            assert self.store.shard_done(self.shards[idx]) == (idx in self.on_disk)
            return
        else:
            assert reply == wire.ShardOk(accepted=True)
            self._commit(idx)
        del self.holding[w]

    @rule(w=st.sampled_from(SERVICE))
    def service_torn_frame(self, w: str) -> None:
        """A frame one result short: one error reply, and nothing moves."""
        idx = self.holding.get(w)
        if idx is None:
            return
        frame = self._shard_done(idx, w)
        torn = dataclasses.replace(frame, results=frame.results[:-1])
        (reply,) = self.coord.handle(torn)
        assert isinstance(reply, wire.ErrorReply)
        assert f"its results column has {len(torn.results)}" in reply.reason

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
        assert self.coord.quarantined_owners == self.barred
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
        assert doc["quarantined"] == self.quarantines
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
                (done,) = self.coord.handle(self._shard_done(reply.index, "drain"))
                assert done.accepted
            state = self.coord.campaigns[self.key]
            assert state.complete
            assert state.store.merged_path.read_bytes() == self.merged
        finally:
            shard_module.run_spec = self._run_spec
            shutil.rmtree(self.root, ignore_errors=True)


TestLeaseTable = LeaseTable.TestCase
TestLeaseTable.settings = settings(max_examples=150, stateful_step_count=30, deadline=None)
