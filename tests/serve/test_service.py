"""End-to-end tests for the coordinator/worker campaign fabric.

Pins the service's durability contract against the file queue it wraps:

* merged artifacts from service-run campaigns are **byte-identical** to
  the file queue's ``work()`` on the same campaign (sweep and faults);
* a worker SIGKILLed mid-campaign loses nothing: a survivor steals the
  expired lease and the merged bytes still match;
* a coordinator restarted between a grant and its ``shard_done`` commits
  the frame the worker re-sends, keeps quarantine verdicts, and leaves
  an undelivered shard grantable;
* lease/heartbeat semantics (grant exclusivity, expiry, wrong-owner
  rejection) under a controllable monotonic clock;
* parked requests are answered on the event they wait for (a submit, a
  commit, a lease expiry), never granted to a peer that left, and a
  frame without the wait fields is answered at once;
* a duplicate ``shard_done`` is acknowledged, and a frame whose columns
  or ids do not match its shard gets one error naming the mismatch;
* :func:`~repro.runtime.executor.make_executor` routes
  ``service_addr=`` to :class:`~repro.serve.client.ServiceBackend`,
  which matches :class:`~repro.runtime.executor.SerialBackend`;
* worker telemetry relayed over the wire lands in the campaign
  directory exactly where file-based workers write it;
* ``repro-mc2 status --service`` reports ``source: service``;
* the live-coordinator harness stops without leaving a task pending,
  and ``repro-mc2 serve`` exits cleanly on SIGINT with a peer connected.
"""

import contextlib
import dataclasses
import gc
import json
import logging
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.faults.campaign import CampaignConfig, build_campaign
from repro.io.results_json import run_result_from_dict, run_result_to_dict
from repro.obs.telemetry import telemetry_path, worker_statuses
from repro.runtime.executor import SerialBackend, make_executor
from repro.runtime.shard import (
    ShardedCampaign,
    prepare_campaign,
    work,
    write_merged_results,
    write_merged_scorecard,
)
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.serve import protocol as wire
from repro.serve.client import ServiceBackend, ServiceClient
from repro.serve.coordinator import JOURNAL_NAME, Coordinator
from repro.serve.worker import WorkerClient, run_worker
from repro.workload.generator import GeneratorParams, taskset_seeds
from repro.workload.scenarios import SHORT

PARAMS = GeneratorParams(m=2)


def small_grid(n=4, horizon=2.0):
    """n cheap, deterministic sweep cells (m=2, short horizon)."""
    specs = []
    for seed in taskset_seeds(n, base_seed=23):
        specs.append(
            RunSpec(
                taskset=TaskSetSpec.generated(seed, PARAMS),
                scenario=ScenarioSpec.from_scenario(SHORT),
                monitor=MonitorSpec("simple", 0.6),
                horizon=horizon,
            )
        )
    return specs


@pytest.fixture(scope="module")
def grid():
    return small_grid()


@pytest.fixture(scope="module")
def grid_docs(grid):
    """The grid's serial results as wire documents, in cell order."""
    return [run_result_to_dict(r) for r in SerialBackend().run(grid)]


# ----------------------------------------------------------------------
# Harness: worker loops against a live coordinator (``make_service``)
# ----------------------------------------------------------------------
def shard_done(grant, docs, owner="", **columns):
    """The ``shard_done`` frame of *grant* with the reference documents
    (uncached, zero wall time unless *columns* say otherwise)."""
    n = grant.stop - grant.start
    columns.setdefault("cached", [False] * n)
    columns.setdefault("wall_ns", [0] * n)
    return wire.ShardDone(
        campaign=grant.campaign, shard=grant.shard, owner=owner,
        results=docs[grant.start:grant.stop], **columns,
    )


def drain(addr, **kw):
    """One in-process worker until the coordinator reports drained."""
    kw.setdefault("log", lambda *_: None)
    assert run_worker(addr, once=True, **kw) == 0


@contextlib.contextmanager
def background_workers(addr, n=1, **kw):
    """Worker threads that keep draining until the block exits."""
    stop = threading.Event()
    threads = []

    def loop(i):
        while not stop.is_set():
            run_worker(addr, once=True, owner=f"bg{i}",
                       log=lambda *_: None, **kw)
            stop.wait(0.02)

    for i in range(n):
        t = threading.Thread(target=loop, args=(i,), daemon=True)
        t.start()
        threads.append(t)
    try:
        yield
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30.0)


# ----------------------------------------------------------------------
# Byte identity: the acceptance criterion
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_sweep_merged_identical_to_file_queue(
        self, grid, tmp_path, make_service
    ):
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("sweep", grid, shard_size=2)
        )
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()

        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            ack = client.submit(campaign.to_dict())
            assert ack.created and ack.shards == 2 and ack.shards_done == 0
            drain(svc.addr, owner="w1")
            row = client.wait(campaign.campaign_key, timeout_s=60)
        assert row["merged"]
        merged = (svc.coord.root / row["dir"] / "merged.json").read_bytes()
        assert merged == reference

    def test_faults_merged_identical_to_file_queue(self, tmp_path, make_service):
        cells = build_campaign(CampaignConfig(seed=5, cells=4, tasksets=1, horizon=3.0))
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("faults", cells, shard_size=2)
        )
        work(ref_dir)
        reference = write_merged_scorecard(ref_dir).read_bytes()

        svc = make_service()
        campaign = ShardedCampaign("faults", cells, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            drain(svc.addr, owner="w1")
            row = client.wait(campaign.campaign_key, timeout_s=60)
        merged = (svc.coord.root / row["dir"] / "merged.json").read_bytes()
        assert merged == reference

    def test_resubmit_is_pure_fetch(self, grid, grid_docs, make_service):
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            drain(svc.addr)
            client.wait(campaign.campaign_key, timeout_s=60)
            ack = client.submit(campaign.to_dict())
            assert not ack.created and ack.shards_done == ack.shards
            cells = client.fetch(campaign.campaign_key)
        assert [doc for doc, _, _ in cells] == grid_docs


# ----------------------------------------------------------------------
# SIGKILL a worker mid-campaign; a survivor finishes (acceptance)
# ----------------------------------------------------------------------
_VICTIM_SRC = """
import sys
from repro.serve import worker as w
# Beacon after each *committed* shard so the parent can kill us with
# certainty that in-flight state exists on the coordinator.
orig = w.WorkerClient._stream_shard
def beaconed(self, grant, rows, shard_wall_ns):
    out = orig(self, grant, rows, shard_wall_ns)
    open(sys.argv[2], "a").write("shard\\n")
    return out
w.WorkerClient._stream_shard = beaconed
sys.exit(w.run_worker(sys.argv[1], owner="victim", log=lambda *_: None))
"""


class TestKillWorker:
    def test_sigkill_worker_survivor_finishes_byte_identical(
        self, grid, tmp_path, make_service
    ):
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("sweep", grid, shard_size=1)
        )
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()

        svc = make_service(lease_ttl=0.5)
        campaign = ShardedCampaign("sweep", grid, shard_size=1)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())

            beacon = tmp_path / "beacon"
            env = dict(os.environ)
            src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.Popen(
                [sys.executable, "-c", _VICTIM_SRC, svc.addr, str(beacon)],
                env=env,
            )
            try:
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    if beacon.exists() and beacon.read_text().count("shard") >= 1:
                        break
                    if proc.poll() is not None:
                        break  # drained before we could kill it - still valid
                    time.sleep(0.01)
                proc.send_signal(signal.SIGKILL)
            finally:
                proc.wait()

            # Survivor: waits out the corpse's lease TTL and finishes.
            drain(svc.addr, owner="survivor")
            row = client.wait(campaign.campaign_key, timeout_s=60)
        merged = (svc.coord.root / row["dir"] / "merged.json").read_bytes()
        assert merged == reference


# ----------------------------------------------------------------------
# Coordinator crash + restart: manifests are the only shard state
# ----------------------------------------------------------------------
class TestCoordinatorRecovery:
    def test_restart_commits_the_redelivered_shard(
        self, grid, tmp_path, make_service
    ):
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("sweep", grid, shard_size=2)
        )
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()

        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
        reborn = []

        class Worker(WorkerClient):
            def _execute_grant(self, grant):
                columns = super()._execute_grant(grant)
                if not reborn:
                    # The coordinator dies between the grant and its
                    # shard_done, and comes back on the same root and port.
                    svc.stop()
                    reborn.append(make_service(port=svc.coord.port))
                return columns

        worker = Worker(svc.addr, owner="w1", once=True, backoff_base_s=0.05,
                        log=lambda *_: None)
        try:
            assert worker.run() == 0
        finally:
            worker._drop_conn()
        assert worker.shards_done == 2
        (svc2,) = reborn
        state = svc2.coord.campaigns[campaign.campaign_key]
        assert state.complete
        assert state.store.merged_path.read_bytes() == reference
        assert not svc2.coord.journal_path.exists()  # no quarantine, no journal

    def test_restart_tolerates_torn_journal_tail(self, grid, grid_docs, tmp_path):
        root = tmp_path / "serve"
        coord = Coordinator(root, verify_fraction=1.0)
        root.mkdir(parents=True, exist_ok=True)
        coord.recover()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        coord.handle(wire.Submit(campaign=campaign.to_dict()))
        (grant,) = coord.handle(wire.LeaseRequest(owner="evil"))
        bad = [dict(doc, miss_count=99) for doc in grid_docs]
        (verdict,) = coord.handle(shard_done(grant, bad, owner="evil"))
        assert verdict.quarantined and not verdict.accepted
        with open(root / JOURNAL_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "quarantine", "c": "torn mid-wri')  # no newline
        reborn = Coordinator(root)
        reborn.recover()
        assert reborn.quarantined_owners == {"evil"}
        assert reborn.campaigns[campaign.campaign_key].quarantined == 1
        (barred,) = reborn.handle(wire.LeaseRequest(owner="evil"))
        assert isinstance(barred, wire.NoWork) and barred.quarantined
        (regrant,) = reborn.handle(wire.LeaseRequest(owner="honest"))
        assert regrant.shard == grant.shard

    def test_recovered_partial_shard_stays_leasable(
        self, grid, grid_docs, tmp_path
    ):
        root = tmp_path / "serve"
        # Two shards; the first is granted but never delivered.
        coord = Coordinator(root)
        root.mkdir(parents=True, exist_ok=True)
        coord.recover()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        coord.handle(wire.Submit(campaign=campaign.to_dict()))
        (grant,) = coord.handle(wire.LeaseRequest(owner="w1"))
        reborn = Coordinator(root)
        reborn.recover()
        # Nothing was committed, and the restart dropped w1's lease.
        state = reborn.campaigns[campaign.campaign_key]
        assert not state.done
        (regrant,) = reborn.handle(wire.LeaseRequest(owner="w2"))
        assert isinstance(regrant, wire.LeaseGrant)
        assert regrant.shard == grant.shard
        # The worker holding the first grant delivers it late: committed.
        (ok,) = reborn.handle(shard_done(grant, grid_docs, owner="w1"))
        assert ok.accepted and state.done == {grant.shard}


# ----------------------------------------------------------------------
# Leases, heartbeats, idempotence (direct handle(), fake clock)
# ----------------------------------------------------------------------
class TestLeaseSemantics:
    def _coordinator(self, tmp_path, grid, lease_ttl=1.0):
        now = [0.0]
        coord = Coordinator(tmp_path / "serve", lease_ttl=lease_ttl,
                            mono=lambda: now[0])
        coord.root.mkdir(parents=True, exist_ok=True)
        coord.recover()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        coord.handle(wire.Submit(campaign=campaign.to_dict()))
        return coord, campaign, now

    def test_grant_exclusivity_heartbeat_and_expiry(self, grid, tmp_path):
        coord, campaign, now = self._coordinator(tmp_path, grid)
        (g1,) = coord.handle(wire.LeaseRequest(owner="a"))
        (g2,) = coord.handle(wire.LeaseRequest(owner="b"))
        assert {g1.shard, g2.shard} == {s.shard_id for s in campaign.shards}
        (nw,) = coord.handle(wire.LeaseRequest(owner="c"))
        assert isinstance(nw, wire.NoWork)
        assert nw.active == 1 and not nw.drained

        # A live heartbeat extends the lease; a foreign one is invalid.
        now[0] = 0.8
        (hb,) = coord.handle(wire.Heartbeat(
            owner="a", campaign=g1.campaign, shard=g1.shard))
        assert hb.valid
        (foreign,) = coord.handle(wire.Heartbeat(
            owner="z", campaign=g1.campaign, shard=g1.shard))
        assert not foreign.valid

        # b never heartbeats: its lease dies at t=1.0 and the shard is
        # stolen; a's extension (0.8 + 1.0) keeps its shard off limits.
        now[0] = 1.5
        (dead,) = coord.handle(wire.Heartbeat(
            owner="b", campaign=g2.campaign, shard=g2.shard))
        assert not dead.valid
        (g3,) = coord.handle(wire.LeaseRequest(owner="c"))
        assert isinstance(g3, wire.LeaseGrant) and g3.shard == g2.shard

    def test_file_queue_lease_is_never_granted(self, grid, tmp_path):
        # One lease table: a file-queue owner on the serve root (what
        # `sweep resume <serve root>` does) keeps its shard.
        root = tmp_path / "serve"
        coord = Coordinator(root, lease_ttl=60.0)
        root.mkdir(parents=True, exist_ok=True)
        coord.recover()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        coord.handle(wire.Submit(campaign=campaign.to_dict()))
        store = coord.campaigns[campaign.campaign_key].store
        first, second = campaign.shards
        assert store.try_acquire(first.shard_id, "fq-owner", 60.0)
        (grant,) = coord.handle(wire.LeaseRequest(owner="svc-worker"))
        assert isinstance(grant, wire.LeaseGrant) and grant.shard == second.shard_id
        assert store.live_owner(first.shard_id, 60.0) == "fq-owner"
        (hb,) = coord.handle(wire.Heartbeat(
            owner="svc-worker", campaign=grant.campaign, shard=first.shard_id))
        assert not hb.valid
        (nw,) = coord.handle(wire.LeaseRequest(owner="other"))
        assert isinstance(nw, wire.NoWork) and not nw.drained
        (jobs,) = coord.handle(wire.JobsRequest())
        assert jobs.campaigns[0]["leased"] == 2
        # A restarted coordinator holds no lease, the file queue's included.
        reborn = Coordinator(root, lease_ttl=60.0)
        reborn.recover()
        assert store.read_lease(first.shard_id) is None
        assert store.read_lease(second.shard_id) is None

    def test_file_queue_commit_is_never_granted(self, grid, grid_docs, tmp_path):
        # `sweep resume <serve root>` commits shard 0 through the file
        # queue; the coordinator finds its manifest under the lease it
        # wins and grants shard 1 instead of running shard 0 again.
        coord, campaign, _ = self._coordinator(tmp_path, grid)
        state = coord.campaigns[campaign.campaign_key]
        first, second = campaign.shards
        assert state.store.try_acquire(first.shard_id, "fq-owner", 60.0)
        state.store.write_manifest(
            campaign, first, grid_docs[first.start:first.stop],
            [False] * first.cells, [0] * first.cells, "fq-owner", 0,
        )
        state.store.release(first.shard_id, "fq-owner")
        (grant,) = coord.handle(wire.LeaseRequest(owner="svc"))
        assert isinstance(grant, wire.LeaseGrant) and grant.shard == second.shard_id
        assert first.shard_id in state.done
        assert state.store.read_lease(first.shard_id) is None
        (jobs,) = coord.handle(wire.JobsRequest())
        assert jobs.campaigns[0]["shards_done"] == 1

    def test_file_queue_commit_of_the_last_shard_merges(
        self, grid, grid_docs, tmp_path
    ):
        coord, campaign, _ = self._coordinator(tmp_path, grid)
        state = coord.campaigns[campaign.campaign_key]
        first, second = campaign.shards
        (grant,) = coord.handle(wire.LeaseRequest(owner="svc"))
        assert grant.shard == first.shard_id
        (done,) = coord.handle(shard_done(grant, grid_docs, owner="svc"))
        assert done.accepted
        state.store.write_manifest(
            campaign, second, grid_docs[second.start:second.stop],
            [False] * second.cells, [0] * second.cells, "fq-owner", 0,
        )
        (nw,) = coord.handle(wire.LeaseRequest(owner="svc"))
        assert isinstance(nw, wire.NoWork) and nw.drained
        assert state.complete and state.store.merged_path.is_file()

    def test_duplicate_and_partial_delivery(self, grid, grid_docs, tmp_path):
        coord, campaign, _ = self._coordinator(tmp_path, grid)
        state = coord.campaigns[campaign.campaign_key]
        (grant,) = coord.handle(wire.LeaseRequest(owner="a"))
        full = shard_done(grant, grid_docs, owner="a")

        # A partial shard: one error naming the short column, no commit.
        (short,) = coord.handle(dataclasses.replace(full, results=full.results[:1]))
        assert isinstance(short, wire.ErrorReply)
        assert "results column has 1" in short.reason
        assert not state.done and not state.store.shard_done(campaign.shards[0])

        assert coord.handle(full) == [wire.ShardOk(accepted=True)]
        # A re-sent or late frame after the commit is acknowledged (a
        # re-granted worker finishing late must not error out), and the
        # manifest stays the first commit's.
        manifest = state.store.shard_path(grant.shard).read_bytes()
        assert coord.handle(full) == [wire.ShardOk(accepted=True)]
        late = dataclasses.replace(full, owner="b", wall_ns=[9] * len(full.wall_ns))
        assert coord.handle(late) == [wire.ShardOk(accepted=True)]
        assert state.store.shard_path(grant.shard).read_bytes() == manifest

    def test_fetch_after_manifest_deleted_is_an_error(self, grid, grid_docs, tmp_path):
        coord, campaign, _ = self._coordinator(tmp_path, grid)
        for _ in campaign.shards:
            (grant,) = coord.handle(wire.LeaseRequest(owner="a"))
            positions = range(grant.start, grant.stop)
            (done,) = coord.handle(shard_done(
                grant, grid_docs, owner="a",
                cached=[pos == 0 for pos in positions],
                wall_ns=[7 + pos for pos in positions],
            ))
            assert done.accepted
        fetch = wire.FetchRequest(campaign=campaign.campaign_key)
        (end,) = coord.handle(fetch)
        assert isinstance(end, wire.FetchDone)
        assert end.results == grid_docs
        assert end.cached == [pos == 0 for pos in range(len(grid))]
        assert end.wall_ns == [7 + pos for pos in range(len(grid))]
        state = coord.campaigns[campaign.campaign_key]
        state.store.shard_path(campaign.shards[0].shard_id).unlink()
        (err,) = coord.handle(fetch)
        assert isinstance(err, wire.ErrorReply)
        assert "indices [0]" in err.reason

    def test_bad_positions_and_unknown_ids_rejected(
        self, grid, grid_docs, tmp_path
    ):
        coord, campaign, _ = self._coordinator(tmp_path, grid)
        (grant,) = coord.handle(wire.LeaseRequest(owner="a"))
        full = shard_done(grant, grid_docs, owner="a")
        n = grant.stop - grant.start
        for column, value in (
            ("results", full.results + [grid_docs[0]]),
            ("cached", full.cached + [False]),
            ("wall_ns", []),
        ):
            (err,) = coord.handle(dataclasses.replace(full, **{column: value}))
            assert isinstance(err, wire.ErrorReply)
            assert err.reason == (
                f"shard {grant.shard[:12]} has {n} cell(s), "
                f"but its {column} column has {len(value)}"
            )
        (err,) = coord.handle(dataclasses.replace(full, campaign="f" * 64))
        assert isinstance(err, wire.ErrorReply) and "unknown campaign" in err.reason
        (err,) = coord.handle(dataclasses.replace(full, shard="f" * 64))
        assert isinstance(err, wire.ErrorReply) and "unknown shard" in err.reason
        (jobs,) = coord.handle(wire.JobsRequest())
        assert jobs.campaigns[0]["shards_done"] == 0


# ----------------------------------------------------------------------
# Executor seam: make_executor(service_addr=) -> ServiceBackend
# ----------------------------------------------------------------------
class TestServiceBackend:
    def test_matches_serial_backend(self, grid, make_service):
        svc = make_service()
        ex = make_executor(service_addr=svc.addr, shard_size=2)
        assert isinstance(ex, ServiceBackend)
        with background_workers(svc.addr, n=2):
            results = ex.run(grid)
        assert results == SerialBackend().run(grid)
        assert ex.stats.cells_total == len(grid)
        assert ex.report.cells_total == len(grid)

        # Re-running the same grid is a pure fetch: no workers needed.
        again = make_executor(service_addr=svc.addr, shard_size=2)
        assert again.run(grid) == results

    def test_service_excludes_checkpoint_dir(self, tmp_path):
        with pytest.raises(ValueError, match="mutually exclusive"):
            make_executor(service_addr="127.0.0.1:1", checkpoint_dir=tmp_path)

    def test_fetch_round_trips_result_docs(self, grid, grid_docs, make_service):
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=3)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            drain(svc.addr)
            client.wait(campaign.campaign_key, timeout_s=60)
            cells = client.fetch(campaign.campaign_key)
        assert [run_result_from_dict(doc) for doc, _, _ in cells] == [
            run_result_from_dict(doc) for doc in grid_docs
        ]


# ----------------------------------------------------------------------
# Telemetry relay + service-side status
# ----------------------------------------------------------------------
class TestTelemetryAndStatus:
    def test_worker_telemetry_lands_in_campaign_dir(self, grid, make_service):
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            drain(svc.addr, owner="tele-worker", telemetry=True)
            row = client.wait(campaign.campaign_key, timeout_s=60)
        cdir = svc.coord.root / row["dir"]
        assert telemetry_path(cdir, "tele-worker").is_file()
        statuses = worker_statuses(cdir)
        assert any(s.owner == "tele-worker" for s in statuses)

    def test_jobs_and_status_rpc(self, grid, make_service):
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            assert client.jobs() == []
            client.submit(campaign.to_dict())
            (row,) = client.jobs()
            assert row["key"] == campaign.campaign_key
            assert row["cells"] == len(grid)
            assert row["shards"] == 2 and row["shards_done"] == 0
            assert not row["merged"]
            drain(svc.addr, owner="w1", telemetry=True)
            (row,) = client.jobs()
            assert row["shards_done"] == 2 and row["merged"]
            status = client.status()
            assert isinstance(status.text, str)
            assert isinstance(status.aggregate, dict)

    def test_cli_status_source_field(self, grid, make_service, capsys):
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
        drain(svc.addr, owner="w1", telemetry=True)
        main(["status", "--service", svc.addr, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "service"

    def test_cli_submit_jobs_roundtrip(self, grid, tmp_path, make_service, capsys):
        svc = make_service()
        doc_path = tmp_path / "campaign.json"
        doc_path.write_text(json.dumps(
            ShardedCampaign("sweep", grid, shard_size=2).to_dict()))
        main(["submit", str(doc_path), "--connect", svc.addr])
        out = capsys.readouterr().out
        assert "registered" in out
        drain(svc.addr)
        main(["jobs", "--connect", svc.addr, "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["shards_done"] == 2


# ----------------------------------------------------------------------
# Parked requests: answered on the event they wait for, in order
# ----------------------------------------------------------------------
class _Peer:
    """A raw protocol connection that sends exactly the frames a test says."""

    def __init__(self, addr, timeout=60.0):
        host, port = wire.split_host_port(addr)
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.decoder = wire.LineDecoder()
        assert self.request(wire.Hello(role="worker")) == wire.HelloOk()

    def send(self, msg):
        frame = msg if isinstance(msg, bytes) else wire.encode_message(msg)
        self.sock.sendall(frame)

    def recv(self):
        while True:
            for msg in self.decoder.feed(b""):
                return msg
            data = self.sock.recv(65536)
            assert data, "coordinator closed the connection"
            for msg in self.decoder.feed(data):
                return msg

    def request(self, msg):
        self.send(msg)
        return self.recv()

    def close(self):
        self.sock.close()


def record(svc):
    """Log every (request, first reply) the coordinator handles, in order."""
    log = []
    handle = svc.coord.handle

    def recorded(msg):
        replies = handle(msg)
        log.append((msg, replies[0]))
        return replies

    svc.coord.handle = recorded
    return log


def until(predicate):
    """Wait for an event in the coordinator's thread (a hang guard only)."""
    deadline = time.monotonic() + 60.0
    while not predicate():
        assert time.monotonic() < deadline, "the coordinator never got there"
        time.sleep(0.005)


def leases(log, owner):
    return [reply for msg, reply in log
            if isinstance(msg, wire.LeaseRequest) and msg.owner == owner]


def position(log, kind, pred=lambda msg, reply: True):
    return next(i for i, (msg, reply) in enumerate(log)
                if isinstance(msg, kind) and pred(msg, reply))


def commit(peer, grant, grid_docs, owner):
    assert peer.request(shard_done(grant, grid_docs, owner)).accepted


def parked_lease(owner, once=False):
    return wire.LeaseRequest(owner=owner, wait_s=wire.MAX_WAIT_S, once=once)


class TestParkedRequests:
    def test_lease_sent_before_submit_is_granted_by_the_submit(
        self, grid, make_service
    ):
        svc = make_service()
        log = record(svc)
        early = _Peer(svc.addr)
        early.send(parked_lease("early"))
        until(lambda: svc.coord.parked == 1)
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
        grant = early.recv()  # the one request early ever sent
        early.close()
        assert isinstance(grant, wire.LeaseGrant)
        assert grant.shard == campaign.shards[0].shard_id
        first, second = leases(log, "early")
        assert isinstance(first, wire.NoWork) and first.drained
        assert second == grant
        assert (position(log, wire.LeaseRequest)
                < position(log, wire.Submit)
                < position(log, wire.LeaseRequest, lambda m, r: r == grant))

    def test_once_worker_exits_drained_on_the_last_commit(
        self, grid, grid_docs, make_service
    ):
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=len(grid))
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
        holder = _Peer(svc.addr)
        grant = holder.request(wire.LeaseRequest(owner="holder"))
        log = record(svc)
        exit_code = []
        worker = threading.Thread(target=lambda: exit_code.append(run_worker(
            svc.addr, owner="once", once=True, log=lambda *_: None)))
        worker.start()
        until(lambda: svc.coord.parked == 1)
        commit(holder, grant, grid_docs, "holder")
        worker.join(timeout=60.0)
        holder.close()
        assert exit_code == [0]
        first, last = leases(log, "once")
        assert isinstance(first, wire.NoWork) and not first.drained
        assert isinstance(last, wire.NoWork) and last.drained
        assert (position(log, wire.ShardDone)
                < position(log, wire.LeaseRequest, lambda m, r: r is last))

    def test_dead_holders_shard_goes_to_the_parked_worker_on_expiry(
        self, grid, make_service
    ):
        now = [0.0]
        svc = make_service(lease_ttl=0.3, mono=lambda: now[0])
        campaign = ShardedCampaign("sweep", grid, shard_size=len(grid))
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
        victim = _Peer(svc.addr)
        grant = victim.request(wire.LeaseRequest(owner="victim"))
        victim.close()  # dies holding the lease: no heartbeat, no commit
        log = record(svc)
        heir = _Peer(svc.addr)
        heir.send(parked_lease("heir"))
        until(lambda: svc.coord.parked == 1)
        assert svc.coord.campaigns[campaign.campaign_key].store.live_owner(
            grant.shard, 0.3, lambda: now[0]) == "victim"
        expired = len(log)
        now[0] = 1.0  # the victim's lease expires
        regrant = heir.recv()  # still the heir's one request
        heir.close()
        assert isinstance(regrant, wire.LeaseGrant) and regrant.shard == grant.shard
        replies = leases(log, "heir")
        assert replies[-1] == regrant
        assert all(isinstance(r, wire.NoWork) and not r.drained for r in replies[:-1])
        assert position(log, wire.LeaseRequest, lambda m, r: r == regrant) >= expired

    def test_peer_that_leaves_while_parked_is_never_granted(
        self, grid, make_service
    ):
        svc = make_service()  # 60 s TTL: a lost grant would strand the shard
        log = record(svc)
        ghost = _Peer(svc.addr)
        ghost.send(parked_lease("ghost"))
        until(lambda: svc.coord.parked == 1)
        ghost.close()
        until(lambda: svc.coord.parked == 0)
        campaign = ShardedCampaign("sweep", grid, shard_size=len(grid))
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
        nxt = _Peer(svc.addr)
        grant = nxt.request(wire.LeaseRequest(owner="next"))
        nxt.close()
        assert isinstance(grant, wire.LeaseGrant)
        assert [type(r) for r in leases(log, "ghost")] == [wire.NoWork]
        store = svc.coord.campaigns[campaign.campaign_key].store
        assert store.read_lease(grant.shard)["owner"] == "next"

    def test_wait_returns_on_the_final_commit(
        self, grid, grid_docs, make_service, monkeypatch
    ):
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
        sent = []
        send = ServiceClient._send
        monkeypatch.setattr(
            ServiceClient, "_send", lambda self, msg: (sent.append(msg), send(self, msg))
        )
        log = record(svc)
        rows = []
        with ServiceClient(svc.addr) as client:
            waiter = threading.Thread(
                target=lambda: rows.append(client.wait(campaign.campaign_key)))
            waiter.start()
            until(lambda: svc.coord.parked == 1)
            worker = _Peer(svc.addr)
            for _ in campaign.shards:
                commit(worker, worker.request(wire.LeaseRequest(owner="w")),
                       grid_docs, "w")
            waiter.join(timeout=60.0)
            worker.close()
        (row,) = rows
        assert row["shards_done"] == row["shards"] == 2 and row["merged"]
        assert [type(m) for m in sent] == [wire.Hello, wire.JobsRequest]
        final = max(i for i, (m, _) in enumerate(log) if isinstance(m, wire.ShardDone))
        answered = [i for i, (m, _) in enumerate(log) if isinstance(m, wire.JobsRequest)]
        assert answered[-1] > final

    def test_frames_without_wait_fields_are_answered_at_once(
        self, grid, make_service
    ):
        svc = make_service()
        # A v1 peer's frames; a parked reply would take MAX_WAIT_S.
        peer = _Peer(svc.addr, timeout=wire.MAX_WAIT_S / 2)
        v1_lease = b'{"owner":"v1","type":"lease"}\n'
        v1_jobs = b'{"type":"jobs"}\n'
        empty = peer.request(v1_lease)
        assert isinstance(empty, wire.NoWork) and empty.drained
        campaign = ShardedCampaign("sweep", grid, shard_size=len(grid))
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
        grant = peer.request(v1_lease)
        assert isinstance(grant, wire.LeaseGrant)
        busy = peer.request(b'{"owner":"v1b","type":"lease"}\n')
        assert isinstance(busy, wire.NoWork) and busy.active == 1
        jobs = peer.request(v1_jobs)
        assert isinstance(jobs, wire.JobsReply) and jobs.campaigns[0]["leased"] == 1
        peer.close()
        assert svc.coord.parked == 0


# ----------------------------------------------------------------------
# Bad frames: one error reply naming the field, and the connection reads on
# ----------------------------------------------------------------------
#: name -> (raw frame, what the error reply must name)
BAD_FRAMES = {
    "lease-owner-list": (b'{"owner":[1],"type":"lease"}\n', "LeaseRequest.owner"),
    "lease-wait-string": (
        b'{"owner":"w","type":"lease","wait_s":"x"}\n', "LeaseRequest.wait_s"
    ),
    "fetch-campaign-object": (b'{"campaign":{},"type":"fetch"}\n', "FetchRequest.campaign"),
    "heartbeat-lists": (
        b'{"campaign":[],"owner":[],"shard":[],"type":"heartbeat"}\n', "Heartbeat.owner"
    ),
    "telemetry-lists": (
        b'{"campaign":[],"owner":[],"record":[],"type":"telemetry"}\n', "Telemetry.campaign"
    ),
    "not-json": (b"{nope\n", "not valid JSON"),
    "unknown-type": (b'{"type":"warp_core"}\n', "unknown message type"),
}


class TestBadFrames:
    @pytest.mark.parametrize("name", sorted(BAD_FRAMES))
    def test_bad_frame_gets_an_error_and_the_connection_stays(self, name, make_service):
        frame, names = BAD_FRAMES[name]
        svc = make_service()
        peer = _Peer(svc.addr, timeout=10.0)
        try:
            peer.send(frame)
            reply = peer.recv()
            assert isinstance(reply, wire.ErrorReply) and names in reply.reason
            assert peer.request(wire.JobsRequest()) == wire.JobsReply()
            # A bad frame in the same read as good ones: each is answered.
            peer.send(frame + wire.encode_message(wire.JobsRequest()))
            reply = peer.recv()
            assert isinstance(reply, wire.ErrorReply) and names in reply.reason
            assert peer.recv() == wire.JobsReply()
        finally:
            peer.close()


# ----------------------------------------------------------------------
# The harness itself: stopping finishes every client loop
# ----------------------------------------------------------------------
class TestLiveHarness:
    def test_stop_leaves_no_task_pending(self, grid, make_service, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            drain(svc.addr, owner="w1")
            assert client.wait(campaign.campaign_key, timeout_s=60)["merged"]
        # A peer still connected, its lease request parked, when the
        # coordinator stops: its client loop must end before the loop
        # closes.
        idle = _Peer(svc.addr)
        idle.send(parked_lease("idle"))
        until(lambda: svc.coord.parked == 1)
        svc.stop()
        idle.close()
        gc.collect()
        assert svc._loop.is_closed()
        # Neither a client loop destroyed while pending nor one that
        # ended cancelled (``Exception in callback``) is logged.
        assert [r.getMessage() for r in caplog.records] == []

    def test_sigint_stops_serve_with_a_peer_connected(self, tmp_path):
        # ``repro-mc2 serve`` runs under asyncio.run, where SIGINT cancels
        # the server task: it must hang up on the parked peer, end that
        # client loop, and exit cleanly (no hang, no traceback).
        port_file = tmp_path / "serve.port"
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--root", str(tmp_path / "serve"), "--port-file", str(port_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            port = wire.read_port_file(str(port_file), timeout=60.0)
            idle = _Peer(f"127.0.0.1:{port}")
            idle.send(parked_lease("idle"))
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30.0)
            idle.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, out
        assert "Traceback" not in out, out
