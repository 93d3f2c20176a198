"""End-to-end tests for the coordinator/worker campaign fabric.

Pins the service's durability contract against the file queue it wraps:

* merged artifacts from service-run campaigns are **byte-identical** to
  the file queue's ``work()`` on the same campaign (sweep and faults);
* a worker SIGKILLed mid-campaign loses nothing: a survivor steals the
  expired lease and the merged bytes still match;
* a coordinator "crash" after cells streamed but before ``shard_done``
  recovers the buffered shard from its journal on restart;
* lease/heartbeat semantics (grant exclusivity, expiry, wrong-owner
  rejection) under a controllable monotonic clock;
* duplicate/partial deliveries are idempotent or rejected with a reason;
* :func:`~repro.runtime.executor.make_executor` routes
  ``service_addr=`` to :class:`~repro.serve.client.ServiceBackend`,
  which matches :class:`~repro.runtime.executor.SerialBackend`;
* worker telemetry relayed over the wire lands in the campaign
  directory exactly where file-based workers write it;
* ``repro-mc2 status --service`` reports ``source: service``.
"""

import asyncio
import contextlib
import json
import os
import pathlib
import signal
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
from repro.serve.worker import run_worker
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
# Harness: coordinator in a background asyncio thread + worker loops
# ----------------------------------------------------------------------
class _Service:
    """A live coordinator on an ephemeral port, in its own event loop."""

    def __init__(self, root, lease_ttl=60.0):
        self.coord = Coordinator(root, lease_ttl=lease_ttl)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.coord.start())
        self._ready.set()
        try:
            self._loop.run_until_complete(self.coord.serve_forever())
        except asyncio.CancelledError:
            pass

    def start(self):
        self._thread.start()
        assert self._ready.wait(10.0), "coordinator did not start"
        return self

    @property
    def addr(self):
        return f"127.0.0.1:{self.coord.port}"

    def stop(self):
        def cancel_all():
            for task in asyncio.all_tasks(self._loop):
                task.cancel()

        self._loop.call_soon_threadsafe(cancel_all)
        self._thread.join(timeout=10.0)
        self._loop.close()


@pytest.fixture
def make_service(tmp_path):
    services = []

    def factory(name="serve", lease_ttl=60.0):
        svc = _Service(tmp_path / name, lease_ttl=lease_ttl).start()
        services.append(svc)
        return svc

    yield factory
    for svc in services:
        svc.stop()


def drain(addr, **kw):
    """One in-process worker until the coordinator reports drained."""
    kw.setdefault("log", lambda *_: None)
    assert run_worker(addr, once=True, poll_s=0.02, **kw) == 0


@contextlib.contextmanager
def background_workers(addr, n=1, **kw):
    """Worker threads that keep draining until the block exits."""
    stop = threading.Event()
    threads = []

    def loop(i):
        while not stop.is_set():
            run_worker(addr, once=True, poll_s=0.02, owner=f"bg{i}",
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
            row = client.wait(campaign.campaign_key, poll_s=0.02, timeout_s=60)
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
            row = client.wait(campaign.campaign_key, poll_s=0.02, timeout_s=60)
        merged = (svc.coord.root / row["dir"] / "merged.json").read_bytes()
        assert merged == reference

    def test_resubmit_is_pure_fetch(self, grid, grid_docs, make_service):
        svc = make_service()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            drain(svc.addr)
            client.wait(campaign.campaign_key, poll_s=0.02, timeout_s=60)
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
sys.exit(w.run_worker(sys.argv[1], owner="victim", poll_s=0.05,
                      log=lambda *_: None))
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

            # Survivor: polls past the corpse's lease TTL and finishes.
            drain(svc.addr, owner="survivor")
            row = client.wait(campaign.campaign_key, poll_s=0.02, timeout_s=60)
        merged = (svc.coord.root / row["dir"] / "merged.json").read_bytes()
        assert merged == reference


# ----------------------------------------------------------------------
# Coordinator crash + restart: journal recovery (acceptance)
# ----------------------------------------------------------------------
class TestCoordinatorRecovery:
    def _submit_and_stream_cells(self, root, grid, grid_docs, shard_size):
        """Drive a coordinator up to (but not including) shard_done."""
        coord = Coordinator(root)
        root.mkdir(parents=True, exist_ok=True)
        coord.recover()
        campaign = ShardedCampaign("sweep", grid, shard_size=shard_size)
        (ack,) = coord.handle(wire.Submit(campaign=campaign.to_dict()))
        assert isinstance(ack, wire.SubmitOk) and ack.created
        (grant,) = coord.handle(wire.LeaseRequest(owner="w1"))
        assert isinstance(grant, wire.LeaseGrant)
        for pos in range(grant.start, grant.stop):
            (ok,) = coord.handle(wire.CellResult(
                campaign=grant.campaign, shard=grant.shard, pos=pos,
                doc=grid_docs[pos], cached=False, wall_ns=0,
            ))
            assert ok == wire.CellOk()
        return campaign, grant

    def test_restart_commits_buffered_shard_from_journal(
        self, grid, grid_docs, tmp_path
    ):
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("sweep", grid, shard_size=len(grid))
        )
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()

        root = tmp_path / "serve"
        campaign, _ = self._submit_and_stream_cells(
            root, grid, grid_docs, shard_size=len(grid)
        )
        # "Crash": the first coordinator object is simply dropped —
        # nothing was committed, only journaled.
        reborn = Coordinator(root)
        reborn.recover()
        assert reborn.recovered_shards == 1
        state = reborn.campaigns[campaign.campaign_key]
        assert state.complete
        merged = (state.cdir / "merged.json").read_bytes()
        assert merged == reference

    def test_restart_tolerates_torn_journal_tail(self, grid, grid_docs, tmp_path):
        root = tmp_path / "serve"
        campaign, _ = self._submit_and_stream_cells(
            root, grid, grid_docs, shard_size=len(grid)
        )
        journal = root / JOURNAL_NAME
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "cell", "c": "torn mid-wri')  # no newline
        reborn = Coordinator(root)
        reborn.recover()
        assert reborn.recovered_shards == 1
        assert reborn.campaigns[campaign.campaign_key].complete

    def test_recovered_partial_shard_stays_leasable(
        self, grid, grid_docs, tmp_path
    ):
        root = tmp_path / "serve"
        # Two shards; stream only the granted one's first cell.
        coord = Coordinator(root)
        root.mkdir(parents=True, exist_ok=True)
        coord.recover()
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        coord.handle(wire.Submit(campaign=campaign.to_dict()))
        (grant,) = coord.handle(wire.LeaseRequest(owner="w1"))
        coord.handle(wire.CellResult(
            campaign=grant.campaign, shard=grant.shard, pos=grant.start,
            doc=grid_docs[grant.start], cached=False, wall_ns=0,
        ))
        reborn = Coordinator(root)
        reborn.recover()
        # Incomplete buffer: nothing committed, shard re-grantable.
        assert reborn.recovered_shards == 0
        (regrant,) = reborn.handle(wire.LeaseRequest(owner="w2"))
        assert isinstance(regrant, wire.LeaseGrant)
        assert regrant.shard == grant.shard


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

    def test_duplicate_and_partial_delivery(self, grid, grid_docs, tmp_path):
        coord, campaign, _ = self._coordinator(tmp_path, grid)
        (grant,) = coord.handle(wire.LeaseRequest(owner="a"))

        # Premature shard_done: rejected with the missing positions.
        (early,) = coord.handle(wire.ShardDone(
            campaign=grant.campaign, shard=grant.shard, owner="a"))
        assert isinstance(early, wire.ShardOk) and not early.accepted
        assert "missing" in early.reason

        cell = wire.CellResult(
            campaign=grant.campaign, shard=grant.shard, pos=grant.start,
            doc=grid_docs[grant.start], cached=False, wall_ns=7,
        )
        assert coord.handle(cell) == [wire.CellOk()]
        assert coord.handle(cell) == [wire.CellOk()]  # duplicate: idempotent
        for pos in range(grant.start + 1, grant.stop):
            coord.handle(wire.CellResult(
                campaign=grant.campaign, shard=grant.shard, pos=pos,
                doc=grid_docs[pos], cached=False, wall_ns=7,
            ))
        (done,) = coord.handle(wire.ShardDone(
            campaign=grant.campaign, shard=grant.shard, owner="a"))
        assert done.accepted
        # Replays after commit stay idempotent (a re-granted worker
        # finishing late must not error out).
        (again,) = coord.handle(wire.ShardDone(
            campaign=grant.campaign, shard=grant.shard, owner="a"))
        assert again.accepted
        assert coord.handle(cell) == [wire.CellOk()]

    def test_fetch_after_manifest_deleted_is_an_error(self, grid, grid_docs, tmp_path):
        coord, campaign, _ = self._coordinator(tmp_path, grid)
        for _ in campaign.shards:
            (grant,) = coord.handle(wire.LeaseRequest(owner="a"))
            for pos in range(grant.start, grant.stop):
                coord.handle(wire.CellResult(
                    campaign=grant.campaign, shard=grant.shard, pos=pos,
                    doc=grid_docs[pos], cached=pos == 0, wall_ns=7 + pos,
                ))
            (done,) = coord.handle(wire.ShardDone(
                campaign=grant.campaign, shard=grant.shard, owner="a"))
            assert done.accepted
        fetch = wire.FetchRequest(campaign=campaign.campaign_key)
        *cells, end = coord.handle(fetch)
        assert isinstance(end, wire.FetchDone) and end.cells == len(grid)
        assert [(c.pos, c.cached, c.wall_ns) for c in cells] == [
            (pos, pos == 0, 7 + pos) for pos in range(len(grid))
        ]
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
        (err,) = coord.handle(wire.CellResult(
            campaign=grant.campaign, shard=grant.shard, pos=99,
            doc=grid_docs[0], cached=False, wall_ns=0))
        assert isinstance(err, wire.ErrorReply) and "outside shard" in err.reason
        (err,) = coord.handle(wire.CellResult(
            campaign="f" * 64, shard=grant.shard, pos=0,
            doc=grid_docs[0], cached=False, wall_ns=0))
        assert isinstance(err, wire.ErrorReply) and "unknown campaign" in err.reason
        (err,) = coord.handle(wire.CellResult(
            campaign=grant.campaign, shard="f" * 64, pos=0,
            doc=grid_docs[0], cached=False, wall_ns=0))
        assert isinstance(err, wire.ErrorReply) and "unknown shard" in err.reason


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
            client.wait(campaign.campaign_key, poll_s=0.02, timeout_s=60)
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
            row = client.wait(campaign.campaign_key, poll_s=0.02, timeout_s=60)
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
