"""Tests for the checkpointed, sharded campaign orchestrator.

Pins the module's durability contract:

* content-addressed campaign/shard identity (same cells -> same shards,
  different cells -> :class:`CampaignMismatchError` on re-init);
* lease acquire / re-enter / steal-after-TTL semantics;
* ``work()`` drives a directory to completion, skips finished shards,
  and honours ``max_shards``;
* merged artifacts are **byte-identical** across interruption patterns —
  including a worker subprocess killed with SIGKILL mid-campaign and
  then resumed (the ISSUE's acceptance criterion);
* the faults merge is byte-identical to ``Scorecard.save`` of an
  uninterrupted serial :func:`~repro.faults.campaign.run_campaign`;
* :class:`ShardedBackend` behaves as a drop-in
  :class:`~repro.runtime.executor.SweepExecutor` with resume.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.faults.campaign import CampaignConfig, build_campaign, run_campaign
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SerialBackend
from repro.runtime.shard import (
    CampaignMismatchError,
    CampaignStore,
    IncompleteCampaignError,
    ShardedBackend,
    ShardedCampaign,
    campaign_status,
    iter_campaign_dirs,
    merge_results,
    merge_scorecard,
    prepare_campaign,
    resume_campaign,
    run_sharded_campaign,
    run_workers,
    work,
    write_merged_results,
)
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.workload.generator import GeneratorParams, taskset_seeds
from repro.workload.scenarios import SHORT

PARAMS = GeneratorParams(m=2)


def small_grid(n=4, horizon=2.0):
    """n cheap, deterministic sweep cells (m=2, short horizon)."""
    specs = []
    for seed in taskset_seeds(n, base_seed=11):
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
def fault_cells():
    return build_campaign(CampaignConfig(seed=7, cells=4, tasksets=1, horizon=3.0))


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
class TestCampaignIdentity:
    def test_same_cells_same_key_and_shards(self, grid):
        a = ShardedCampaign("sweep", grid, shard_size=2)
        b = ShardedCampaign("sweep", list(grid), shard_size=2)
        assert a.campaign_key == b.campaign_key
        assert [s.shard_id for s in a.shards] == [s.shard_id for s in b.shards]

    def test_key_depends_on_order_and_shard_size(self, grid):
        a = ShardedCampaign("sweep", grid, shard_size=2)
        b = ShardedCampaign("sweep", list(reversed(grid)), shard_size=2)
        c = ShardedCampaign("sweep", grid, shard_size=3)
        assert len({a.campaign_key, b.campaign_key, c.campaign_key}) == 3

    def test_shards_cover_cells_exactly(self, grid):
        c = ShardedCampaign("sweep", grid, shard_size=3)
        spans = [(s.start, s.stop) for s in c.shards]
        assert spans == [(0, 3), (3, 4)]
        assert sum(s.cells for s in c.shards) == len(grid)

    def test_roundtrip_through_dict(self, grid):
        c = ShardedCampaign("sweep", grid, shard_size=2, meta={"x": 1})
        d = ShardedCampaign.from_dict(c.to_dict())
        assert d.campaign_key == c.campaign_key
        assert d.meta == {"x": 1}
        assert d.cells == c.cells

    def test_faults_roundtrip(self, fault_cells):
        c = ShardedCampaign("faults", fault_cells, shard_size=4)
        d = ShardedCampaign.from_dict(c.to_dict())
        assert d.campaign_key == c.campaign_key

    def test_corrupt_manifest_key_rejected(self, grid):
        doc = ShardedCampaign("sweep", grid, shard_size=2).to_dict()
        doc["key"] = "0" * 64
        with pytest.raises(ValueError, match="does not match"):
            ShardedCampaign.from_dict(doc)

    def test_validation(self, grid):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            ShardedCampaign("nope", grid)
        with pytest.raises(ValueError, match="shard_size"):
            ShardedCampaign("sweep", grid, shard_size=0)
        with pytest.raises(ValueError, match="at least one cell"):
            ShardedCampaign("sweep", [])

    def test_mismatched_directory_rejected(self, grid, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        with pytest.raises(CampaignMismatchError):
            store.initialize(ShardedCampaign("sweep", grid[:2], shard_size=2))
        # Re-initializing the *same* campaign is idempotent.
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
class TestLeases:
    def test_acquire_is_exclusive_then_reentrant(self, grid, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        assert store.try_acquire("s1", "alice", lease_ttl=60.0)
        assert not store.try_acquire("s1", "bob", lease_ttl=60.0)
        assert store.try_acquire("s1", "alice", lease_ttl=60.0)  # re-enter

    def test_expired_lease_is_stolen(self, grid, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        t = [1000.0]
        assert store.try_acquire("s1", "alice", lease_ttl=5.0, clock=lambda: t[0])
        t[0] += 60.0  # heartbeat is now stale
        assert store.try_acquire("s1", "bob", lease_ttl=5.0, clock=lambda: t[0])
        assert store.read_lease("s1")["owner"] == "bob"

    def test_heartbeat_keeps_lease_alive(self, grid, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        t = [1000.0]
        assert store.try_acquire("s1", "alice", lease_ttl=5.0, clock=lambda: t[0])
        for _ in range(5):
            t[0] += 4.0
            store.heartbeat("s1", "alice", clock=lambda: t[0])
        assert not store.try_acquire("s1", "bob", lease_ttl=5.0, clock=lambda: t[0])

    def test_release_only_by_owner(self, grid, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        assert store.try_acquire("s1", "alice", lease_ttl=60.0)
        store.release("s1", "bob")  # no-op: bob doesn't own it
        assert store.read_lease("s1")["owner"] == "alice"
        store.release("s1", "alice")
        assert store.read_lease("s1") is None

    def test_torn_lease_file_is_reclaimed(self, grid, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        path = store.lease_path("s1")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json", encoding="utf-8")
        assert store.try_acquire("s1", "bob", lease_ttl=60.0)

    def test_owner_arriving_as_the_lease_appears_does_not_steal_it(
        self, grid, tmp_path, monkeypatch
    ):
        # Regression: bob calls try_acquire right after alice's lease
        # file appears.  A lease created empty and written afterwards
        # looked torn to bob, who stole it while alice also went on:
        # both returned True and two workers ran one shard.
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        lease = store.lease_path("s1")
        race = {}

        def interleave(real):
            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                if "bob" not in race and lease.exists():
                    race["bob"] = None
                    race["bob"] = store.try_acquire("s1", "bob", lease_ttl=60.0)
                return out

            return call

        monkeypatch.setattr(os, "open", interleave(os.open))
        monkeypatch.setattr(os, "link", interleave(os.link))
        alice = store.try_acquire("s1", "alice", lease_ttl=60.0)
        monkeypatch.undo()
        assert race["bob"] is not None, "bob never raced alice"
        assert [alice, race["bob"]].count(True) == 1
        assert store.read_lease("s1")["owner"] == ("alice" if alice else "bob")

    def test_two_owners_stealing_one_expired_lease_do_not_both_win(
        self, grid, tmp_path, monkeypatch
    ):
        # Regression: alice and bob both find a dead owner's lease
        # expired.  Bob ran a whole try_acquire while alice was between
        # judging the lease expired and replacing it; alice then
        # overwrote bob's lease and both returned True.
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        t = [1000.0]
        assert store.try_acquire("s1", "corpse", lease_ttl=5.0, clock=lambda: t[0])
        t[0] += 60.0  # the corpse never heartbeats again
        race = {}
        real_read = CampaignStore.read_lease

        def read_lease(self, shard_id):
            doc = real_read(self, shard_id)
            if "bob" not in race and doc is not None and doc["owner"] == "corpse":
                race["bob"] = None
                race["bob"] = store.try_acquire(
                    "s1", "bob", lease_ttl=5.0, clock=lambda: t[0]
                )
            return doc

        monkeypatch.setattr(CampaignStore, "read_lease", read_lease)
        alice = store.try_acquire("s1", "alice", lease_ttl=5.0, clock=lambda: t[0])
        monkeypatch.undo()
        assert race["bob"] is not None, "bob never raced alice"
        assert [alice, race["bob"]].count(True) == 1
        assert store.read_lease("s1")["owner"] == ("alice" if alice else "bob")

    def test_wall_clock_jump_does_not_steal_live_lease(
        self, grid, tmp_path, monkeypatch
    ):
        # Regression: staleness must be judged on the monotonic clock.
        # A wall-clock step (NTP, suspend/resume) during a lease's life
        # used to make a live worker look stale; now a forward jump far
        # past the TTL changes nothing.
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        assert store.try_acquire("s1", "alice", lease_ttl=5.0)
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 1000.0)
        assert not store.try_acquire("s1", "bob", lease_ttl=5.0)
        assert store.read_lease("s1")["owner"] == "alice"

    def test_backwards_wall_clock_does_not_refresh_stale_lease(
        self, grid, tmp_path, monkeypatch
    ):
        # The mirror case: the wall clock stepping backwards must not
        # make a genuinely expired lease look fresh.
        store = CampaignStore(tmp_path)
        store.initialize(ShardedCampaign("sweep", grid, shard_size=2))
        t = [1000.0]
        assert store.try_acquire("s1", "alice", lease_ttl=5.0, clock=lambda: t[0])
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() - 1000.0)
        t[0] += 60.0  # monotonic says stale, whatever the wall clock does
        assert store.try_acquire("s1", "bob", lease_ttl=5.0, clock=lambda: t[0])
        assert store.read_lease("s1")["owner"] == "bob"


# ----------------------------------------------------------------------
# work() / resume
# ----------------------------------------------------------------------
class TestWork:
    def test_work_completes_and_merges(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=2))
        stats = work(cdir)
        assert stats.shards_claimed == 2
        assert stats.cells_run == len(grid)
        assert all(s.state == "done" for s in campaign_status(cdir))
        results = merge_results(cdir)
        assert len(results) == len(grid)
        # Merged order is campaign (submission) order.
        expected = SerialBackend().run(grid)
        assert results == expected

    def test_max_shards_stops_early_and_resume_finishes(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=1))
        stats = work(cdir, max_shards=2)
        assert stats.shards_claimed == 2
        states = [s.state for s in campaign_status(cdir)]
        assert states.count("done") == 2
        with pytest.raises(IncompleteCampaignError) as exc:
            merge_results(cdir)
        assert len(exc.value.missing) == 2
        tail = resume_campaign(cdir)
        assert tail.shards_claimed == 2
        assert tail.shards_skipped == 2
        assert len(merge_results(cdir)) == len(grid)

    def test_second_work_call_skips_everything(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=2))
        work(cdir)
        again = work(cdir)
        assert again.shards_claimed == 0
        assert again.cells_run == 0
        assert again.shards_skipped == 2

    def test_cache_serves_cells_on_resume(self, grid, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cdir = prepare_campaign(
            tmp_path / "c1", ShardedCampaign("sweep", grid, shard_size=2)
        )
        warm = work(cdir, cache=cache)
        assert warm.cells_run == len(grid) and warm.cache_hits == 0
        # Same cells, fresh campaign dir: every cell is a cache hit.
        cdir2 = prepare_campaign(
            tmp_path / "c2", ShardedCampaign("sweep", grid, shard_size=2)
        )
        hot = work(cdir2, cache=cache)
        assert hot.cells_run == 0 and hot.cache_hits == len(grid)

    def test_foreign_live_lease_blocks_then_expires(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=2))
        store = CampaignStore(cdir)
        campaign = store.load()
        dead = campaign.shards[0].shard_id
        assert store.try_acquire(dead, "crashed-worker", lease_ttl=60.0)
        # wait=False: the leased shard is not claimable, the other one runs.
        stats = work(cdir, lease_ttl=60.0, wait=False)
        assert stats.shards_claimed == 1
        # With a tiny TTL the stale lease is reclaimed and work completes.
        stats = work(cdir, lease_ttl=0.0, poll_interval=0.01)
        assert stats.shards_claimed == 1
        assert all(s.state == "done" for s in campaign_status(cdir))

    def test_run_workers_pool_completes(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=1))
        stats = run_workers(cdir, jobs=2)
        assert stats.shards_total == len(grid)
        assert all(s.state == "done" for s in campaign_status(cdir))

    def test_iter_campaign_dirs(self, grid, fault_cells, tmp_path):
        a = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=2))
        b = prepare_campaign(tmp_path, ShardedCampaign("faults", fault_cells))
        found = iter_campaign_dirs(tmp_path)
        assert sorted(found) == sorted([a, b])
        # Pointing at one campaign dir finds exactly it.
        assert iter_campaign_dirs(a) == [a]
        assert iter_campaign_dirs(tmp_path / "nope") == []


# ----------------------------------------------------------------------
# Atomicity of shard manifests
# ----------------------------------------------------------------------
class TestManifestAtomicity:
    def test_torn_manifest_reads_as_missing(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=2))
        work(cdir)
        store = CampaignStore(cdir)
        shard = store.load().shards[0]
        path = store.shard_path(shard.shard_id)
        path.write_text(path.read_text(encoding="utf-8")[: 100], encoding="utf-8")
        assert store.read_manifest(shard) is None
        # resume re-executes exactly the torn shard.
        stats = resume_campaign(cdir)
        assert stats.shards_claimed == 1

    def test_wrong_cell_count_reads_as_missing(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=2))
        work(cdir)
        store = CampaignStore(cdir)
        shard = store.load().shards[0]
        path = store.shard_path(shard.shard_id)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["results"] = doc["results"][:1]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert store.read_manifest(shard) is None

    def test_stray_tmp_files_are_ignored(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=2))
        work(cdir)
        (cdir / "shards" / "merged.json.abc123.tmp").write_text("garbage")
        assert len(merge_results(cdir)) == len(grid)

    def test_merge_stopped_by_missing_shard_leaves_no_artifact(self, grid, tmp_path):
        # Shards 0 and 1 stream into the artifact before shard 2 is found
        # missing; the half-written merge must vanish, not land.
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=1))
        work(cdir, max_shards=2)
        with pytest.raises(IncompleteCampaignError) as exc:
            write_merged_results(cdir)
        assert exc.value.missing == (2, 3)
        assert not list(cdir.glob("merged*"))


# ----------------------------------------------------------------------
# Byte-identity of merged artifacts
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_sweep_merge_identical_across_interruptions(self, grid, tmp_path):
        baseline = None
        for i, pattern in enumerate(["all", "one-by-one", "pool"]):
            cdir = prepare_campaign(
                tmp_path / pattern, ShardedCampaign("sweep", grid, shard_size=2)
            )
            if pattern == "all":
                work(cdir)
            elif pattern == "one-by-one":
                while any(s.state != "done" for s in campaign_status(cdir)):
                    work(cdir, max_shards=1, owner=f"w{i}")
            else:
                run_workers(cdir, jobs=2)
            blob = write_merged_results(cdir).read_bytes()
            if baseline is None:
                baseline = blob
            assert blob == baseline

    def test_faults_merge_identical_to_serial_scorecard(self, fault_cells, tmp_path):
        serial = run_campaign(fault_cells)
        serial_path = tmp_path / "serial.json"
        serial.save(str(serial_path))
        merged_sc, cdir, _ = run_sharded_campaign(
            fault_cells, tmp_path / "ckpt", shard_size=2
        )
        merged = (pathlib.Path(cdir) / "merged.json").read_bytes()
        assert merged == serial_path.read_bytes()
        # The in-memory merge agrees with the serial campaign too.
        assert merged_sc.to_json() == serial.to_json()
        assert merge_scorecard(cdir).summary() == serial.summary()

    def test_merged_rewrite_is_stable(self, grid, tmp_path):
        cdir = prepare_campaign(tmp_path, ShardedCampaign("sweep", grid, shard_size=2))
        work(cdir)
        b1 = write_merged_results(cdir).read_bytes()
        b2 = write_merged_results(cdir).read_bytes()
        assert b1 == b2
        doc = json.loads(b1)
        assert doc["format"] == "repro-sweep-results"
        assert doc["summary"]["cells"] == len(grid)


# ----------------------------------------------------------------------
# kill -9 mid-campaign, then resume (the acceptance criterion)
# ----------------------------------------------------------------------
_WORKER_SRC = """
import sys
from repro.runtime.shard import work
# Tiny heartbeats so the parent can kill us mid-shard deterministically:
# touch a beacon file after the first cell, then keep working.
import repro.runtime.shard as shard
orig = shard._execute_shard
def beaconed(store, campaign, s, owner, cache, clock, on_cell=None,
             telemetry=None):
    def tick(cached):
        open(sys.argv[2], "a").write("cell\\n")
        if on_cell is not None:
            on_cell(cached)
    return orig(store, campaign, s, owner, cache, clock, tick, telemetry)
shard._execute_shard = beaconed
work(sys.argv[1], owner="victim", lease_ttl=0.5)
"""


class TestKillResume:
    def test_sigkill_mid_campaign_then_resume_is_byte_identical(
        self, grid, tmp_path
    ):
        # Reference: uninterrupted single-process run.
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("sweep", grid, shard_size=1)
        )
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()

        # Victim: a real worker subprocess, SIGKILLed after it has
        # completed at least one cell (so there is in-flight state).
        vic_dir = prepare_campaign(
            tmp_path / "vic", ShardedCampaign("sweep", grid, shard_size=1)
        )
        beacon = tmp_path / "beacon"
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER_SRC, str(vic_dir), str(beacon)],
            env=env,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if beacon.exists() and beacon.read_text().count("cell") >= 1:
                    break
                if proc.poll() is not None:
                    break  # finished before we could kill it - still valid
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait()

        # The campaign must be resumable despite the corpse's lease.
        states = {s.state for s in campaign_status(vic_dir)}
        assert states  # directory is readable
        stats = resume_campaign(vic_dir, lease_ttl=0.5)
        assert all(s.state == "done" for s in campaign_status(vic_dir))
        assert stats.shards_total == len(grid)
        merged = (pathlib.Path(vic_dir) / "merged.json").read_bytes()
        assert merged == reference


# ----------------------------------------------------------------------
# ShardedBackend (SweepExecutor integration)
# ----------------------------------------------------------------------
class TestShardedBackend:
    def test_matches_serial_backend(self, grid, tmp_path):
        sharded = ShardedBackend(tmp_path, shard_size=2)
        results = sharded.run(grid)
        assert results == SerialBackend().run(grid)
        assert sharded.stats.cells_total == len(grid)
        assert sharded.stats.cells_simulated == len(grid)
        assert sharded.report.cells_total == len(grid)
        assert sharded.last_campaign_dir is not None

    def test_second_run_skips_all_shards(self, grid, tmp_path):
        first = ShardedBackend(tmp_path, shard_size=2)
        r1 = first.run(grid)
        second = ShardedBackend(tmp_path, shard_size=2)
        r2 = second.run(grid)
        assert r1 == r2
        assert second.stats.cells_simulated == 0

    def test_cache_shared_with_other_backends(self, grid, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SerialBackend(cache=cache).run(grid)
        sharded = ShardedBackend(tmp_path / "ckpt", shard_size=2, cache=cache)
        sharded.run(grid)
        assert sharded.stats.cells_simulated == 0
        assert sharded.stats.cache_hits == len(grid)

    def test_report_mirrors_manifests_after_partly_cached_run(self, grid, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SerialBackend(cache=cache).run(grid[:2])
        sharded = ShardedBackend(tmp_path / "ckpt", shard_size=3, cache=cache)
        sharded.run(grid)
        store = CampaignStore(sharded.last_campaign_dir)
        campaign = store.load()
        cached, wall = [], []
        for shard in campaign.shards:
            manifest = store.read_manifest(shard)
            cached += manifest["cached"]
            wall += manifest["wall_ns"]
        assert cached == [True, True, False, False]
        cells = sharded.report.cells
        assert [c.cached for c in cells] == cached
        assert [c.wall_ns for c in cells] == wall
        assert [c.key for c in cells] == [k[:12] for k in campaign.cell_keys]
        assert sharded.stats.cells_simulated == 2
        assert sharded.stats.cache_hits == 2

    def test_jobs_validation(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            ShardedBackend(tmp_path, jobs=0)

    def test_int_valued_float_fields_reload_to_the_same_cells(self, tmp_path):
        # Regression: the campaign manifest is reloaded through
        # runspec_from_dict, whose float() turned horizon=2 into 2.0 and
        # moved the reconstructed cell keys, so the run was refused.
        specs = [
            RunSpec(
                taskset=TaskSetSpec.generated(2015, PARAMS),
                scenario=ScenarioSpec(name="w", windows=((1, 2),)),
                monitor=monitor,
                horizon=2,
            )
            for monitor in (MonitorSpec("none"), MonitorSpec("simple", 1))
        ]
        assert ShardedBackend(tmp_path).run(specs) == SerialBackend().run(specs)

    def test_fault_campaign_with_int_horizon(self, tmp_path):
        cells = build_campaign(CampaignConfig(seed=3, cells=4, tasksets=1, horizon=3))
        card, _, _ = run_sharded_campaign(cells, tmp_path)
        assert card.to_json() == run_campaign(cells).to_json()
