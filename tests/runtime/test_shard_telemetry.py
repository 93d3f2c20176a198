"""Telemetry threaded through sharded campaigns: coexistence with
heartbeats/leases, survival of SIGKILL + resume, and result-neutrality
(merged artifacts are byte-identical with telemetry on or off)."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.telemetry import (
    TelemetryAggregator,
    aggregate_campaign,
    iter_telemetry_files,
    read_telemetry,
)
from repro.runtime.shard import (
    ShardedCampaign,
    campaign_status,
    prepare_campaign,
    resume_campaign,
    work,
    write_merged_results,
)
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.workload.generator import GeneratorParams, taskset_seeds
from repro.workload.scenarios import SHORT

PARAMS = GeneratorParams(m=2)


def small_grid(n=4, horizon=2.0):
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


class TestTelemetryCoexistence:
    def test_worker_writes_stream_next_to_heartbeats(self, grid, tmp_path):
        cdir = prepare_campaign(
            tmp_path, ShardedCampaign("sweep", grid, shard_size=2)
        )
        work(cdir, owner="w0", telemetry=True)
        files = iter_telemetry_files(cdir)
        assert len(files) == 1
        assert files[0].name == "w0.ndjson"
        # Lease files (the heartbeat substrate) and shard manifests are
        # untouched by the telemetry stream.
        assert (cdir / "leases").is_dir()
        assert all(s.state == "done" for s in campaign_status(cdir))

        records = list(read_telemetry(files[0]))
        assert records[0]["rec"] == "meta"
        final = [r for r in records if r.get("final") is True]
        assert len(final) == 1
        assert final[0]["cells_done"] == len(grid)
        assert final[0]["shards_done"] == 2
        assert final[0]["leases_acquired"] == 2
        assert final[0]["leases_stolen"] == 0
        assert final[0]["backend"] == "reference"
        # Kernel phase profiling rode along: counters are non-zero.
        assert final[0]["phases"]["engine_pop"]["count"] > 0

    def test_aggregate_matches_campaign(self, grid, tmp_path):
        cdir = prepare_campaign(
            tmp_path, ShardedCampaign("sweep", grid, shard_size=2)
        )
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        work(cdir, owner="w0", telemetry=True)
        agg = aggregate_campaign(cdir)
        assert agg["campaign"] == campaign.campaign_key
        assert agg["totals"]["cells_done"] == len(grid)
        assert agg["workers"]["w0"]["final"] is True


class TestResultNeutrality:
    def test_merged_artifact_identical_telemetry_on_or_off(self, grid, tmp_path):
        off_dir = prepare_campaign(
            tmp_path / "off", ShardedCampaign("sweep", grid, shard_size=2)
        )
        work(off_dir, owner="w-off")
        off_bytes = write_merged_results(off_dir).read_bytes()

        on_dir = prepare_campaign(
            tmp_path / "on", ShardedCampaign("sweep", grid, shard_size=2)
        )
        work(on_dir, owner="w-on", telemetry=True)
        on_bytes = write_merged_results(on_dir).read_bytes()

        assert on_bytes == off_bytes
        # Telemetry never leaks into the canonical artifact.
        assert b"telemetry" not in on_bytes
        assert b"phases" not in on_bytes


_WORKER_SRC = """
import sys
from repro.runtime.shard import work
import repro.runtime.shard as shard
orig = shard._execute_shard
def beaconed(store, campaign, s, owner, cache, clock,
             on_cell=None, telemetry=None):
    # The beacon follows the cell's telemetry sample, so the kill it
    # triggers always leaves the victim at least one sample to aggregate.
    cell_done = telemetry.cell_done
    def tick(*args, **kwargs):
        cell_done(*args, **kwargs)
        open(sys.argv[2], "a").write("cell\\n")
    telemetry.cell_done = tick
    return orig(store, campaign, s, owner, cache, clock, on_cell, telemetry)
shard._execute_shard = beaconed
work(sys.argv[1], owner="victim", lease_ttl=0.5, telemetry=True)
"""


class TestKillResumeWithTelemetry:
    def test_sigkill_then_resume_merges_and_aggregates(self, grid, tmp_path):
        # Reference artifact: uninterrupted, telemetry off.
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("sweep", grid, shard_size=1)
        )
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()

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
                    break
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait()

        # The victim never reached close(): its stream has no final
        # sample (and possibly a torn last line) — it must still parse.
        vic_files = iter_telemetry_files(vic_dir)
        assert len(vic_files) == 1
        assert not any(
            r.get("final") is True for r in read_telemetry(vic_files[0])
        )

        stats = resume_campaign(vic_dir, lease_ttl=0.5, telemetry=True)
        assert stats.shards_total == len(grid)
        assert all(s.state == "done" for s in campaign_status(vic_dir))

        # Canonical artifact: byte-identical to the telemetry-off
        # uninterrupted reference despite kill + telemetry.
        merged = (pathlib.Path(vic_dir) / "merged.json").read_bytes()
        assert merged == reference

        # Both streams (corpse + rescuer) aggregate; totals cover the
        # whole campaign even though the victim's tail is missing.
        agg = aggregate_campaign(vic_dir)
        assert len(agg["workers"]) == 2
        assert "victim" in agg["workers"]
        assert agg["totals"]["cells_done"] >= len(grid)
        rescuer = next(o for o in agg["workers"] if o != "victim")
        assert agg["workers"][rescuer]["final"] is True

    def test_torn_telemetry_line_does_not_break_aggregation(self, grid, tmp_path):
        cdir = prepare_campaign(
            tmp_path, ShardedCampaign("sweep", grid, shard_size=2)
        )
        work(cdir, owner="w0", telemetry=True)
        path = iter_telemetry_files(cdir)[0]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"rec": "sample", "seq": 4096, "cells_do')
        agg = aggregate_campaign(cdir)
        assert agg["totals"]["cells_done"] == len(grid)

        # The merge is still deterministic with the torn tail present.
        a = TelemetryAggregator()
        a.add_campaign(cdir)
        b = TelemetryAggregator()
        b.add_campaign(cdir)
        assert a.to_json() == b.to_json()


class TestStealAccounting:
    def test_reclaimed_lease_counts_as_steal(self, grid, tmp_path):
        cdir = prepare_campaign(
            tmp_path, ShardedCampaign("sweep", grid, shard_size=2)
        )
        store_clock = [1000.0]

        def clock():
            return store_clock[0]

        # First worker claims shard 0 then "dies" (we only plant the lease).
        from repro.runtime.shard import CampaignStore

        store = CampaignStore(cdir)
        campaign = store.load()
        assert store.try_acquire(campaign.shards[0].shard_id, "corpse", 0.5, clock)

        # TTL expires; a telemetry-enabled worker reclaims it.
        store_clock[0] += 10.0
        work(cdir, owner="rescuer", lease_ttl=0.5, clock=clock, telemetry=True)
        agg = TelemetryAggregator()
        agg.add_campaign(cdir)
        doc = json.loads(agg.to_json())
        assert doc["workers"]["rescuer"]["leases_stolen"] == 1
