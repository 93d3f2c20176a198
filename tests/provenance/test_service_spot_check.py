"""Coordinator ``--verify-fraction`` spot-checks against dishonest workers.

A coordinator started with ``verify_fraction=1.0`` re-executes every
delivered cell of each shard, whoever its owner, before committing it.
A worker that corrupts the results of its ``shard_done`` frame is
convicted:

* its shard is **quarantined** — re-queued, never committed;
* the owner is barred: its next lease request returns
  ``NoWork(quarantined=True)`` and the worker loop exits with code 3;
* an honest worker then re-runs the refused shards and the final
  merged artifact is **byte-identical to serial** — corruption costs
  latency, never correctness;
* the verdict is observable: the jobs table counts the quarantine, the
  coordinator telemetry stream records re-executed cells and failures,
  and the fetched provenance manifest matches the honest bytes.
"""

import dataclasses
import json

import pytest

from repro.io.results_json import run_result_to_dict
from repro.provenance import load_manifest, provenance_path
from repro.runtime.executor import SerialBackend
from repro.runtime.shard import (
    ShardedCampaign,
    prepare_campaign,
    work,
    write_merged_results,
)
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.serve import protocol as wire
from repro.serve.client import ServiceClient
from repro.serve.coordinator import Coordinator
from repro.serve.worker import WorkerClient
from repro.workload.generator import GeneratorParams, taskset_seeds
from repro.workload.scenarios import SHORT

PARAMS = GeneratorParams(m=2)


def small_grid(n=4, horizon=2.0):
    return [
        RunSpec(
            taskset=TaskSetSpec.generated(seed, PARAMS),
            scenario=ScenarioSpec.from_scenario(SHORT),
            monitor=MonitorSpec("simple", 0.6),
            horizon=horizon,
        )
        for seed in taskset_seeds(n, base_seed=61)
    ]


@pytest.fixture(scope="module")
def grid():
    return small_grid()


class _DishonestWorker(WorkerClient):
    """Executes cells correctly, then lies about what they produced."""

    def _execute_grant(self, grant):
        columns = super()._execute_grant(grant)
        return columns._replace(results=corrupt(columns.results))


def corrupt(docs):
    return [dict(doc, miss_count=int(doc.get("miss_count", 0)) + 5) for doc in docs]


def quiet(*_):
    pass


class TestSpotCheck:
    def test_dishonest_worker_quarantined_honest_rerun_converges(
        self, grid, tmp_path, make_service
    ):
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("sweep", grid, shard_size=2)
        )
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()

        svc = make_service(verify_fraction=1.0, verify_seed=3)
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())

            # The dishonest worker corrupts every shard it touches; the
            # spot-check refuses each one and then bars the owner, so
            # its loop exits with the quarantine code.
            mallory = _DishonestWorker(svc.addr, owner="mallory", once=True,
                                       log=quiet)
            assert mallory.run() == 3
            assert mallory.shards_done == 0  # nothing it sent was kept

            row = next(r for r in client.jobs()
                       if r["key"] == campaign.campaign_key)
            assert row["shards_done"] == 0
            assert row["quarantined"] >= 1

            # An honest worker re-runs the refused shards to completion.
            honest = WorkerClient(svc.addr, owner="honest", once=True, log=quiet)
            assert honest.run() == 0
            row = client.wait(campaign.campaign_key, timeout_s=60)
            assert row["merged"] and row["manifest"]

            # The fetched provenance manifest travels over the wire.
            done = client._rpc(wire.FetchRequest(campaign=campaign.campaign_key))
            assert isinstance(done, wire.FetchDone)

        merged = (svc.coord.root / row["dir"] / "merged.json").read_bytes()
        assert merged == reference

        manifest = load_manifest(
            provenance_path(svc.coord.root / row["dir"] / "merged.json")
        )
        assert done.manifest["key"] == manifest.key()
        # Quarantined results never reach the artifact: every committed
        # shard is owned by the honest worker.
        assert {o["owner"] for o in manifest.owners} == {"honest"}

        # The verdict is visible in coordinator telemetry.
        telem = (svc.coord.root / row["dir"]
                 / "telemetry" / "coordinator.ndjson")
        records = [json.loads(line)
                   for line in telem.read_text().splitlines() if line]
        last = records[-1]
        assert last["quarantines"] >= 1
        assert last["verify_failures"] >= 1
        assert last["cells_verified"] >= len(grid)

    def test_honest_workers_unaffected_by_spot_checks(
        self, grid, tmp_path, make_service
    ):
        ref = [run_result_to_dict(r) for r in SerialBackend().run(grid)]
        svc = make_service(verify_fraction=1.0)
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            honest = WorkerClient(svc.addr, owner="w1", once=True, log=quiet)
            assert honest.run() == 0
            assert honest._conn is None  # run() hangs up on its way out
            row = client.wait(campaign.campaign_key, timeout_s=60)
            assert row["quarantined"] == 0
            cells = client.fetch(campaign.campaign_key)
        assert [doc for doc, _, _ in cells] == ref

    def test_verify_fraction_validated(self, tmp_path):
        with pytest.raises(ValueError):
            Coordinator(tmp_path, verify_fraction=1.5)
        with pytest.raises(ValueError):
            Coordinator(tmp_path, verify_fraction=-0.1)

    def test_partial_fraction_samples_deterministically(
        self, grid, tmp_path
    ):
        """fraction=0.5 re-executes half of each shard, same cells each
        time (seeded by shard id), so resubmission cannot dodge it."""
        coord = Coordinator(tmp_path / "c", verify_fraction=0.5,
                            verify_seed=11)
        (tmp_path / "c").mkdir(parents=True, exist_ok=True)
        coord.recover()
        campaign = ShardedCampaign("sweep", grid, shard_size=4)
        (ack,) = coord.handle(wire.Submit(campaign=campaign.to_dict()))
        assert ack.created
        (grant,) = coord.handle(wire.LeaseRequest(owner="w1"))
        docs = [run_result_to_dict(r) for r in SerialBackend().run(grid)]
        state = coord.campaigns[grant.campaign]
        shard = next(s for s in state.campaign.shards
                     if s.shard_id == grant.shard)
        sample = coord._spot_check(state, shard, docs[shard.start:shard.stop])
        assert sample == []  # honest docs pass
        (ok,) = coord.handle(wire.ShardDone(
            campaign=grant.campaign, shard=grant.shard, owner="w1",
            results=docs[shard.start:shard.stop], cached=[False] * shard.cells,
            wall_ns=[0] * shard.cells,
        ))
        assert isinstance(ok, wire.ShardOk) and ok.accepted

    def test_anonymous_corrupt_shard_refused(self, grid, tmp_path, make_service):
        """The spot check covers every delivered shard: an empty owner is
        verified like any other, its corrupt frame refused."""
        ref_dir = prepare_campaign(
            tmp_path / "ref", ShardedCampaign("sweep", grid, shard_size=2)
        )
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()
        docs = [run_result_to_dict(r) for r in SerialBackend().run(grid)]

        svc = make_service(verify_fraction=1.0)
        campaign = ShardedCampaign("sweep", grid, shard_size=2)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            grant = client._rpc(wire.LeaseRequest(owner=""))
            assert isinstance(grant, wire.LeaseGrant)
            honest = wire.ShardDone(
                campaign=grant.campaign, shard=grant.shard, owner="",
                results=docs[grant.start:grant.stop], cached=[False, False],
                wall_ns=[0, 0],
            )
            forged = dataclasses.replace(honest, results=corrupt(honest.results))
            verdict = client._rpc(forged)
            assert isinstance(verdict, wire.ShardOk)
            assert verdict.quarantined and not verdict.accepted
            (row,) = client.jobs()
            assert row["shards_done"] == 0 and row["quarantined"] == 1

            worker = WorkerClient(svc.addr, owner="honest", once=True, log=quiet)
            assert worker.run() == 0
            row = client.wait(campaign.campaign_key, timeout_s=60)
        merged = (svc.coord.root / row["dir"] / "merged.json").read_bytes()
        assert merged == reference
