"""Task-set sharing: every executor runs its cells in batches that share
materialized task sets.

Each executor hands :func:`~repro.runtime.executor.run_spec` (or, for
fault cells, :func:`~repro.faults.campaign.run_cell`) one sharing scope
per batch — one serial ``run()`` call, one pool slice, one file-queue
shard, one service lease grant — and each distinct ``TaskSetSpec`` is
materialized once per scope, never once per process.  The contract is
strict: results, and the merged campaign artifacts built from them, are
byte-identical to fresh materialization per cell; only the wall clock
changes.
"""

import os
import pathlib

import pytest

from repro.experiments.traffic import poisson_traffic
from repro.faults.campaign import (
    CampaignCell,
    CampaignConfig,
    build_campaign,
    run_campaign,
    run_cell,
)
from repro.faults.spec import ExecutionSpike, FaultPlan
from repro.io.results_json import run_result_to_dict
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ProcessPoolBackend, SerialBackend, run_spec
from repro.runtime.shard import (
    CampaignStore,
    ShardedBackend,
    ShardedCampaign,
    prepare_campaign,
    run_workers,
    work,
    write_merged_results,
    write_results_artifact,
)
from repro.runtime.spec import (
    KernelSpec,
    MonitorSpec,
    RunSpec,
    ScenarioSpec,
    TaskSetSpec,
)
from repro.serve import protocol as wire
from repro.serve.worker import WorkerClient
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import CALM


def grid(backends=("reference",), seeds=(2015, 2016)):
    """A small sweep grid: seeds x monitors (x kernel backends), seed-major."""
    specs = []
    for seed in seeds:
        for kind, param in (("simple", 0.6), ("adaptive", 0.5), ("none", 1.0)):
            for backend in backends:
                specs.append(RunSpec(
                    taskset=TaskSetSpec.generated(seed),
                    scenario=ScenarioSpec(name="single", windows=((1.0, 2.0),)),
                    monitor=MonitorSpec(kind=kind, param=param),
                    kernel=KernelSpec(backend=backend),
                    horizon=6.0,
                ))
    return specs


def traffic_grid():
    """Open-system traffic cells (CALM + Poisson load) on one task set."""
    params = GeneratorParams(m=2)
    return [
        RunSpec(
            taskset=TaskSetSpec.generated(2015, params),
            scenario=ScenarioSpec.from_scenario(CALM),
            monitor=MonitorSpec(kind, param),
            horizon=3.0,
            traffic=poisson_traffic(load, m=2, seed=1),
        )
        for load in (0.1, 0.45)
        for kind, param in (("simple", 0.6), ("none", 1.0))
    ]


def fault_cells():
    """A faulted cell and its fault-free baseline on one task set."""
    run = RunSpec(
        taskset=TaskSetSpec.generated(2015, GeneratorParams(m=2)),
        scenario=ScenarioSpec(name="single", windows=((1.0, 2.0),)),
        monitor=MonitorSpec("simple", 0.6),
        kernel=KernelSpec(record_intervals=True),
        horizon=4.0,
    )
    spike = FaultPlan(faults=(ExecutionSpike(1.0, 2.0, factor=1.5),), seed=1)
    return [
        CampaignCell(run=run, plan=spike),
        CampaignCell(run=run, plan=FaultPlan(seed=1)),
    ]


def fresh_docs(specs):
    """Reference results: every cell materializes its own task set."""
    return [run_result_to_dict(run_spec(s)) for s in specs]


def shared_docs(specs):
    """The same cells run in one sharing scope."""
    tasksets = {}
    return [run_result_to_dict(run_spec(s, tasksets)) for s in specs]


@pytest.fixture(scope="module")
def specs():
    return grid()


@pytest.fixture(scope="module")
def per_cell_docs(specs):
    return fresh_docs(specs)


@pytest.fixture
def materializations(monkeypatch, tmp_path):
    """Count ``TaskSetSpec.materialize`` calls, forked pool workers included.

    Each call appends one line to a file, so calls made in worker
    processes (which inherit the patch through ``fork``) are counted
    too.  Returns a callable reading the running total.
    """
    log = tmp_path / "materialize.log"
    orig = TaskSetSpec.materialize

    def counting(self):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {self.seed}\n")
        return orig(self)

    monkeypatch.setattr(TaskSetSpec, "materialize", counting)
    return lambda: len(log.read_text().splitlines()) if log.exists() else 0


class TestRunSpecsBatch:
    """A shared dict gives the results of fresh materialization."""

    def test_identical_to_per_cell(self, specs, per_cell_docs):
        assert shared_docs(specs) == per_cell_docs

    def test_identical_across_kernel_backends(self):
        specs = grid(backends=("reference", "soa"), seeds=(2015,))
        assert shared_docs(specs) == fresh_docs(specs)

    def test_identical_on_traffic_cells(self):
        specs = traffic_grid()
        assert shared_docs(specs) == fresh_docs(specs)

    def test_materializes_each_taskset_once(self, specs, materializations):
        tasksets = {}
        for s in specs:
            run_spec(s, tasksets)
        assert materializations() == len({s.taskset for s in specs})


class TestSharingScopes:
    """``TaskSetSpec.materialize`` runs once per distinct task set per scope."""

    def test_one_serial_run(self, specs, materializations):
        ex = SerialBackend()
        ex.run(specs)
        assert materializations() == 2
        ex.run(specs)  # a new run() is a new scope
        assert materializations() == 4

    def test_one_pool_slice(self, specs, per_cell_docs, materializations):
        # Slices of 2 over [a a a b b b]: [a a] [a b] [b b] -> 4, where a
        # process-wide scope would give at most one per worker and seed.
        ex = ProcessPoolBackend(jobs=2, chunksize=2)
        assert [run_result_to_dict(r) for r in ex.run(specs)] == per_cell_docs
        assert materializations() == 4

    def test_one_file_queue_shard(self, specs, per_cell_docs, tmp_path, materializations):
        # Shards of 4 over [a a a b b b]: [a a a b] [b b] -> 3.
        ex = ShardedBackend(tmp_path / "cp", shard_size=4)
        assert [run_result_to_dict(r) for r in ex.run(specs)] == per_cell_docs
        assert materializations() == 3

    def test_one_service_grant(self, specs, per_cell_docs, materializations):
        campaign = ShardedCampaign("sweep", specs, shard_size=len(specs))
        shard = campaign.shards[0]
        grant = wire.LeaseGrant(
            campaign=campaign.campaign_key,
            shard=shard.shard_id,
            start=shard.start,
            stop=shard.stop,
            kind="sweep",
            cells=campaign.to_dict()["cells"],
            cell_keys=list(campaign.cell_keys),
        )
        worker = WorkerClient("127.0.0.1:1", log=lambda *_: None)
        rows = worker._execute_grant(grant)
        assert [doc for _pos, doc, _c, _w in rows] == per_cell_docs
        assert [pos for pos, *_ in rows] == list(range(len(specs)))
        assert materializations() == 2
        worker._execute_grant(grant)  # a new grant is a new scope
        assert materializations() == 4

    def test_in_memory_fault_campaign_serial(self, materializations):
        cells = build_campaign(
            CampaignConfig(seed=2015, cells=6, tasksets=2, horizon=3)
        )
        assert len(cells) == 11
        run_campaign(cells)
        # The whole serial campaign is one scope (once per cell before).
        assert materializations() == len({c.run.taskset for c in cells}) == 2

    def test_in_memory_fault_campaign_pool(self, tmp_path, materializations):
        cells = build_campaign(
            CampaignConfig(seed=2015, cells=6, tasksets=2, horizon=3)
        )
        serial = run_campaign(cells).to_json()
        base = materializations()
        assert run_campaign(cells, jobs=2).to_json() == serial
        # Slices of ceil(11 / (4 * 2)) = 2 cells, one scope each.
        slices = [cells[i : i + 2] for i in range(0, len(cells), 2)]
        expected = sum(len({c.run.taskset for c in s}) for s in slices)
        assert materializations() - base == expected < len(cells)

    def test_faults_shard_with_baseline(self, tmp_path, materializations):
        cells = fault_cells()
        expected = [run_cell(c).to_dict() for c in cells]
        base = materializations()
        campaign = ShardedCampaign("faults", cells, shard_size=len(cells))
        cdir = prepare_campaign(tmp_path / "faults", campaign)
        work(cdir)
        assert materializations() - base == 1
        manifest = CampaignStore(cdir).read_manifest(campaign.shards[0])
        assert manifest["results"] == expected


class TestBackendsBatchMode:
    """Every backend returns the per-cell results."""

    def test_serial_batch(self, specs, per_cell_docs):
        ex = SerialBackend()
        assert [run_result_to_dict(r) for r in ex.run(specs)] == per_cell_docs
        assert ex.stats.cells_simulated == len(specs)

    def test_pool_batch(self, specs, per_cell_docs):
        ex = ProcessPoolBackend(jobs=2)
        assert [run_result_to_dict(r) for r in ex.run(specs)] == per_cell_docs
        assert ex.stats.cells_simulated == len(specs)
        assert ex.stats.pool_breaks == 0

    def test_pool_batch_chunksize_one(self, specs, per_cell_docs):
        # Degenerate slicing (one cell per slice) still preserves order.
        ex = ProcessPoolBackend(jobs=2, chunksize=1)
        assert [run_result_to_dict(r) for r in ex.run(specs)] == per_cell_docs

    def test_batch_with_cache(self, specs, per_cell_docs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ex = SerialBackend(cache=cache)
        first = [run_result_to_dict(r) for r in ex.run(specs)]
        assert first == per_cell_docs
        again = [run_result_to_dict(r) for r in ex.run(specs)]
        assert again == per_cell_docs
        assert ex.stats.cache_hits == len(specs)
        assert ex.stats.cells_simulated == 0

    def test_report_labels_are_backend_names(self):
        specs = grid(backends=("reference", "soa"), seeds=(2015,))
        ex = SerialBackend()
        ex.run(specs)
        assert sorted(ex.report.by_backend()) == ["reference", "soa"]
        assert {c.backend for c in ex.report.cells} == {"reference", "soa"}


class TestShardedBatchMode:
    def test_full_shard_byte_identical(self, specs, per_cell_docs, tmp_path):
        """A sharded run's merged artifact is byte-identical to the one
        written from fresh per-cell results."""
        ex = ShardedBackend(tmp_path / "cp", shard_size=4)
        assert [run_result_to_dict(r) for r in ex.run(specs)] == per_cell_docs
        ref = write_results_artifact(
            specs, [run_spec(s) for s in specs], tmp_path / "ref.json", shard_size=4
        )
        merged = (ex.last_campaign_dir / "merged.json").read_bytes()
        assert merged == pathlib.Path(ref).read_bytes()

    def test_batch_manifest_with_warm_cache(self, specs, per_cell_docs, tmp_path):
        """Hits and misses interleave in the manifest in cell order, with
        their cached flags."""
        cache = ResultCache(tmp_path / "cache")
        for s in specs[::2]:
            cache.put(s.key(), {}, run_spec(s))
        ex = ShardedBackend(tmp_path / "cp", shard_size=4, cache=cache)
        docs = [run_result_to_dict(r) for r in ex.run(specs)]
        assert docs == per_cell_docs
        assert ex.stats.cache_hits == len(specs[::2])
        assert ex.stats.cells_simulated == len(specs) - len(specs[::2])
        report_flags = [c.cached for c in ex.report.cells]
        assert report_flags == [i % 2 == 0 for i in range(len(specs))]

    def test_batch_resume_after_partial_run(self, specs, tmp_path):
        """A partial run resumes to the same merged artifact."""
        campaign = ShardedCampaign("sweep", specs, shard_size=4)
        cdir = prepare_campaign(tmp_path / "resume", campaign)
        run_workers(cdir, max_shards=1)
        stats = run_workers(cdir)
        assert stats.shards_skipped == 1
        merged = write_merged_results(cdir).read_bytes()

        ref = ShardedBackend(tmp_path / "ref", shard_size=4)
        ref.run(specs)
        assert merged == (ref.last_campaign_dir / "merged.json").read_bytes()
