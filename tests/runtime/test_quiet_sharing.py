"""Quiet-run sharing: cells that differ only in their monitor share a run
with no tolerance miss.

A sharing scope (one serial ``run()``, pool slice, file-queue shard or
service grant) keeps each quiet result of an untraced built-in-monitor
cell under its spec with the monitor removed, and a later cell of that
group returns it relabelled (:func:`~repro.runtime.executor.run_spec`).
The contract is the task-set sharing one: every result, manifest and
merged artifact keeps its bytes; only the simulation count moves.
"""

import dataclasses
import importlib.util
import pathlib
import random

import pytest

from repro.faults import campaign as fault_campaign
from repro.faults.campaign import CampaignCell, run_cell
from repro.faults.spec import FaultPlan
from repro.io.results_json import run_result_to_dict
from repro.runtime import executor
from repro.runtime.executor import SerialBackend, run_spec
from repro.runtime.registry import acts_only_on_miss, monitor_registry
from repro.runtime.shard import (
    ShardedBackend,
    ShardedCampaign,
    prepare_campaign,
    work,
    write_merged_results,
)
from repro.runtime.spec import MonitorSpec, ObsSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.serve.client import ServiceClient
from repro.serve.worker import WorkerClient
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import CALM, SHORT

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

MONITORS = (
    MonitorSpec("simple", 0.6),
    MonitorSpec("adaptive", 0.5),
    MonitorSpec("none"),
    MonitorSpec("stepped", 0.5),
    MonitorSpec("clamped", 0.4),
)


def group(seed=2015, scenario=CALM, monitors=MONITORS, **kw):
    """Cells on one task set and scenario, one per monitor."""
    return [
        RunSpec(
            taskset=TaskSetSpec.generated(seed, GeneratorParams(m=2)),
            scenario=ScenarioSpec.from_scenario(scenario),
            monitor=mon,
            horizon=3.0,
            **kw,
        )
        for mon in monitors
    ]


def docs(results):
    return [run_result_to_dict(r) for r in results]


@pytest.fixture
def simulations(monkeypatch):
    """Count :func:`~repro.runtime.executor.simulate_spec` calls, fault
    cells' included."""
    calls = []
    orig = executor.simulate_spec

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return orig(spec, *args, **kwargs)

    monkeypatch.setattr(executor, "simulate_spec", counting)
    monkeypatch.setattr(fault_campaign, "simulate_spec", counting)
    return calls


class TestScope:
    def test_quiet_group_simulates_once(self, simulations):
        specs = group()
        solo = [run_spec(s) for s in specs]
        assert all(r.miss_count == 0 for r in solo)
        scope = {}
        shared = [run_spec(s, scope) for s in specs]
        assert len(simulations) == len(specs) + 1
        assert docs(shared) == docs(solo)
        assert [r.monitor for r in shared] == [s.monitor.label for s in specs]

    def test_acting_group_simulates_every_cell(self, simulations):
        specs = group(scenario=SHORT)
        scope = {}
        shared = [run_spec(s, scope) for s in specs]
        assert len(simulations) == len(specs)
        assert all(r.miss_count > 0 for r in shared)
        assert docs(shared) == docs(run_spec(s) for s in specs)

    def test_shuffled_cells_give_each_spec_its_result(self):
        specs = group(2015) + group(2016) + group(2015, scenario=SHORT)
        solo = {s: run_result_to_dict(run_spec(s)) for s in specs}
        for seed in range(3):
            order = list(specs)
            random.Random(seed).shuffle(order)
            scope = {}
            assert {s: run_result_to_dict(run_spec(s, scope)) for s in order} == solo

    def test_traced_sibling_simulates_and_writes_its_trace(self, tmp_path, simulations):
        quiet, sibling = group(monitors=MONITORS[:2])
        traced = dataclasses.replace(sibling, obs=ObsSpec(trace_dir=str(tmp_path / "shared")))
        scope = {}
        run_spec(quiet, scope)
        result = run_spec(traced, scope)
        assert len(simulations) == 2
        trace = tmp_path / "shared" / f"run-{traced.key()[:12]}.jsonl"
        alone = dataclasses.replace(sibling, obs=ObsSpec(trace_dir=str(tmp_path / "solo")))
        assert run_result_to_dict(result) == run_result_to_dict(run_spec(alone))
        assert trace.read_bytes() == (tmp_path / "solo" / trace.name).read_bytes()

    def test_fault_cells_never_share(self, simulations):
        cells = [CampaignCell(run=s, plan=FaultPlan(seed=1)) for s in group()[:2]]
        scope = {}
        for cell in cells:
            run_cell(cell, scope)
        assert len(simulations) == 2


@pytest.fixture
def additive_kind():
    """``examples/custom_monitor.py`` imported: its kind is registered."""
    spec = importlib.util.spec_from_file_location(
        "custom_monitor_example", EXAMPLES / "custom_monitor.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield MonitorSpec("additive", 0.8, 0.1)
    monitor_registry.unregister("additive")


class TestUntrustedKinds:
    def test_builtin_kinds_are_trusted(self):
        assert all(acts_only_on_miss(m.kind) for m in MONITORS)

    def test_custom_monitor_example_always_simulates(self, additive_kind, simulations):
        assert not acts_only_on_miss("additive")
        monitors = (MONITORS[0], additive_kind, dataclasses.replace(additive_kind, param=0.7))
        specs = group(monitors=monitors)
        scope = {}
        shared = [run_spec(s, scope) for s in specs]
        assert len(simulations) == 3
        assert docs(shared) == docs(run_spec(s) for s in specs)

    def test_overridden_builtin_key_always_simulates(self, simulations):
        entry = monitor_registry.get("simple")
        monitor_registry.register("simple", dataclasses.replace(entry), override=True)
        try:
            assert not acts_only_on_miss("simple")
            scope = {}
            for s in group(monitors=(MONITORS[1], MONITORS[0])):
                run_spec(s, scope)
            assert len(simulations) == 2
        finally:
            monitor_registry.register("simple", entry, override=True)
        assert acts_only_on_miss("simple")


class TestExecutors:
    """Each executor shares inside its scopes only; artifacts keep their bytes."""

    def test_serial_run_shares_and_one_cell_shards_do_not(self, tmp_path, simulations):
        specs = group(2015, monitors=MONITORS[:2]) + group(2016, monitors=MONITORS[:2])
        serial = SerialBackend()
        serial.merged_out = str(tmp_path / "shared.json")
        serial.merged_shard_size = 1
        serial.run(specs)
        assert len(simulations) == 2
        assert serial.stats.cells_simulated == len(specs)

        sharded = ShardedBackend(tmp_path / "solo", shard_size=1)
        sharded.run(specs)
        assert len(simulations) == 2 + len(specs)
        merged = (sharded.last_campaign_dir / "merged.json").read_bytes()
        assert (tmp_path / "shared.json").read_bytes() == merged

    def test_spot_check_accepts_every_shared_shard(self, tmp_path, make_service, simulations):
        specs = group(2015) + group(2016)
        campaign = ShardedCampaign("sweep", specs, shard_size=len(MONITORS))
        ref_dir = prepare_campaign(tmp_path / "ref", campaign)
        work(ref_dir)
        reference = write_merged_results(ref_dir).read_bytes()
        assert len(simulations) == 2  # one run per quiet shard

        svc = make_service(verify_fraction=1.0)
        with ServiceClient(svc.addr) as client:
            client.submit(campaign.to_dict())
            worker = WorkerClient(svc.addr, owner="w1", once=True, log=lambda *_: None)
            assert worker.run() == 0
            row = client.wait(campaign.campaign_key, timeout_s=60)
        assert row["quarantined"] == 0
        # The worker ran each quiet shard once; the spot check re-ran
        # every cell alone.
        assert len(simulations) == 2 + 2 + len(specs)
        assert (svc.coord.root / row["dir"] / "merged.json").read_bytes() == reference
