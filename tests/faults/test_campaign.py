"""Campaign construction, execution (serial and pool) and scorecards.

The backend byte-identity test here is the determinism contract: the
same cells produce byte-identical scorecard JSON whether they ran in
this process or across a process pool.
"""

from __future__ import annotations

import gc
import json
from dataclasses import replace

import pytest

from repro.experiments.traffic import poisson_traffic
from repro.faults.campaign import (
    CampaignCell,
    CampaignConfig,
    CellOutcome,
    Scorecard,
    build_campaign,
    run_campaign,
    run_cell,
)
from repro.faults.spec import (
    ClockSkew,
    CpuStall,
    ExecutionSpike,
    FaultPlan,
    MonitorOutage,
    ReleaseJitter,
    SpeedCommandDelay,
    SpeedCommandDrop,
)
from repro.runtime.executor import PoolDegradation, run_spec
from repro.runtime.spec import KernelSpec, MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import CALM

@pytest.fixture(scope="module")
def cells(small_spec, make_cell):
    """Three tiny cells: two clean monitors plus one stalled (violating)."""
    return [
        CampaignCell(run=small_spec, plan=FaultPlan()),
        CampaignCell(
            run=replace(small_spec, monitor=MonitorSpec("simple", 0.5)),
            plan=FaultPlan(),
        ),
        make_cell(small_spec, CpuStall(cpu=0, start=1.0, end=4.0)),
    ]


@pytest.fixture(scope="module")
def serial(cells):
    return run_campaign(cells, jobs=1)


class TestBuildCampaign:
    def test_fault_free_mode(self):
        config = CampaignConfig(seed=5, cells=10, fault_free=True, tasksets=1)
        built = build_campaign(config)
        assert len(built) == 10
        assert all(c.plan.is_empty for c in built)

    def test_fault_free_over_grid_rejected(self):
        config = CampaignConfig(seed=5, cells=1000, fault_free=True, tasksets=1)
        with pytest.raises(ValueError, match="grid"):
            build_campaign(config)

    def test_faulted_mode_appends_baselines(self):
        config = CampaignConfig(seed=5, cells=6, tasksets=1)
        built = build_campaign(config)
        faulted, baselines = built[:6], built[6:]
        assert all(not c.plan.is_empty for c in faulted)
        assert all(c.plan.is_empty for c in baselines)
        # One baseline per distinct run spec among the faulted cells.
        assert len(baselines) == len({c.run.key() for c in faulted})

    def test_build_is_seed_deterministic(self):
        config = CampaignConfig(seed=5, cells=6, tasksets=1)
        a = [c.key() for c in build_campaign(config)]
        b = [c.key() for c in build_campaign(config)]
        assert a == b
        other = CampaignConfig(seed=6, cells=6, tasksets=1)
        assert a != [c.key() for c in build_campaign(other)]

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(cells=0)
        with pytest.raises(ValueError):
            CampaignConfig(tasksets=0)


class TestCellValidation:
    """Unsupported combinations are refused when the cell is built."""

    def no_vt_spec(self, small_spec):
        return replace(
            small_spec,
            monitor=MonitorSpec("none", None),
            kernel=KernelSpec(use_virtual_time=False),
        )

    def test_clock_skew_without_virtual_time_refused(self, small_spec):
        spec = self.no_vt_spec(small_spec)
        plan = FaultPlan((ClockSkew(0.1, 0.5, magnitude=0.01),), seed=1)
        with pytest.raises(ValueError, match="ClockSkew requires use_virtual_time=True"):
            CampaignCell(run=spec, plan=plan)
        # A stored cell is refused on decode, before anything runs.
        doc = CampaignCell(run=small_spec, plan=plan).to_dict()
        doc["run"] = CampaignCell(run=spec, plan=FaultPlan()).to_dict()["run"]
        with pytest.raises(ValueError, match="ClockSkew requires use_virtual_time=True"):
            CampaignCell.from_dict(doc)

    def test_other_faults_without_virtual_time_accepted(self, small_spec):
        spec = self.no_vt_spec(small_spec)
        cell = CampaignCell(
            run=spec, plan=FaultPlan((CpuStall(cpu=0, start=1.0, end=2.0),), seed=1)
        )
        assert cell.key()


class TestOneRunBody:
    """run_cell runs its spec exactly as run_spec does, traffic included."""

    def test_traffic_cell_equals_run_spec(self):
        spec = RunSpec(
            taskset=TaskSetSpec.generated(7, GeneratorParams(m=4)),
            scenario=ScenarioSpec.from_scenario(CALM),
            monitor=MonitorSpec("simple", 0.6),
            kernel=KernelSpec(record_intervals=True),
            horizon=10.0,
            traffic=poisson_traffic(0.45, 4, seed=1),
        )
        result = run_spec(spec)
        outcome = run_cell(CampaignCell(run=spec, plan=FaultPlan()))
        assert result.episodes > 0  # the traffic alone overloads the platform
        for name in (
            "dissipation", "truncated", "min_speed", "miss_count", "episodes",
            "sim_end", "events",
        ):
            assert getattr(outcome, name) == getattr(result, name), name
        # Judged against the task set the kernel ran, server tasks included.
        assert "gel_order" in outcome.checked
        assert outcome.violations == ()


class TestOraclesReadRows:
    def test_run_cell_builds_no_record(self, small_spec, make_cell, monkeypatch):
        import repro.sim.trace as trace_mod

        def refuse(rows):
            raise AssertionError("a trace record was built")

        expected = run_cell(
            make_cell(
                small_spec,
                ExecutionSpike(1.0, 2.0, factor=1.5),
                CpuStall(cpu=0, start=2.0, end=3.0),
            )
        )
        monkeypatch.setattr(trace_mod, "_job_records", refuse)
        monkeypatch.setattr(trace_mod, "_interval_records", refuse)
        outcome = run_cell(expected.cell)
        assert outcome == expected
        assert {"ab_isolation", "gel_order", "recovery_exit"} <= set(outcome.checked)


class TestBackendEquivalence:
    def test_pool_scorecard_is_byte_identical(self, cells, serial):
        pooled = run_campaign(cells, jobs=2)
        assert pooled.to_json() == serial.to_json()

    def test_outcomes_keep_submission_order(self, cells, serial):
        assert [o.key for o in serial.outcomes] == [c.key() for c in cells]


class TestScorecard:
    def test_violating_and_ok(self, serial):
        assert not serial.ok
        bad = serial.violating()
        assert len(bad) == 1
        assert bad[0].faulted
        assert "ab_isolation" in bad[0].violation_counts()

    def test_find_by_prefix(self, cells, serial):
        key = cells[2].key()
        assert serial.find(key[:12]).key == key
        with pytest.raises(KeyError, match="no campaign cell"):
            serial.find("ffffffffffff")
        with pytest.raises(KeyError, match="ambiguous"):
            serial.find("")

    def test_baseline_lookup(self, serial):
        bad = serial.violating()[0]
        base = serial.baseline_for(bad)
        assert base is not None
        assert not base.faulted
        assert base.run_key == bad.run_key

    def test_summary_fields(self, serial):
        s = serial.summary()
        assert s["cells"] == 3
        assert s["faulted"] == 1
        assert s["fault_free"] == 2
        assert s["violating_cells"] == 1
        assert s["violations"].get("ab_isolation", 0) >= 1
        assert s["pool_breaks"] == 0

    def test_render_mentions_failures(self, serial):
        text = serial.render()
        assert "FAIL" in text
        assert "ab_isolation" in text

    def test_save_load_roundtrip(self, serial, tmp_path):
        path = tmp_path / "scorecard.json"
        serial.save(str(path))
        again = Scorecard.load(str(path))
        assert again.to_json() == serial.to_json()

    def test_pool_degradation_in_summary_and_saved_bytes(self, serial, tmp_path):
        degraded = Scorecard(
            outcomes=serial.outcomes,
            degradation=PoolDegradation(retried=2, serial_fallback=1, breaks=2),
        )
        s = degraded.summary()
        assert s["pool_breaks"] == 2 and s["pool_retried"] == 2
        assert s["pool_serial_fallback"] == 1
        # Degradation only adds the pool_* figures to the summary.
        plain = serial.summary()
        assert {k: v for k, v in s.items() if not k.startswith("pool_")} == {
            k: v for k, v in plain.items() if not k.startswith("pool_")
        }
        path = tmp_path / "degraded.json"
        degraded.save(str(path))
        text = path.read_text(encoding="utf-8")
        assert text == degraded.to_json() + "\n"
        doc = json.loads(text)
        assert doc["summary"] == s
        assert doc["degradation"] == {"breaks": 2, "retried": 2, "serial_fallback": 1}
        again = Scorecard.load(str(path))
        assert again.degradation == degraded.degradation
        assert again.summary() == s
        assert again.to_json() == degraded.to_json()

    def test_outcome_dict_roundtrip(self, serial):
        for o in serial.outcomes:
            again = CellOutcome.from_dict(o.to_dict())
            assert again == o


def _leaves_no_cycle(run) -> bool:
    """Whether a second *run()* leaves nothing for the cyclic collector."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", ["reference", "soa"])
def test_finished_cells_are_freed_by_reference_counting(small_spec, make_cell, backend):
    """A judged cell, faulted or not, leaves no reference cycle behind:
    its kernel, trace and fault plane go when run_cell returns."""
    spec = replace(small_spec, kernel=KernelSpec(backend=backend, record_intervals=True))
    clean = CampaignCell(run=spec, plan=FaultPlan(seed=5))
    faulted = make_cell(
        spec,
        MonitorOutage(0.4, 0.8, mode="queue"),
        SpeedCommandDelay(0.5, 1.0, delay=0.1),
        SpeedCommandDrop(1.0, 1.2),
        ClockSkew(0.5, 1.5, magnitude=0.01),
        ExecutionSpike(0.5, 1.0, factor=2.0, prob=0.5),
        ReleaseJitter(0.3, 1.2, magnitude=0.01),
        CpuStall(cpu=0, start=0.2, end=0.4),
    )
    assert _leaves_no_cycle(lambda: run_cell(clean))
    assert _leaves_no_cycle(lambda: run_cell(faulted))


def test_finished_reference_sweep_cell_is_freed_by_reference_counting(small_spec):
    spec = replace(small_spec, kernel=KernelSpec(backend="reference"))
    assert _leaves_no_cycle(lambda: run_spec(spec))
