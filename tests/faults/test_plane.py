"""FaultPlane behaviour: each fault kind observably perturbs a run,
empty planes are bit-neutral, and installation rules are enforced."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.runner import run_overload_experiment
from repro.faults.campaign import CampaignConfig, build_campaign, run_cell
from repro.faults.plane import FAULT_TASK_BASE_ID, FaultPlane
from repro.faults.spec import (
    ClockSkew,
    CpuStall,
    ExecutionSpike,
    FaultPlan,
    MonitorOutage,
    ReleaseJitter,
    SpeedCommandDrop,
)
from repro.runtime.spec import KernelSpec, MonitorSpec, ObsSpec
from repro.sim.diffcheck import fingerprint, fingerprint_digest

HORIZON = 20.0  # matches conftest.small_spec


def _run(ts, spec, plane=None):
    return run_overload_experiment(
        ts,
        spec.scenario.build(),
        spec.monitor,
        horizon=spec.horizon,
        confirm_window=spec.confirm_window,
        config=spec.kernel.to_config(),
        keep_artifacts=True,
        level_c_budgets=spec.level_c_budgets,
        fault_plane=plane,
    )


def _digest(out):
    return fingerprint_digest(fingerprint(out.trace, out.kernel, out.monitor))


@pytest.fixture(scope="module")
def baseline(small_ts, small_spec):
    return _run(small_ts, small_spec)


class TestNeutrality:
    def test_empty_plane_is_bit_identical_to_no_plane(
        self, small_ts, small_spec, baseline
    ):
        out = _run(small_ts, small_spec, plane=FaultPlane(FaultPlan()))
        assert _digest(out) == _digest(baseline)

    def test_baseline_run_satisfies_all_invariants(self, empty_cell):
        outcome = run_cell(empty_cell)
        assert outcome.ok
        assert not outcome.faulted
        assert set(outcome.checked) == {
            "ab_isolation",
            "speed_bounds",
            "recovery_closure",
            "gel_order",
            "recovery_exit",
        }

    def test_baseline_recovers(self, baseline):
        # The shared scenario must actually trigger recovery, or the
        # speed-path fault tests below would test nothing.
        assert baseline.result.episodes >= 1
        assert baseline.result.min_speed < 1.0


class TestCpuStall:
    def test_stall_starves_its_partition(self, small_spec, make_cell):
        outcome = run_cell(
            make_cell(small_spec, CpuStall(cpu=0, start=1.0, end=4.0))
        )
        assert outcome.faulted
        assert "ab_isolation" in outcome.violation_counts()
        # The synthetic hog itself is exempt; only real jobs are flagged.
        assert all(
            v.task is None or v.task < FAULT_TASK_BASE_ID
            for v in outcome.violations
        )

    def test_stall_cpu_out_of_range(self, small_spec, make_cell):
        with pytest.raises(ValueError, match="out of range"):
            run_cell(make_cell(small_spec, CpuStall(cpu=7, start=1.0, end=2.0)))


class TestExecutionSpike:
    def test_level_a_spike_breaks_isolation(self, small_spec, make_cell):
        outcome = run_cell(
            make_cell(
                small_spec,
                ExecutionSpike(0.0, HORIZON, factor=8.0, level="A"),
            )
        )
        assert "ab_isolation" in outcome.violation_counts()

    def test_spike_is_seed_deterministic(self, small_spec, make_cell):
        cell = make_cell(
            small_spec,
            ExecutionSpike(0.0, HORIZON, factor=2.0, prob=0.5, level="C"),
        )
        assert run_cell(cell).fingerprint == run_cell(cell).fingerprint


class TestMonitorOutage:
    def test_total_drop_blinds_the_monitor(self, small_spec, baseline, make_cell):
        outcome = run_cell(
            make_cell(small_spec, MonitorOutage(0.0, HORIZON, mode="drop"))
        )
        # The monitor never hears a completion, so it never confirms an
        # overload: no recovery episodes despite the baseline having some.
        assert baseline.result.episodes >= 1
        assert outcome.episodes == 0
        assert outcome.min_speed == 1.0

    def test_queue_mode_delivers_backlog(self, small_spec, baseline, make_cell):
        outcome = run_cell(
            make_cell(small_spec, MonitorOutage(0.5, 1.5, mode="queue"))
        )
        # The backlog arrives at the window end; the run still completes
        # and differs from the baseline (notifications arrived late).
        assert outcome.sim_end > 0
        assert outcome.fingerprint != _digest(baseline)

    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_flushed_backlog_changes_speed_at_delivery(self, backend):
        """A restore detected inside a queued outage takes effect when the
        backlog is delivered at the window end.  Backdating it to the
        completion instant re-armed level-C releases in the past, and the
        kernel raised ``cannot schedule RELEASE``."""
        cell = build_campaign(CampaignConfig(seed=5, cells=6, tasksets=2))[1]
        (outage,) = [f for f in cell.plan.faults if isinstance(f, MonitorOutage)]
        assert outage.mode == "queue"
        spec = replace(cell.run, kernel=replace(cell.run.kernel, backend=backend))
        out = _run(spec.taskset.materialize(), spec, FaultPlane(cell.plan))
        detected, speed = out.monitor.speed_requests[1]
        assert outage.start <= detected < outage.end and speed == 1.0
        assert out.monitor.episodes[0].end == detected
        assert out.trace.speed_changes[1] == (outage.end, 1.0)
        assert out.result.episodes == 2


class TestSpeedCommandDrop:
    def test_dropped_restore_leaves_clock_stuck_slow(
        self, small_spec, small_ts, baseline, make_cell
    ):
        # Window opens just after the first slowdown is applied, so the
        # slowdown lands but every later command (incl. restore) is lost.
        t_slow = baseline.trace.speed_changes[0][0]
        outcome = run_cell(
            make_cell(small_spec, SpeedCommandDrop(t_slow + 1e-6, HORIZON))
        )
        counts = outcome.violation_counts()
        assert "recovery_closure" in counts
        assert outcome.min_speed < 1.0


class TestClockSkew:
    def test_requires_virtual_clock(self, small_spec, make_cell):
        spec = replace(
            small_spec,
            monitor=MonitorSpec("none", None),
            kernel=KernelSpec(use_virtual_time=False, record_intervals=True),
        )
        with pytest.raises(ValueError, match="use_virtual_time"):
            run_cell(make_cell(spec, ClockSkew(0.0, HORIZON, magnitude=0.01)))

    def test_skew_perturbs_the_run_deterministically(self, small_spec, baseline, make_cell):
        cell = make_cell(small_spec, ClockSkew(0.0, HORIZON, magnitude=0.05))
        a = run_cell(cell)
        assert a.fingerprint != _digest(baseline)
        assert a.fingerprint == run_cell(cell).fingerprint


class TestReleaseJitter:
    def test_jitter_perturbs_the_run_deterministically(self, small_spec, baseline, make_cell):
        cell = make_cell(small_spec, ReleaseJitter(0.0, HORIZON, magnitude=0.02))
        a = run_cell(cell)
        assert a.fingerprint != _digest(baseline)
        assert a.fingerprint == run_cell(cell).fingerprint


class TestInstallRules:
    def test_plane_is_single_use(self, small_ts, small_spec):
        plane = FaultPlane(
            FaultPlan(faults=(CpuStall(cpu=0, start=1.0, end=2.0),))
        )
        out = _run(small_ts, small_spec, plane=plane)
        with pytest.raises(RuntimeError, match="single-use"):
            plane.install(out.kernel, out.monitor)


class TestTraceEvents:
    def test_fault_events_are_emitted_when_tracing(self, small_spec, tmp_path, make_cell):
        spec = replace(small_spec, obs=ObsSpec(trace_dir=str(tmp_path)))
        cell = make_cell(
            spec,
            CpuStall(cpu=0, start=1.0, end=2.0),
            MonitorOutage(0.5, 1.5, mode="drop"),
        )
        run_cell(cell)
        (trace_file,) = tmp_path.glob("cell-*.jsonl")
        events = [
            json.loads(line) for line in trace_file.read_text().splitlines()
        ]
        kinds = {e.get("fault") for e in events if e.get("ev") == "fault_inject"}
        assert kinds == {"cpu_stall", "monitor_outage"}
        # The stream meta ties the trace back to the campaign cell.
        assert events[0]["cell_key"] == cell.key()

    def test_obs_spec_does_not_change_cell_identity(self, small_spec, tmp_path, make_cell):
        fault = CpuStall(cpu=0, start=1.0, end=2.0)
        plain = make_cell(small_spec, fault)
        traced = make_cell(
            replace(small_spec, obs=ObsSpec(trace_dir=str(tmp_path))), fault
        )
        assert plain.key() == traced.key()
