"""Tests for the experiment runner (repro.experiments.runner)."""

import gc

import pytest

from repro.core.monitor import AdaptiveMonitor, NullMonitor, SimpleMonitor
from repro.core.virtual_time import VirtualClock
from repro.experiments.runner import ExperimentOutput, MonitorSpec, run_overload_experiment
from repro.experiments.traffic import mmpp_traffic
from repro.faults.plane import FaultPlane
from repro.faults.spec import ClockSkew, FaultPlan
from repro.sim.kernel import KernelConfig, MC2Kernel
from repro.sim.soa import SoAKernel
from repro.workload.generator import GeneratorParams, generate_taskset
from repro.workload.scenarios import CALM, DOUBLE, SHORT

# A small platform keeps these tests fast.
PARAMS = GeneratorParams(m=2)


@pytest.fixture(scope="module")
def small_ts():
    return generate_taskset(seed=5, params=PARAMS)


class TestMonitorSpec:
    def test_labels(self):
        assert MonitorSpec("simple", 0.6).label == "SIMPLE(s=0.6)"
        assert MonitorSpec("adaptive", 0.2).label == "ADAPTIVE(a=0.2)"
        assert MonitorSpec("none").label == "NONE"

    def test_build_types(self):
        k = MC2Kernel(generate_taskset(1, PARAMS))
        assert isinstance(MonitorSpec("simple", 0.5).build(k), SimpleMonitor)
        assert isinstance(MonitorSpec("adaptive", 0.5).build(k), AdaptiveMonitor)
        assert isinstance(MonitorSpec("none").build(k), NullMonitor)

    def test_validation(self):
        with pytest.raises(ValueError):
            MonitorSpec("weird")
        with pytest.raises(ValueError):
            MonitorSpec("simple", 0.0)
        with pytest.raises(ValueError):
            MonitorSpec("simple", 1.2)


class TestRunOverloadExperiment:
    def test_basic_run_produces_metrics(self, small_ts):
        r = run_overload_experiment(small_ts, SHORT, MonitorSpec("simple", 0.6))
        assert r.scenario == "SHORT"
        assert r.monitor == "SIMPLE(s=0.6)"
        assert r.dissipation > 0
        assert not r.truncated
        assert r.miss_count > 0
        assert r.min_speed == pytest.approx(0.6)

    def test_recovery_completes_before_horizon(self, small_ts):
        r = run_overload_experiment(small_ts, SHORT, MonitorSpec("simple", 0.4))
        assert r.sim_end < 30.0

    def test_keep_artifacts_returns_output(self, small_ts):
        out = run_overload_experiment(
            small_ts, SHORT, MonitorSpec("simple", 0.6), keep_artifacts=True
        )
        assert isinstance(out, ExperimentOutput)
        assert out.result.dissipation > 0
        assert out.kernel.now == out.result.sim_end
        assert not out.monitor.recovery_mode

    def test_requires_tolerances(self):
        ts = generate_taskset(1, GeneratorParams(m=2, assign_tolerances=False))
        with pytest.raises(ValueError, match="tolerance"):
            run_overload_experiment(ts, SHORT, MonitorSpec("simple", 0.6))

    def test_adaptive_min_speed_below_a(self, small_ts):
        r = run_overload_experiment(small_ts, SHORT, MonitorSpec("adaptive", 0.6))
        assert r.min_speed < 0.6

    def test_smaller_s_recovers_faster(self, small_ts):
        fast = run_overload_experiment(small_ts, SHORT, MonitorSpec("simple", 0.2))
        slow = run_overload_experiment(small_ts, SHORT, MonitorSpec("simple", 1.0))
        assert fast.dissipation < slow.dissipation

    def test_double_dissipation_measured_from_second_window(self, small_ts):
        r = run_overload_experiment(small_ts, DOUBLE, MonitorSpec("simple", 0.4))
        # dissipation is relative to t = 2.0 (end of the second window).
        assert r.sim_end > 2.0
        assert r.dissipation < r.sim_end

    def test_no_budget_variant_is_harsher(self, small_ts):
        with_b = run_overload_experiment(
            small_ts, SHORT, MonitorSpec("simple", 0.6), level_c_budgets=True
        )
        without = run_overload_experiment(
            small_ts, SHORT, MonitorSpec("simple", 0.6),
            level_c_budgets=False, horizon=60.0,
        )
        assert without.dissipation > with_b.dissipation

    def test_deterministic(self, small_ts):
        a = run_overload_experiment(small_ts, SHORT, MonitorSpec("simple", 0.6))
        b = run_overload_experiment(small_ts, SHORT, MonitorSpec("simple", 0.6))
        assert a == b

    def test_finished_run_leaves_no_reference_cycle(self, small_ts):
        # On the soa kernel, reference counting alone frees the kernel,
        # the trace and the behaviours when a run returns: the cyclic
        # collector finds nothing left of it.
        config = KernelConfig(backend="soa")
        traffic = mmpp_traffic(0.3, 2, seed=7)
        run = lambda: run_overload_experiment(  # noqa: E731
            small_ts, CALM, MonitorSpec("simple", 0.6), config=config, traffic=traffic
        )
        run()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


def literal_settled(kernel, monitor, end) -> bool:
    """The settle predicate as first written: every part read afresh."""
    if kernel.now <= end:
        return False
    if monitor.recovery_mode:
        return False
    if isinstance(kernel.clock, VirtualClock) and not kernel.clock.is_normal_speed:
        return False
    return not kernel.pending_c_released_before(end)


#: name -> (scenario, monitor, use_virtual_time, fault plan, traffic)
SETTLE_CASES = {
    "simple-short": (SHORT, MonitorSpec("simple", 0.6), True, None, None),
    "adaptive-double": (DOUBLE, MonitorSpec("adaptive", 0.6), True, None, None),
    "no-virtual-time": (SHORT, MonitorSpec("none", None), False, None, None),
    "clock-skew": (
        SHORT, MonitorSpec("simple", 0.6), True,
        FaultPlan((ClockSkew(0.2, 3.0, magnitude=0.01),), seed=1), None,
    ),
    "traffic-burst": (CALM, MonitorSpec("simple", 0.6), True, None, mmpp_traffic(0.3, 2, seed=7)),
}


class TestSettleCheck:
    """The runner's settle check latches its monotone parts and resolves
    the clock once; after every event it must still answer what the
    literal predicate answers."""

    @pytest.mark.parametrize("backend", ["reference", "soa"])
    @pytest.mark.parametrize("case", sorted(SETTLE_CASES))
    def test_latched_check_equals_literal_predicate(
        self, small_ts, backend, case, monkeypatch
    ):
        scenario, spec, vt, plan, traffic = SETTLE_CASES[case]
        horizon = 30.0
        end = scenario.last_overload_end
        if traffic is not None:
            end = max(end, traffic.last_burst_end(horizon))
        cls = SoAKernel if backend == "soa" else MC2Kernel
        attach, run_until = cls.attach_monitor, cls.run_until
        seen = {"monitor": None, "segments": 0, "checks": 0, "settled": 0}

        def attach_monitor(kernel, monitor):
            seen["monitor"] = monitor
            attach(kernel, monitor)

        def checked_run_until(kernel, until, stop=None):
            # The runner alternates settled() and `not settled()` segments.
            negated = seen["segments"] % 2 == 1
            seen["segments"] += 1

            def check():
                got = stop()
                want = literal_settled(kernel, seen["monitor"], end)
                assert got == (not want if negated else want), (
                    f"t={kernel.now} segment={seen['segments']}"
                )
                seen["checks"] += 1
                seen["settled"] += want
                return got

            return run_until(kernel, until, check)

        monkeypatch.setattr(cls, "attach_monitor", attach_monitor)
        monkeypatch.setattr(cls, "run_until", checked_run_until)
        out = run_overload_experiment(
            small_ts, scenario, spec, horizon=horizon,
            config=KernelConfig(use_virtual_time=vt, backend=backend),
            keep_artifacts=True,
            fault_plane=FaultPlane(plan) if plan is not None else None,
            traffic=traffic,
        )
        assert seen["checks"] == out.kernel.events_processed
        assert seen["settled"] > 0  # the latched parts were reached
