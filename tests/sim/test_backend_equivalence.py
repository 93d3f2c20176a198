"""Differential equivalence: struct-of-arrays backend vs reference kernel.

The ``"soa"`` backend (:mod:`repro.sim.soa`) is an independent
re-implementation of the simulator core on flat arrays; its contract is
*byte-identical traces* — the same job records, intervals, speed
changes, counters, and event counts as :class:`~repro.sim.kernel.MC2Kernel`
on every input.  Every reference run here also has each of its
dispatches checked against the per-level policies
(:func:`repro.sim.diffcheck.check_dispatches`).  These tests compare
the backends over hand-built task sets, hand-picked and 200 randomized
:class:`~repro.sim.diffcheck.DiffScenario` cases
(:func:`repro.sim.diffcheck.compare_backends`), randomized cases with
fault plans injected through the kernel seam, show that the dispatch
check fires, and pin the cache-key separation that keeps backends
honest in the result cache.
"""

from dataclasses import replace
from operator import attrgetter

import pytest

from repro.core.monitor import NullMonitor, SimpleMonitor
from repro.faults.spec import random_plan
from repro.model.behavior import ConstantBehavior, TraceBehavior
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.runtime.spec import KernelSpec, MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.sim.backend import create_kernel, kernel_backend_registry
from repro.sim.diffcheck import (
    DiffScenario,
    ZeroDemandEvery,
    build_kernel,
    check_dispatches,
    check_many,
    compare_backends,
    fingerprint,
    random_scenarios,
    run_backend,
)
from repro.sim.kernel import KernelConfig, MC2Kernel
from repro.sim.soa import SoAKernel
from repro.workload.scenarios import DOUBLE, LONG, SHORT
from tests.conftest import make_a_task, make_b_task, make_c_task

#: Each overload scenario's last window end: where random fault plans bite.
_END = {s.name: s.last_overload_end for s in (SHORT, LONG, DOUBLE)}


def fingerprints(make_taskset, behavior_factory, horizon, monitor=None, **cfg):
    """Run a hand-built scenario on both backends, checking every
    reference dispatch; return the (reference, soa) fingerprints."""
    out = []
    for backend in ("reference", "soa"):
        kernel = create_kernel(
            make_taskset(),
            behavior=behavior_factory(),
            config=KernelConfig(backend=backend, **cfg),
        )
        if backend == "reference":
            check_dispatches(kernel)
        mon = NullMonitor(kernel) if monitor is None else monitor(kernel)
        kernel.attach_monitor(mon)
        trace = kernel.run(horizon)
        out.append(fingerprint(trace, kernel, mon))
    return out


def d_task(tid, period, exec_time, phase=0.0):
    return Task(task_id=tid, level=L.D, period=period,
                pwcets={L.D: exec_time}, phase=phase)


class TestBackendConfig:
    def test_registry_has_both_builtins(self):
        assert {"reference", "soa"} <= set(kernel_backend_registry.keys())

    def test_default_is_reference(self):
        assert KernelConfig().backend == "reference"
        assert KernelSpec().backend == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="kernel backend"):
            KernelSpec(backend="simd")

    def test_create_kernel_dispatches_on_backend(self):
        from tests.conftest import make_c_task
        from repro.model.taskset import TaskSet

        ts = TaskSet([make_c_task(0, 4.0, 1.0)], m=1)
        ref = create_kernel(ts, config=KernelConfig(backend="reference"))
        soa = create_kernel(ts, config=KernelConfig(backend="soa"))
        assert isinstance(ref, MC2Kernel)
        assert isinstance(soa, SoAKernel)


class TestHandBuiltTaskSets:
    """Hand-built task sets for the dispatchers' same-instant corners."""

    def test_harmonic_same_instant_ties(self):
        """Harmonic periods: releases, PPs and completions pile onto the
        same instants; tie-breaks must match exactly."""

        def ts():
            return TaskSet(
                [
                    make_c_task(0, 2.0, 0.5, y=1.5),
                    make_c_task(1, 2.0, 0.5, y=1.5),  # identical twin of 0
                    make_c_task(2, 4.0, 1.0, y=3.0),
                    make_c_task(3, 8.0, 2.0, y=6.0),
                ],
                m=2,
            )

        ref, soa = fingerprints(ts, ConstantBehavior, 64.0, record_intervals=True)
        assert ref == soa

    def test_all_levels_and_level_d(self):
        """A/B partitions + global C + best-effort D in one platform."""

        def ts():
            return TaskSet(
                [
                    make_a_task(10, 4.0, 0.05, cpu=0),
                    make_a_task(11, 8.0, 0.1, cpu=1),
                    make_b_task(20, 6.0, 0.1, cpu=0),
                    make_b_task(21, 12.0, 0.2, cpu=1),
                    make_c_task(0, 4.0, 1.0, y=3.0),
                    make_c_task(1, 6.0, 2.0, y=5.0),
                    make_c_task(2, 10.0, 3.0, y=8.0),
                    d_task(30, 3.0, 1.0),
                    d_task(31, 5.0, 2.0, phase=0.5),
                ],
                m=2,
            )

        ref, soa = fingerprints(ts, ConstantBehavior, 120.0, record_intervals=True)
        assert ref == soa

    def test_zero_exec_jobs_complete_at_release(self):
        """Zero-demand jobs complete at their own release instant; the
        successor job becomes the head immediately."""

        def ts():
            return TaskSet(
                [make_c_task(0, 2.0, 0.5, y=1.5), make_c_task(1, 3.0, 1.0, y=2.0)],
                m=1,
            )

        ref, soa = fingerprints(
            ts,
            lambda: ZeroDemandEvery(ConstantBehavior(), every=2),
            48.0,
            record_intervals=True,
        )
        assert ref == soa
        # Sanity: the wrapper really produced zero-demand jobs.
        assert any(j[4] == 0.0 for j in ref["jobs"])

    def test_consecutive_zero_exec_jobs(self):
        """A run of zero-demand jobs of one task at one instant."""

        def ts():
            return TaskSet([make_c_task(0, 1.0, 0.25), make_c_task(1, 4.0, 2.0)], m=1)

        def behavior():
            return TraceBehavior(
                overrides={(0, k): 0.0 for k in range(4, 12)},
                default=ConstantBehavior(),
            )

        ref, soa = fingerprints(ts, behavior, 20.0, record_intervals=True)
        assert ref == soa

    def test_overload_with_simple_recovery(self):
        """SVO recovery: speed changes, PP actualization, timer re-arming."""

        def overloading_c(tid, period, pwcet_c, y, tolerance):
            # Explicit level-B PWCET so SHORT's windows actually overrun
            # (the paper's 10x pessimism ratio).
            return Task(
                task_id=tid, level=L.C, period=period,
                pwcets={L.C: pwcet_c, L.B: 10.0 * pwcet_c},
                relative_pp=y, tolerance=tolerance,
            )

        def ts():
            return TaskSet(
                [
                    make_a_task(10, 4.0, 0.05, cpu=0),
                    make_b_task(20, 6.0, 0.1, cpu=0),
                    overloading_c(0, 4.0, 1.0, y=3.0, tolerance=2.0),
                    overloading_c(1, 6.0, 2.0, y=5.0, tolerance=3.0),
                ],
                m=1,
            )

        ref, soa = fingerprints(
            ts,
            SHORT.behavior,
            30.0,
            monitor=lambda k: SimpleMonitor(k, s=0.5),
            record_intervals=True,
        )
        assert ref == soa
        assert ref["speed_changes"], "scenario never triggered recovery"


class TestHandBuiltEquivalence:
    """Targeted scenarios for the SoA backend's trickiest paths."""

    def check(self, sc: DiffScenario):
        result = compare_backends(sc)
        assert result.equal, (
            f"backends diverged on {sc.label()}: {', '.join(result.mismatched)}"
        )

    def test_paper_overloads_simple(self):
        for behavior in ("SHORT", "LONG", "DOUBLE"):
            self.check(DiffScenario(seed=301, m=2, behavior=behavior,
                                    monitor="simple", monitor_arg=0.5))

    def test_paper_overloads_adaptive(self):
        for behavior in ("SHORT", "LONG", "DOUBLE"):
            self.check(DiffScenario(seed=302, m=2, behavior=behavior,
                                    monitor="adaptive", monitor_arg=0.5))

    def test_harmonic_ties_and_level_d(self):
        # Level-D pool eligibility is where dispatch non-idempotence
        # bites: a preempted D job regains eligibility only once its CPU
        # actually deschedules it, so skipping "no-op" dispatches
        # unsoundly is visible here.
        self.check(DiffScenario(seed=303, m=2, behavior="SHORT",
                                monitor="simple", monitor_arg=0.5,
                                level_d_tasks=2))

    def test_zero_demand_and_latency(self):
        self.check(DiffScenario(seed=304, m=2, behavior="DOUBLE",
                                monitor="adaptive", monitor_arg=0.5,
                                zero_every=3, monitor_latency=0.001))

    def test_actual_time_mode(self):
        self.check(DiffScenario(seed=305, m=2, behavior="constant",
                                monitor="null", use_virtual_time=False))

    def test_wide_platform_overrun(self):
        self.check(DiffScenario(seed=306, m=8, behavior="overrun",
                                monitor="simple", monitor_arg=0.5, horizon=1.0))


def assert_sweep_equivalent(scenarios, expected):
    checked, failures = check_many(scenarios)
    assert checked == expected
    assert not failures, "\n".join(
        f"[{', '.join(f.mismatched)}] {f.scenario.label()}" for f in failures
    )


class TestRandomizedSweep:
    """200 randomized scenarios through both backends, every reference
    dispatch checked: overload recovery, monitor latency, zero-demand
    jobs, level-D load, 2-8 CPUs, virtual time on and off.  The grid is
    split across two tests so that no scenario runs twice."""

    def test_randomized_scenarios_trace_equivalent(self):
        """Scenarios 0-119 of the grid."""
        assert_sweep_equivalent(random_scenarios(120, base_seed=2015), 120)

    def test_randomized_scenarios_120_to_199_trace_equivalent(self):
        """Scenarios 120-199 of the grid (the generator is prefix-stable:
        the first 120 of 200 are the 120 above)."""
        assert_sweep_equivalent(random_scenarios(200, base_seed=2015)[120:], 80)

    def test_sweep_covers_recovery_and_zero_exec(self):
        """The generated grid actually exercises the interesting axes."""
        scenarios = random_scenarios(200, base_seed=2015)
        assert any(s.monitor == "simple" for s in scenarios)
        assert any(s.monitor == "adaptive" for s in scenarios)
        assert any(s.behavior in ("SHORT", "LONG", "DOUBLE") for s in scenarios)
        assert any(s.zero_every for s in scenarios)
        assert any(s.level_d_tasks for s in scenarios)
        assert any(s.monitor_latency > 0 for s in scenarios)
        assert any(not s.use_virtual_time for s in scenarios)
        assert any(s.m == 8 for s in scenarios)

    def test_faulted_scenarios_trace_equivalent(self):
        """Grid scenarios with a random fault plan, injected through the
        kernel seam on both backends (clock skew needs virtual time, so
        the baseline-mode scenarios are left out)."""
        scenarios = [
            replace(
                sc,
                faults=random_plan(
                    seed=i, m=sc.m, anchor=_END.get(sc.behavior, 1.0), horizon=sc.horizon
                ),
            )
            for i, sc in enumerate(random_scenarios(30, base_seed=16))
            if sc.use_virtual_time
        ]
        assert any(sc.level_d_tasks for sc in scenarios)
        assert_sweep_equivalent(scenarios, len(scenarios))

    def test_compare_reports_mismatch_fields(self):
        """A genuinely different pair of runs is reported, not masked."""
        sc = DiffScenario(seed=2015, behavior="SHORT", monitor="simple")
        a = run_backend(sc, "reference")
        # A different task set => a different fingerprint; the comparator
        # diffs dicts field by field the same way.
        b = run_backend(DiffScenario(seed=2016, behavior="SHORT", monitor="simple"), "soa")
        assert a != b
        result = compare_backends(sc)
        assert result.equal and not result.mismatched


class TestDispatchCheck:
    def test_check_fails_the_run_at_the_first_wrong_dispatch(self, monkeypatch):
        """A level-C ready list that skips its best head is caught at the
        first dispatch that reads it, before that assignment is applied."""
        wrong = []

        def skip_best_head(self, k):
            wrong.append(self.now)
            return [entry[3] for entry in self._ready_c[1 : k + 1]]

        monkeypatch.setattr(MC2Kernel, "_top_ready_c", skip_best_head)
        sc = DiffScenario(seed=2015, behavior="SHORT", monitor="simple")
        with pytest.raises(AssertionError, match="the policies select") as err:
            compare_backends(sc)
        assert str(err.value).startswith(f"t={wrong[0]}: ")
        assert 0 < wrong[0] < sc.horizon


class TestPendingReleasedBefore:
    """The settle query reads only the first pending level-C job; at every
    event it must agree with a scan of the whole pool."""

    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_first_pending_job_answers_for_the_pool(self, backend):
        for sc in random_scenarios(12, base_seed=2015):
            kernel, _ = build_kernel(sc, backend)
            released = (
                kernel.j_rel.__getitem__ if backend == "soa" else attrgetter("release")
            )
            events = [0]

            def stop():
                for end in (0.0, sc.horizon / 4, sc.horizon / 2, kernel.now, sc.horizon):
                    scan = any(released(j) < end for j in kernel.jobs_c)
                    assert kernel.pending_c_released_before(end) == scan, (
                        f"end={end} at t={kernel.now} on {sc.label()}"
                    )
                events[0] += 1
                return False

            kernel.run(sc.horizon, stop=stop)
            assert events[0] == kernel.events_processed


class TestCacheKeySeparation:
    """Backends must never collide in the content-addressed result cache."""

    def spec(self, backend: str) -> RunSpec:
        return RunSpec(
            taskset=TaskSetSpec.generated(2015),
            scenario=ScenarioSpec(name="single", windows=((1.0, 2.0),)),
            monitor=MonitorSpec(kind="simple", param=0.6),
            kernel=KernelSpec(backend=backend),
            horizon=6.0,
        )

    def test_backend_changes_spec_key(self):
        assert self.spec("reference").key() != self.spec("soa").key()

    def test_reference_key_matches_pre_backend_format(self):
        # The default backend is omitted from the canonical JSON, so
        # caches populated before the backend field existed stay valid.
        assert '"backend"' not in self.spec("reference").canonical_json()
        assert '"backend":"soa"' in self.spec("soa").canonical_json()

    def test_round_trip_preserves_backend(self):
        from repro.io.runspec_json import runspec_from_dict, runspec_to_dict

        for backend in ("reference", "soa"):
            spec = self.spec(backend)
            assert runspec_from_dict(runspec_to_dict(spec)) == spec
