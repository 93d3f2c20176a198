"""Differential equivalence: struct-of-arrays backend vs reference kernel.

The ``"soa"`` backend (:mod:`repro.sim.soa`) is an independent
re-implementation of the simulator core on flat arrays; its contract is
*byte-identical traces* — the same job records, intervals, speed
changes, counters, and event counts as :class:`~repro.sim.kernel.MC2Kernel`
on every input.  These tests drive :func:`repro.sim.diffcheck.compare_backends`
over hand-built edge cases and a 120-scenario randomized sweep, and pin
the cache-key separation that keeps backends honest in the result cache.
"""

from operator import attrgetter

import pytest

from repro.runtime.spec import KernelSpec, MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.sim.backend import create_kernel, kernel_backend_registry
from repro.sim.diffcheck import (
    DiffScenario,
    build_kernel,
    check_many_backends,
    compare_backends,
    random_scenarios,
)
from repro.sim.kernel import KernelConfig, MC2Kernel
from repro.sim.soa import SoAKernel


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


class TestRandomizedSweep:
    def test_randomized_scenarios_trace_equivalent(self):
        """>= 120 randomized scenarios through both backends: overload
        recovery, monitor latency, zero-demand jobs, level-D load,
        2-8 CPUs, virtual time on and off."""
        checked, failures = check_many_backends(random_scenarios(120, base_seed=2015))
        assert checked >= 120
        assert not failures, "\n".join(
            f"[{', '.join(f.mismatched)}] {f.scenario.label()}" for f in failures
        )


class TestPendingReleasedBefore:
    """The settle query reads only the first pending level-C job; at every
    event it must agree with a scan of the whole pool."""

    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_first_pending_job_answers_for_the_pool(self, backend):
        for sc in random_scenarios(12, base_seed=2015):
            kernel, _ = build_kernel(sc, "incremental", backend)
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
