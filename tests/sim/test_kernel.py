"""Tests for the MC² kernel (repro.sim.kernel)."""

import pytest

from repro.core.monitor import NullMonitor, SimpleMonitor
from repro.model.behavior import TraceBehavior
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.kernel import KernelConfig, MC2Kernel, simulate
from tests.conftest import make_a_task, make_b_task, make_c_task


def kernel_for(tasks, m, behavior=None, **cfg):
    ts = TaskSet(tasks, m=m)
    return MC2Kernel(ts, behavior=behavior,
                     config=KernelConfig(record_intervals=True, **cfg))


class TestBasicExecution:
    def test_single_task_periodic_execution(self):
        k = kernel_for([make_c_task(0, 4.0, 1.0, y=3.0)], m=1)
        trace = k.run(12.0)
        recs = trace.jobs_of(0)
        assert [r.release for r in recs] == [0.0, 4.0, 8.0, 12.0]
        done = [r for r in recs if r.completion is not None]
        assert [r.completion for r in done] == [1.0, 5.0, 9.0]
        assert all(r.response_time == 1.0 for r in done)

    def test_virtual_pps_recorded(self):
        k = kernel_for([make_c_task(0, 4.0, 1.0, y=3.0)], m=1)
        trace = k.run(8.0)
        r0 = trace.job(0, 0)
        assert r0.virtual_release == 0.0
        assert r0.virtual_pp == 3.0

    def test_job_completing_before_pp_has_no_actual_pp(self):
        """Fig. 5(b): t^c <= y leaves y unresolved (bottom)."""
        k = kernel_for([make_c_task(0, 4.0, 1.0, y=3.0)], m=1)
        trace = k.run(8.0)
        assert trace.job(0, 0).actual_pp is None

    def test_late_job_gets_actual_pp_at_completion(self):
        """Fig. 5(d): PP passes with no speed change; resolved at t^c."""
        k = kernel_for(
            [make_c_task(0, 4.0, 1.0, y=3.0)],
            m=1,
            behavior=TraceBehavior({(0, 0): 3.5}),
        )
        trace = k.run(8.0)
        r0 = trace.job(0, 0)
        assert r0.completion == 3.5
        assert r0.actual_pp == pytest.approx(3.0)

    def test_two_cpus_run_in_parallel(self):
        k = kernel_for(
            [make_c_task(0, 4.0, 2.0, y=3.0), make_c_task(1, 4.0, 2.0, y=3.0)],
            m=2,
        )
        trace = k.run(4.0)
        assert trace.job(0, 0).completion == 2.0
        assert trace.job(1, 0).completion == 2.0


class TestGELPriorities:
    def test_earlier_virtual_pp_preempts(self):
        # tau0 releases at 1 with PP 2; tau1 (PP 11) is running: preempt.
        t0 = make_c_task(0, 10.0, 1.0, y=1.0, phase=1.0)
        t1 = make_c_task(1, 12.0, 5.0, y=11.0)
        k = kernel_for([t0, t1], m=1)
        trace = k.run(12.0)
        assert trace.job(0, 0).completion == pytest.approx(2.0)
        assert trace.job(1, 0).completion == pytest.approx(6.0)
        ivs = trace.intervals_of(1, 0)
        assert len(ivs) == 2  # tau1 was preempted once

    def test_ties_do_not_cause_thrashing(self):
        # Two equal-PP tasks on one CPU: deterministic id order.
        t0 = make_c_task(0, 10.0, 2.0, y=5.0)
        t1 = make_c_task(1, 10.0, 2.0, y=5.0)
        k = kernel_for([t0, t1], m=1)
        trace = k.run(10.0)
        assert trace.job(0, 0).completion == 2.0
        assert trace.job(1, 0).completion == 4.0


class TestIntraTaskPrecedence:
    def test_successor_waits_for_predecessor(self):
        """A backlogged task must not run two jobs in parallel (Fig. 3)."""
        t = make_c_task(0, 2.0, 1.0, y=2.0)
        k = kernel_for([t], m=2, behavior=TraceBehavior({(0, 0): 5.0}))
        trace = k.run(10.0)
        assert trace.job(0, 0).completion == 5.0
        # Job 1 (released at 2) could have run on the idle second CPU but
        # must wait for job 0.
        assert trace.job(0, 1).completion == pytest.approx(6.0)
        for iv1 in trace.intervals_of(0, 0):
            for iv2 in trace.intervals_of(0, 1):
                assert iv1.end <= iv2.start or iv2.end <= iv1.start


class TestCriticalityLayering:
    def test_level_a_preempts_c(self):
        a = make_a_task(10, 10.0, 2.0, cpu=0)  # runs 2.0 at level-C PWCET
        c = make_c_task(0, 10.0, 3.0, y=5.0)
        k = kernel_for([a, c], m=1)
        trace = k.run(10.0)
        assert trace.job(10, 0).completion == 2.0  # A first
        assert trace.job(0, 0).completion == 5.0

    def test_level_b_preempts_c_but_not_a(self):
        a = make_a_task(10, 10.0, 1.0, cpu=0)
        b = make_b_task(20, 10.0, 1.0, cpu=0)
        c = make_c_task(0, 10.0, 1.0, y=5.0)
        k = kernel_for([a, b, c], m=1)
        trace = k.run(10.0)
        assert trace.job(10, 0).completion == 1.0
        assert trace.job(20, 0).completion == 2.0
        assert trace.job(0, 0).completion == 3.0

    def test_level_b_edf_order_within_cpu(self):
        b1 = make_b_task(20, 30.0, 1.0, cpu=0)  # deadline 30
        b2 = make_b_task(21, 10.0, 1.0, cpu=0)  # deadline 10: first
        k = kernel_for([b1, b2], m=1)
        trace = k.run(10.0)
        assert trace.job(21, 0).completion == 1.0
        assert trace.job(20, 0).completion == 2.0

    def test_level_a_partitioned_to_its_cpu(self):
        a = make_a_task(10, 10.0, 2.0, cpu=1)
        c = make_c_task(0, 10.0, 4.0, y=5.0)
        k = kernel_for([a, c], m=2)
        trace = k.run(10.0)
        # C runs on CPU 0 unobstructed; A occupies CPU 1.
        assert trace.job(0, 0).completion == 4.0
        assert {iv.cpu for iv in trace.intervals_of(10)} == {1}

    def test_level_d_runs_only_on_leftover(self):
        c = make_c_task(0, 10.0, 4.0, y=5.0)
        d = Task(task_id=30, level=L.D, period=10.0, pwcets={L.D: 2.0})
        k = kernel_for([c, d], m=1)
        trace = k.run(10.0)
        assert trace.job(0, 0).completion == 4.0
        assert trace.job(30, 0).completion == 6.0


class TestVirtualTimeInKernel:
    def test_change_speed_stretches_releases(self):
        t = make_c_task(0, 4.0, 1.0, y=3.0)
        k = kernel_for([t], m=1)
        k.start()
        k.run_until(4.5)  # jobs 0 (at 0) and 1 (at 4) released
        k.change_speed(0.5)
        k.run_until(20.0)
        k.finish()
        recs = k.trace.jobs_of(0)
        # v(4.5) = 4.5; next release needs v = 8 => actual 4.5 + 3.5/0.5 = 11.5.
        assert recs[2].release == pytest.approx(11.5)

    def test_change_speed_actualizes_passed_pps(self):
        """Fig. 5(c): PP passed in virtual time before a speed change."""
        t = make_c_task(0, 10.0, 6.0, y=2.0)
        k = kernel_for([t], m=1)
        k.start()
        k.run_until(5.0)  # PP (v=2) already passed; job still running
        k.change_speed(0.5)
        k.run_until(10.0)
        k.finish()
        r0 = k.trace.job(0, 0)
        assert r0.actual_pp == pytest.approx(2.0)  # resolved on the old segment

    def test_monitor_change_speed_round_trip(self):
        """SIMPLE monitor slows on a miss and restores speed at recovery."""
        t = make_c_task(0, 4.0, 1.0, y=1.0, tolerance=0.5)
        ts = TaskSet([t], m=1)
        kernel = MC2Kernel(ts, behavior=TraceBehavior({(0, 0): 3.0}),
                           config=KernelConfig())
        mon = SimpleMonitor(kernel, s=0.5)
        kernel.attach_monitor(mon)
        kernel.run(20.0)
        assert kernel.trace.speed_changes[0][1] == 0.5
        assert kernel.trace.speed_changes[-1][1] == 1.0
        assert not mon.recovery_mode
        assert isinstance(kernel.clock.speed, float) and kernel.clock.speed == 1.0

    def test_virtual_time_disabled_is_plain_gel(self):
        t = make_c_task(0, 4.0, 1.0, y=3.0)
        k = kernel_for([t], m=1, use_virtual_time=False)
        trace = k.run(8.0)
        assert trace.job(0, 0).completion == 1.0
        with pytest.raises(RuntimeError, match="use_virtual_time"):
            k.change_speed(0.5)

    def test_disabled_mode_rejects_active_monitor(self):
        ts = TaskSet([make_c_task(0, 4.0, 1.0, y=3.0, tolerance=1.0)], m=1)
        k = MC2Kernel(ts, config=KernelConfig(use_virtual_time=False))
        with pytest.raises(ValueError, match="NullMonitor"):
            k.attach_monitor(SimpleMonitor(k, s=0.5))
        k.attach_monitor(NullMonitor(k))  # fine


class TestMonitorPlumbing:
    def test_queue_empty_reported_correctly(self):
        """Captured reports carry the ready-queue state at completion."""
        reports = []

        class Spy(NullMonitor):
            def on_job_complete(self, report):
                reports.append(report)
                super().on_job_complete(report)

        # Two tasks on one CPU: when tau0's job completes, tau1's is ready.
        ts = TaskSet(
            [make_c_task(0, 10.0, 1.0, y=1.0), make_c_task(1, 10.0, 1.0, y=9.0)],
            m=1,
        )
        k = MC2Kernel(ts)
        k.attach_monitor(Spy(k))
        k.run(5.0)
        first = next(r for r in reports if r.jid == (0, 0))
        second = next(r for r in reports if r.jid == (1, 0))
        assert not first.queue_empty
        assert second.queue_empty

    def test_monitor_latency_defers_reports(self):
        seen_at = []

        class Spy(NullMonitor):
            def __init__(self, kernel):
                super().__init__(kernel)
                self.kernel = kernel

            def on_job_complete(self, report):
                seen_at.append((report.comp_time, self.kernel.engine.now))
                super().on_job_complete(report)

        ts = TaskSet([make_c_task(0, 4.0, 1.0, y=3.0)], m=1)
        k = MC2Kernel(ts, config=KernelConfig(monitor_latency=0.25))
        k.attach_monitor(Spy(k))
        k.run(4.0)
        comp, seen = seen_at[0]
        assert comp == 1.0
        assert seen == pytest.approx(1.25)


class TestOverheadMeasurement:
    def test_samples_collected_when_enabled(self):
        k = kernel_for([make_c_task(0, 4.0, 1.0, y=3.0)], m=1,
                       measure_overhead=True)
        k.run(8.0)
        assert len(k.sched_overheads) > 0
        assert all(isinstance(x, int) and x >= 0 for x in k.sched_overheads)

    def test_no_samples_by_default(self):
        k = kernel_for([make_c_task(0, 4.0, 1.0, y=3.0)], m=1)
        k.run(8.0)
        assert k.sched_overheads == []


class TestLifecycle:
    def test_finish_snapshots_incomplete_jobs(self):
        k = kernel_for([make_c_task(0, 10.0, 5.0, y=5.0)], m=1)
        trace = k.run(2.0)
        recs = trace.jobs_of(0)
        assert len(recs) == 1
        assert recs[0].completion is None

    def test_cannot_resume_after_finish(self):
        k = kernel_for([make_c_task(0, 10.0, 1.0, y=5.0)], m=1)
        k.run(2.0)
        with pytest.raises(RuntimeError, match="finished"):
            k.run_until(5.0)

    def test_attach_monitor_after_start_rejected(self):
        k = kernel_for([make_c_task(0, 10.0, 1.0, y=5.0)], m=1)
        k.start()
        with pytest.raises(RuntimeError, match="before"):
            k.attach_monitor(NullMonitor(k))

    def test_simulate_wrapper(self):
        ts = TaskSet([make_c_task(0, 4.0, 1.0, y=3.0, tolerance=5.0)], m=1)
        trace, kernel, monitor = simulate(ts, until=8.0)
        assert isinstance(monitor, NullMonitor)
        assert trace.job(0, 0).completion == 1.0
        assert kernel.now == 8.0


class TestZeroDemandJobs:
    def test_level_d_without_pwcets_completes_instantly(self):
        d = Task(task_id=30, level=L.D, period=5.0)
        k = kernel_for([d], m=1)
        trace = k.run(10.0)
        recs = [r for r in trace.jobs_of(30) if r.completion is not None]
        assert all(r.response_time == 0.0 for r in recs)
