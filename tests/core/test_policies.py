"""Tests for the extension monitor policies (repro.core.policies)."""

import pytest

from repro.core.monitor import CompletionReport
from repro.core.policies import ClampedAdaptiveMonitor, SteppedRestoreMonitor
from tests.conftest import make_c_task


class FakeCtl:
    """Records speeds; the instants are in ``Monitor.speed_requests``."""

    def __init__(self):
        self.speeds = []

    def change_speed(self, s):
        self.speeds.append(s)


def report(task, k=0, release=0.0, pp=None, comp=1.0, queue_empty=False):
    return CompletionReport(task=task, job_index=k, release=release,
                            actual_pp=pp, comp_time=comp, queue_empty=queue_empty)


@pytest.fixture
def task():
    # Y = 3, xi = 2 => Y + xi = 5.
    return make_c_task(0, 4.0, 1.0, y=3.0, tolerance=2.0)


class TestClampedAdaptive:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClampedAdaptiveMonitor(FakeCtl(), a=0.0, floor=0.1)
        with pytest.raises(ValueError):
            ClampedAdaptiveMonitor(FakeCtl(), a=0.5, floor=1.5)

    def test_clamps_at_floor(self, task):
        ctl = FakeCtl()
        mon = ClampedAdaptiveMonitor(ctl, a=0.8, floor=0.3)
        mon.on_job_release((0, 0))
        # Unclamped ADAPTIVE would choose 0.8 * 5 / 100 = 0.04.
        mon.on_job_complete(report(task, release=0.0, pp=3.0, comp=100.0))
        assert mon.speed_requests == [(100.0, pytest.approx(0.3))]

    def test_behaves_like_adaptive_above_floor(self, task):
        ctl = FakeCtl()
        mon = ClampedAdaptiveMonitor(ctl, a=0.8, floor=0.1)
        mon.on_job_release((0, 0))
        # 0.8 * 5 / 10 = 0.4 > floor.
        mon.on_job_complete(report(task, release=0.0, pp=3.0, comp=10.0))
        assert mon.speed_requests == [(10.0, pytest.approx(0.4))]

    def test_zero_floor_is_plain_adaptive(self, task):
        from repro.core.monitor import AdaptiveMonitor

        ctl_a, ctl_c = FakeCtl(), FakeCtl()
        plain = AdaptiveMonitor(ctl_a, a=0.6)
        clamped = ClampedAdaptiveMonitor(ctl_c, a=0.6, floor=0.0)
        for mon in (plain, clamped):
            mon.on_job_release((0, 0))
            mon.on_job_complete(report(task, release=0.0, pp=3.0, comp=25.0))
        assert plain.speed_requests == clamped.speed_requests

    def test_ratchets_down_only(self, task):
        ctl = FakeCtl()
        mon = ClampedAdaptiveMonitor(ctl, a=0.8, floor=0.1)
        for k, comp in ((0, 10.0), (1, 11.0)):
            mon.on_job_release((0, k))
            mon.on_job_complete(report(task, k=k, release=comp - 10.0,
                                       pp=comp - 7.0, comp=comp))
        assert len(mon.speed_requests) == 1  # second (milder) miss: no change


class TestSteppedRestore:
    def test_validation(self):
        with pytest.raises(ValueError):
            SteppedRestoreMonitor(FakeCtl(), s=0.0)
        with pytest.raises(ValueError):
            SteppedRestoreMonitor(FakeCtl(), s=0.5, step_factor=1.0)

    def test_single_step_when_factor_reaches_one(self, task):
        """s = 0.6, factor 2: 1.2 >= 1, so it behaves like SIMPLE."""
        ctl = FakeCtl()
        mon = SteppedRestoreMonitor(ctl, s=0.6, step_factor=2.0)
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(task, pp=3.0, comp=6.0, queue_empty=True))
        # miss -> slow to 0.6; empty system -> exit straight to 1.
        assert mon.speed_requests == [(6.0, 0.6), (6.0, 1.0)]
        assert ctl.speeds == [0.6, 1.0]
        assert not mon.recovery_mode
        assert mon.episodes[-1].end == 6.0

    def test_intermediate_plateaus(self, task):
        """Each exit opportunity advances one plateau: a fresh idle normal
        instant is verified at every intermediate speed."""
        ctl = FakeCtl()
        mon = SteppedRestoreMonitor(ctl, s=0.25, step_factor=2.0)
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(task, k=0, pp=3.0, comp=6.0, queue_empty=True))
        # Slowed to 0.25, exit found immediately -> plateau 0.5 installed,
        # still in recovery awaiting verification at 0.5.
        assert [s for _, s in mon.speed_requests] == [0.25, 0.5]
        assert mon.recovery_mode
        assert mon.current_speed == 0.5
        # The next tolerant completion verifies the plateau: full speed.
        mon.on_job_release((0, 1))
        mon.on_job_complete(report(task, k=1, release=10.0, pp=13.0, comp=14.0,
                                   queue_empty=True))
        assert [s for _, s in mon.speed_requests] == [0.25, 0.5, 1.0]
        assert not mon.recovery_mode

    def test_episode_stays_open_until_full_speed(self, task):
        ctl = FakeCtl()
        mon = SteppedRestoreMonitor(ctl, s=0.25, step_factor=2.0)
        other = make_c_task(1, 6.0, 2.0, y=5.0, tolerance=2.0)
        mon.on_job_release((0, 0))
        mon.on_job_release((1, 0))  # second job keeps the system busy
        mon.on_job_complete(report(task, pp=3.0, comp=6.0, queue_empty=True))
        # Still at the first plateau: the candidate set holds the other job.
        assert mon.recovery_mode
        assert mon.episodes[-1].end is None
        assert mon.current_speed == 0.25
        # The candidate job completes fine: step to 0.5, episode still open.
        mon.on_job_complete(report(other, k=0, pp=5.0, comp=7.0, queue_empty=True))
        assert mon.recovery_mode
        assert mon.current_speed == 0.5
        assert mon.episodes[-1].end is None
        # One more tolerant completion verifies 0.5: full speed, episode closed.
        mon.on_job_release((0, 1))
        mon.on_job_complete(report(task, k=1, release=10.0, pp=13.0, comp=14.0,
                                   queue_empty=True))
        assert not mon.recovery_mode
        assert mon.episodes[-1].end == 14.0
        assert [s for _, s in mon.speed_requests] == [0.25, 0.5, 1.0]

    def test_new_miss_during_plateau_does_not_reslow(self, task):
        """Within one episode the plateau holds; handle_miss only acts
        when recovery_mode is off."""
        ctl = FakeCtl()
        mon = SteppedRestoreMonitor(ctl, s=0.25, step_factor=2.0)
        mon.on_job_release((0, 0))
        mon.on_job_release((0, 1))
        mon.on_job_complete(report(task, k=0, pp=3.0, comp=6.0, queue_empty=False))
        assert mon.recovery_mode
        mon.on_job_complete(report(task, k=1, release=4.0, pp=7.0, comp=12.0,
                                   queue_empty=False))
        assert [s for _, s in mon.speed_requests] == [0.25]


class TestPoliciesEndToEnd:
    def test_stepped_runs_in_kernel(self):
        from repro.experiments.runner import MonitorSpec, run_overload_experiment
        from repro.workload.generator import GeneratorParams, generate_taskset
        from repro.workload.scenarios import SHORT

        ts = generate_taskset(5, GeneratorParams(m=2))
        r = run_overload_experiment(ts, SHORT, MonitorSpec("stepped", 0.2, 1.5))
        assert not r.truncated
        assert r.min_speed == pytest.approx(0.2)
        # Gradual restore takes at least as long as plain SIMPLE(0.2).
        base = run_overload_experiment(ts, SHORT, MonitorSpec("simple", 0.2))
        assert r.dissipation >= base.dissipation - 1e-9

    def test_clamped_bounds_min_speed_in_kernel(self):
        from repro.experiments.runner import MonitorSpec, run_overload_experiment
        from repro.workload.generator import GeneratorParams, generate_taskset
        from repro.workload.scenarios import SHORT

        ts = generate_taskset(5, GeneratorParams(m=2))
        plain = run_overload_experiment(ts, SHORT, MonitorSpec("adaptive", 0.6))
        clamped = run_overload_experiment(ts, SHORT, MonitorSpec("clamped", 0.6, 0.4))
        assert plain.min_speed < 0.4
        assert clamped.min_speed >= 0.4 - 1e-9
        assert not clamped.truncated
