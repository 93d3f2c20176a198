"""Tests for the monitor programs (Algorithms 2-4).

These drive the monitor state machines directly with crafted
CompletionReports, independent of the simulator, so every pseudocode
branch is exercised in isolation.
"""

import pytest

from repro.core.monitor import (
    AdaptiveMonitor,
    CompletionReport,
    NullMonitor,
    SimpleMonitor,
)
from tests.conftest import make_c_task


class FakeController:
    """Records the speeds of change_speed calls; their instants are in
    ``Monitor.speed_requests``."""

    def __init__(self):
        self.speeds = []

    def change_speed(self, new_speed):
        self.speeds.append(new_speed)


def report(task, k=0, release=0.0, pp=None, comp=1.0, queue_empty=False):
    return CompletionReport(
        task=task, job_index=k, release=release, actual_pp=pp,
        comp_time=comp, queue_empty=queue_empty,
    )


@pytest.fixture
def task():
    # T=4, Y=3, xi=2
    return make_c_task(0, 4.0, 1.0, y=3.0, tolerance=2.0)


@pytest.fixture
def task2():
    return make_c_task(1, 6.0, 2.0, y=5.0, tolerance=2.0)


class TestCompletionReport:
    def test_unresolved_pp_never_misses(self, task):
        assert not report(task, pp=None, comp=100.0).misses_tolerance

    def test_boundary_meets(self, task):
        # comp == y + xi: meets ("barely within its tolerance").
        assert not report(task, pp=3.0, comp=5.0).misses_tolerance

    def test_miss(self, task):
        assert report(task, pp=3.0, comp=5.1).misses_tolerance

    def test_no_tolerance_raises(self):
        t = make_c_task(0, 4.0, 1.0, tolerance=None)
        with pytest.raises(ValueError, match="tolerance"):
            report(t, pp=3.0, comp=10.0).misses_tolerance

    def test_response_time(self, task):
        assert report(task, release=2.0, comp=9.0).response_time == 7.0


class TestSimpleMonitor:
    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            SimpleMonitor(FakeController(), s=0.0)
        with pytest.raises(ValueError):
            SimpleMonitor(FakeController(), s=1.1)

    def test_miss_triggers_slowdown_once(self, task):
        ctl = FakeController()
        mon = SimpleMonitor(ctl, s=0.5)
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(task, pp=3.0, comp=6.0))
        assert mon.speed_requests == [(6.0, 0.5)]
        assert mon.recovery_mode
        # A second miss while already recovering does not change speed again.
        mon.on_job_release((0, 1))
        mon.on_job_complete(report(task, k=1, release=4.0, pp=7.0, comp=10.0))
        assert mon.speed_requests == [(6.0, 0.5)]

    def test_meeting_jobs_do_not_trigger(self, task):
        ctl = FakeController()
        mon = SimpleMonitor(ctl, s=0.5)
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(task, pp=3.0, comp=5.0))
        assert mon.speed_requests == []
        assert not mon.recovery_mode

    def test_recovery_exits_at_idle_normal_instant(self, task, task2):
        """The full Algorithm 2 walk: candidate set drains => speed 1."""
        ctl = FakeController()
        mon = SimpleMonitor(ctl, s=0.5)
        # Two jobs pending; one completes with a miss and an empty queue:
        # comp_time becomes the candidate idle instant, the other job is
        # pend_idle_cand.
        mon.on_job_release((0, 0))
        mon.on_job_release((1, 0))
        mon.on_job_complete(report(task, pp=3.0, comp=6.0, queue_empty=True))
        assert mon.recovery_mode
        assert mon.idle_cand == 6.0
        assert mon.pend_idle_cand == {(1, 0)}
        # The candidate job completes within tolerance: recovery ends.
        mon.on_job_complete(report(task2, pp=5.0, comp=7.0, queue_empty=False))
        assert not mon.recovery_mode
        assert mon.speed_requests[-1] == (7.0, 1.0)
        assert mon.episodes[-1].end == 7.0

    def test_candidate_discarded_on_later_miss(self, task, task2):
        """Algorithm 2 lines 13-15: a miss invalidates the candidate."""
        ctl = FakeController()
        mon = SimpleMonitor(ctl, s=0.5)
        mon.on_job_release((0, 0))
        mon.on_job_release((1, 0))
        mon.on_job_complete(report(task, pp=3.0, comp=6.0, queue_empty=True))
        assert mon.idle_cand == 6.0
        # Candidate member misses: candidate dropped, still recovering.
        mon.on_job_complete(report(task2, pp=5.0, comp=8.0, queue_empty=False))
        assert mon.recovery_mode
        assert mon.idle_cand is None
        assert mon.pend_idle_cand == set()

    def test_candidate_reestablished_on_idle_completion(self, task, task2):
        """Algorithm 2 lines 18-20 after a discarded candidate."""
        ctl = FakeController()
        mon = SimpleMonitor(ctl, s=0.5)
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(task, pp=3.0, comp=6.0, queue_empty=False))
        assert mon.recovery_mode and mon.idle_cand is None
        mon.on_job_release((1, 0))
        mon.on_job_complete(report(task2, pp=9.0, comp=10.0, queue_empty=True))
        # New candidate at 10; pend_now empty => exit immediately.
        assert not mon.recovery_mode
        assert mon.speed_requests[-1] == (10.0, 1.0)

    def test_miss_with_empty_system_recovers_immediately(self, task):
        """Miss with empty queue and nothing pending: instant exit."""
        ctl = FakeController()
        mon = SimpleMonitor(ctl, s=0.5)
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(task, pp=3.0, comp=6.0, queue_empty=True))
        assert not mon.recovery_mode
        assert mon.speed_requests == [(6.0, 0.5), (6.0, 1.0)]
        assert ctl.speeds == [0.5, 1.0]
        ep = mon.episodes[-1]
        assert ep.start == 6.0 and ep.end == 6.0

    def test_second_episode_recorded(self, task):
        ctl = FakeController()
        mon = SimpleMonitor(ctl, s=0.5)
        for k, comp in ((0, 6.0), (1, 16.0)):
            mon.on_job_release((0, k))
            mon.on_job_complete(
                report(task, k=k, release=comp - 6.0, pp=comp - 3.0, comp=comp,
                       queue_empty=True)
            )
        assert len(mon.episodes) == 2
        assert all(e.end is not None for e in mon.episodes)
        assert mon.miss_count == 2

    def test_pend_now_tracks_releases_and_completions(self, task):
        mon = SimpleMonitor(FakeController(), s=0.5)
        mon.on_job_release((0, 0))
        mon.on_job_release((0, 1))
        assert mon.pend_now == {(0, 0), (0, 1)}
        mon.on_job_complete(report(task, k=0, pp=None, comp=1.0))
        assert mon.pend_now == {(0, 1)}


class TestAdaptiveMonitor:
    def test_invalid_aggressiveness(self):
        with pytest.raises(ValueError):
            AdaptiveMonitor(FakeController(), a=0.0)

    def test_speed_formula(self, task):
        """s = a * (Y + xi) / R on the first miss."""
        ctl = FakeController()
        mon = AdaptiveMonitor(ctl, a=0.8)
        mon.on_job_release((0, 0))
        # R = 10, Y + xi = 5 => s = 0.8 * 0.5 = 0.4
        mon.on_job_complete(report(task, release=0.0, pp=3.0, comp=10.0))
        assert mon.speed_requests == [(10.0, pytest.approx(0.4))]
        assert mon.current_speed == pytest.approx(0.4)

    def test_only_ratchets_downward(self, task):
        ctl = FakeController()
        mon = AdaptiveMonitor(ctl, a=0.8)
        mon.on_job_release((0, 0))
        mon.on_job_release((0, 1))
        mon.on_job_complete(report(task, k=0, release=0.0, pp=3.0, comp=10.0))
        # Second miss with a *smaller* normalized response: no change.
        mon.on_job_complete(report(task, k=1, release=4.0, pp=7.0, comp=13.0))
        assert len(mon.speed_requests) == 1
        # Third miss with larger response: ratchets down.
        mon.on_job_release((0, 2))
        mon.on_job_complete(report(task, k=2, release=8.0, pp=11.0, comp=28.0))
        assert mon.speed_requests[-1][1] == pytest.approx(0.8 * 5.0 / 20.0)

    def test_speed_resets_per_episode(self, task):
        ctl = FakeController()
        mon = AdaptiveMonitor(ctl, a=0.8)
        # Episode 1: ends immediately (queue empty, nothing pending).
        mon.on_job_release((0, 0))
        mon.on_job_complete(
            report(task, k=0, release=0.0, pp=3.0, comp=10.0, queue_empty=True)
        )
        assert not mon.recovery_mode
        # Episode 2: a milder miss should still slow down (vs 1.0 reset).
        mon.on_job_release((0, 1))
        mon.on_job_complete(
            report(task, k=1, release=20.0, pp=23.0, comp=26.0, queue_empty=True)
        )
        slow = [s for _, s in mon.speed_requests if s < 1.0]
        assert len(slow) == 2
        assert slow[1] == pytest.approx(0.8 * 5.0 / 6.0)

    def test_minimum_requested_speed(self, task):
        ctl = FakeController()
        mon = AdaptiveMonitor(ctl, a=0.6)
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(task, release=0.0, pp=3.0, comp=15.0))
        assert mon.minimum_requested_speed() == pytest.approx(0.6 * 5.0 / 15.0)


class TestNullMonitor:
    def test_never_changes_speed_but_counts_misses(self, task):
        ctl = FakeController()
        mon = NullMonitor(ctl)
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(task, pp=3.0, comp=50.0))
        assert mon.speed_requests == []
        assert not mon.recovery_mode
        assert mon.miss_count == 1

    def test_tolerates_unconfigured_tolerance(self):
        t = make_c_task(0, 4.0, 1.0, tolerance=None)
        mon = NullMonitor(FakeController())
        mon.on_job_release((0, 0))
        mon.on_job_complete(report(t, pp=3.0, comp=50.0))  # no raise
        assert mon.miss_count == 0
