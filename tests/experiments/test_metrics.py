"""Tests for experiment metrics (repro.experiments.metrics)."""

import pytest

from repro.core.monitor import NullMonitor, RecoveryEpisode, SimpleMonitor
from repro.experiments.metrics import RunResult, dissipation_time


class FakeCtl:
    def change_speed(self, s):
        pass


def monitor_with_episodes(episodes):
    mon = SimpleMonitor(FakeCtl(), s=0.5)
    mon.episodes = list(episodes)
    return mon


class TestDissipationTime:
    def test_no_episodes_zero(self):
        mon = NullMonitor(FakeCtl())
        assert dissipation_time(mon, 0.5, 10.0) == (0.0, False)

    def test_episode_after_overload(self):
        mon = monitor_with_episodes(
            [RecoveryEpisode(start=0.2, end=1.3, trigger=(0, 0))]
        )
        d, trunc = dissipation_time(mon, 0.5, 10.0)
        assert d == pytest.approx(0.8)
        assert not trunc

    def test_episode_closing_before_overload_end_is_zero(self):
        """DOUBLE's mid-gap recovery: clock already normal at overload end."""
        mon = monitor_with_episodes(
            [RecoveryEpisode(start=0.2, end=0.9, trigger=(0, 0))]
        )
        assert dissipation_time(mon, 2.0, 10.0) == (0.0, False)

    def test_last_episode_governs(self):
        mon = monitor_with_episodes(
            [
                RecoveryEpisode(start=0.2, end=0.9, trigger=(0, 0)),
                RecoveryEpisode(start=2.1, end=3.0, trigger=(0, 5)),
            ]
        )
        d, _ = dissipation_time(mon, 2.0, 10.0)
        assert d == pytest.approx(1.0)

    def test_open_episode_truncated(self):
        mon = monitor_with_episodes(
            [RecoveryEpisode(start=0.2, end=None, trigger=(0, 0))]
        )
        d, trunc = dissipation_time(mon, 0.5, 10.0)
        assert d == pytest.approx(9.5)
        assert trunc


class TestRunResult:
    def test_row_formatting(self):
        r = RunResult(
            scenario="SHORT", monitor="SIMPLE(s=0.6)", dissipation=0.7694,
            truncated=False, min_speed=0.6, miss_count=195, episodes=1,
            max_response_c=0.5944, sim_end=1.77, events=2802,
        )
        row = r.row()
        assert "SHORT" in row and "SIMPLE(s=0.6)" in row
        assert "769.4" in row
        assert "truncated" not in row

    def test_row_marks_truncation(self):
        r = RunResult(
            scenario="LONG", monitor="SIMPLE(s=1)", dissipation=29.0,
            truncated=True, min_speed=1.0, miss_count=1, episodes=1,
            max_response_c=1.0, sim_end=30.0, events=10,
        )
        assert "truncated" in r.row()
