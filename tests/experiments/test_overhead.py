"""Tests for the Fig. 9 overhead measurement."""

import statistics

import pytest

from repro.experiments.overhead import (
    OverheadResult,
    _normal_run_samples,
    measure_overheads,
)
from repro.workload.generator import GeneratorParams, generate_tasksets

#: Alternating pairs behind the overhead ratio (odd: the median is one pair).
OVERHEAD_PAIRS = 7


class TestOverheadResult:
    def test_ratios(self):
        r = OverheadResult(
            avg_with_vt=1.4, max_with_vt=4.0,
            avg_without_vt=1.0, max_without_vt=2.0,
            samples_with_vt=100, samples_without_vt=100,
        )
        assert r.avg_ratio == pytest.approx(1.4)
        assert r.max_ratio == pytest.approx(2.0)

    def test_render(self):
        r = OverheadResult(1.4, 4.0, 1.0, 2.0, 100, 100,
                           avg_with_vt_active=2.0, max_with_vt_active=5.0,
                           samples_with_vt_active=50)
        text = r.render()
        assert "without virtual time" in text
        assert "with virtual time (idle)" in text
        assert "with virtual time (active)" in text
        assert "ratio" in text

    def test_render_without_active_variant(self):
        r = OverheadResult(1.4, 4.0, 1.0, 2.0, 100, 100)
        assert "active" not in r.render()

    def test_zero_baseline_infinite_ratio(self):
        r = OverheadResult(1.0, 1.0, 0.0, 0.0, 1, 1)
        assert r.avg_ratio == float("inf")


class TestMeasureOverheads:
    @pytest.fixture(scope="class")
    def tasksets(self):
        return generate_tasksets(1, base_seed=3, params=GeneratorParams(m=2))

    @pytest.fixture(scope="class")
    def result(self, tasksets):
        return measure_overheads(tasksets, horizon=1.0)

    def test_collects_samples_all_variants(self, result):
        assert result.samples_with_vt > 100
        assert result.samples_without_vt > 100
        assert result.samples_with_vt_active > 100
        assert result.avg_with_vt > 0
        assert result.avg_without_vt > 0
        assert result.max_with_vt >= result.avg_with_vt

    def test_idle_variants_see_identical_schedules(self, result):
        """The apples-to-apples comparison: same event counts."""
        assert result.samples_with_vt == result.samples_without_vt

    def test_mechanism_overhead_is_modest(self, tasksets):
        """The reproduced Fig. 9 claim (very loose: wall-clock noise).

        One pair is an idle-mechanism run with and one without virtual
        time, timed back to back in alternating order; the verdict is
        the median of the pairs' average-case ratios, so a burst of host
        load spoils one pair, not the verdict.
        """
        ratios = []
        for i in range(OVERHEAD_PAIRS):
            order = (False, True) if i % 2 == 0 else (True, False)
            mean = {
                vt: statistics.fmean(_normal_run_samples(tasksets[0], vt, horizon=1.0))
                for vt in order
            }
            ratios.append(mean[True] / mean[False])
        assert statistics.median(ratios) < 2.0, ratios
