"""Tests for repro.util.stats (means and confidence intervals)."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sps

from repro.util.stats import ConfidenceInterval, mean_ci, summarize


class TestMeanCI:
    def test_mean_of_constant_sample(self):
        ci = mean_ci([3.0, 3.0, 3.0, 3.0])
        assert ci.mean == 3.0
        assert ci.half_width == 0.0

    def test_single_sample_has_zero_half_width(self):
        ci = mean_ci([7.5])
        assert ci.mean == 7.5
        assert ci.half_width == 0.0
        assert ci.n == 1

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            mean_ci([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([1.0, 2.0], confidence=1.0)
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([1.0, 2.0], confidence=0.0)

    def test_matches_textbook_formula(self):
        xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        ci = mean_ci(xs, confidence=0.95)
        n = len(xs)
        s = np.std(xs, ddof=1)
        t = sps.t.ppf(0.975, df=n - 1)
        assert ci.mean == pytest.approx(np.mean(xs))
        assert ci.half_width == pytest.approx(t * s / math.sqrt(n))

    def test_interval_endpoints_and_contains(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, confidence=0.95, n=5)
        assert ci.low == 8.0
        assert ci.high == 12.0
        assert ci.contains(10.0)
        assert ci.contains(8.0)
        assert not ci.contains(12.001)

    def test_wider_confidence_wider_interval(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert mean_ci(xs, 0.99).half_width > mean_ci(xs, 0.95).half_width

    def test_half_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(0)
        small = rng.normal(0, 1, size=10)
        large = np.concatenate([small, rng.normal(0, 1, size=190)])
        assert mean_ci(large).half_width < mean_ci(small).half_width

    def test_coverage_of_true_mean(self):
        """95% CI should contain the true mean roughly 95% of the time."""
        rng = np.random.default_rng(42)
        hits = 0
        trials = 400
        for _ in range(trials):
            xs = rng.normal(5.0, 2.0, size=20)
            if mean_ci(xs).contains(5.0):
                hits += 1
        assert 0.90 <= hits / trials <= 0.99


class TestSummarize:
    def test_basic_summary(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)

    def test_single_element_std_zero(self):
        s = summarize([2.0])
        assert s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_loads_no_scipy(module):
    """scipy is imported only inside ``mean_ci``: a fresh interpreter that
    imports the package (every CLI call and campaign worker) loads none of it."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
