"""Statistics helpers used by the experiment harness.

The paper reports, for every experimental series, the *mean over 20
generated task sets* together with *95 % confidence intervals* (Figs. 6-8).
This module provides exactly that: Student-t confidence intervals for the
mean of small samples, plus a compact multi-statistic summary used when
printing reproduction tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["ConfidenceInterval", "mean_ci", "summarize", "Summary"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval for a sample mean.

    Attributes
    ----------
    mean:
        Sample mean.
    half_width:
        Half-width of the interval; the interval is
        ``[mean - half_width, mean + half_width]``.
    confidence:
        Confidence level, e.g. ``0.95``.
    n:
        Sample size the interval was computed from.
    """

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        """Lower endpoint of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Return ``True`` if *value* lies within the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return f"{self.mean:.6g} ± {self.half_width:.3g}"


def mean_ci(samples: Iterable[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Compute the mean and a Student-t confidence interval.

    Parameters
    ----------
    samples:
        The observations (one per generated task set in the paper's
        experiments).
    confidence:
        Two-sided confidence level.  The paper uses 95 %.

    Returns
    -------
    ConfidenceInterval
        Interval with half-width ``t_{n-1, (1+c)/2} * s / sqrt(n)``.  For a
        single observation the half-width is 0 (no dispersion estimate is
        possible); for an empty sample a :class:`ValueError` is raised.
    """
    xs = np.asarray(list(samples), dtype=float)
    if xs.size == 0:
        raise ValueError("mean_ci() requires at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    m = float(np.mean(xs))
    if xs.size == 1:
        return ConfidenceInterval(mean=m, half_width=0.0, confidence=confidence, n=1)
    sem = float(np.std(xs, ddof=1)) / math.sqrt(xs.size)
    if sem == 0.0:
        return ConfidenceInterval(mean=m, half_width=0.0, confidence=confidence, n=int(xs.size))
    # Imported here, not at module level: scipy.stats costs about a
    # second of import time, and only figure rendering needs it.
    from scipy import stats

    tcrit = float(stats.t.ppf((1.0 + confidence) / 2.0, df=xs.size - 1))
    return ConfidenceInterval(
        mean=m, half_width=tcrit * sem, confidence=confidence, n=int(xs.size)
    )


@dataclass(frozen=True)
class Summary:
    """Compact five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return (
            f"n={self.n} mean={self.mean:.6g} std={self.std:.3g} "
            f"min={self.minimum:.6g} med={self.median:.6g} max={self.maximum:.6g}"
        )


def summarize(samples: Sequence[float]) -> Summary:
    """Summarize a non-empty sample (mean/std/min/median/max)."""
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("summarize() requires at least one sample")
    return Summary(
        n=int(xs.size),
        mean=float(np.mean(xs)),
        std=float(np.std(xs, ddof=1)) if xs.size > 1 else 0.0,
        minimum=float(np.min(xs)),
        maximum=float(np.max(xs)),
        median=float(np.median(xs)),
    )
