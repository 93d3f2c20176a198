"""The benchmark's own arithmetic: percentiles, failure counts, self time.

Standard library only, so the launcher (``run.py``) and the self-tests can
use it without importing the simulator.
"""

from __future__ import annotations

import array
import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "median",
    "nearest_rank",
    "tail_pct",
    "tail_percentile",
    "failed_positions",
    "failed_ratio",
    "self_times",
]


def median(values: Sequence[float]) -> float:
    """Median of *values* (mean of the two middle values for even n)."""
    if not values:
        raise ValueError("median of an empty sequence")
    s = sorted(values)
    mid = len(s) // 2
    if len(s) % 2:
        return float(s[mid])
    return (s[mid - 1] + s[mid]) / 2.0


def nearest_rank(values: Sequence[float], pct: int) -> float:
    """The nearest-rank *pct*-th percentile: ``s[ceil(pct * n / 100) - 1]``."""
    s = sorted(values)
    return float(s[max(0, math.ceil(pct * len(s) / 100) - 1)])


def tail_pct(n: int, min_beyond: int = 10) -> int:
    """The highest whole percentile of *n* samples with *min_beyond* above it.

    Raises :class:`ValueError` when even the 1st percentile leaves fewer
    than *min_beyond* samples above it (``n <= min_beyond``).
    """
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            return p
    raise ValueError(f"{n} samples leave no percentile with {min_beyond} beyond it")


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10, n_rule: Optional[int] = None
) -> Tuple[float, int, int]:
    """The tail timing: ``(value, percentile, sample count)``.

    The percentile is the highest whole one that leaves at least
    *min_beyond* of *n_rule* samples beyond it (*n_rule* defaults to
    ``len(values)``; a run passes the smallest sample it guarantees, so
    the percentile does not move with the number of batches that fit).
    It must not exceed what ``len(values)`` itself allows.
    """
    n = len(values)
    pct = tail_pct(n if n_rule is None else n_rule, min_beyond)
    if pct > tail_pct(n, min_beyond):
        raise ValueError(f"p{pct} leaves fewer than {min_beyond} of {n} samples beyond it")
    return nearest_rank(values, pct), pct, n


def failed_positions(
    observed: Sequence[Optional[dict]],
    expected: Sequence[Optional[dict]],
) -> List[int]:
    """Cell positions that fail the result check.

    ``observed[i]`` is the statistics the executor returned for cell
    *i* (``None`` when the cell raised or is missing); ``expected[i]``
    is the statistics it must equal (``None`` when nothing is known to
    compare against).  Positions present in only one of the lists fail.
    """
    bad: List[int] = []
    for i in range(max(len(observed), len(expected))):
        if i >= len(observed) or i >= len(expected) or observed[i] is None:
            bad.append(i)
        elif expected[i] is not None and observed[i] != expected[i]:
            bad.append(i)
    return bad


def failed_ratio(failed: int, attempted: int) -> float:
    """Cells failed over cells attempted (a crashed run fails all of them)."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def self_times(
    layers: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
    parents: Sequence[int],
    window: Optional[Tuple[int, int]] = None,
) -> Tuple[Dict[int, int], Dict[int, int], Dict[int, int]]:
    """Per-layer total, self and call count of one process's spans.

    Span *i* has layer ``layers[i]``, runs ``[starts[i], ends[i])`` and
    lies inside span ``parents[i]`` (``-1`` for a root).  A span's self
    time is its duration minus the part of it its children cover;
    children of one span never overlap (one thread records them).  With
    *window* ``(lo, hi)`` every span is first clipped to that interval,
    so time outside the measured phase counts nowhere, and a span that
    lies wholly outside it is not a call.

    Returns ``(total_ns, self_ns, calls)``, each keyed by layer.
    """
    n = len(layers)
    lo, hi = window if window is not None else (min(starts, default=0), max(ends, default=0))
    clipped = array.array("q", (max(0, min(ends[i], hi) - max(starts[i], lo)) for i in range(n)))
    covered = array.array("q", bytes(8 * n))
    for i in range(n):
        if parents[i] >= 0:
            covered[parents[i]] += clipped[i]
    total: Dict[int, int] = {}
    own: Dict[int, int] = {}
    calls: Dict[int, int] = {}
    for i in range(n):
        if not clipped[i] and not lo <= starts[i] <= hi:
            continue
        layer = layers[i]
        total[layer] = total.get(layer, 0) + clipped[i]
        own[layer] = own.get(layer, 0) + max(0, clipped[i] - covered[i])
        calls[layer] = calls.get(layer, 0) + 1
    return total, own, calls
