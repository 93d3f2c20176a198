"""Throttled progress reporting for long sweeps.

A :class:`ProgressReporter` is fed one :meth:`cell_done` per finished
sweep cell and periodically prints a one-line status — cells done/total,
cache hit-rate, elapsed time, and an ETA extrapolated from the current
rate — without ever flooding the output (at most one line per
``min_interval_s`` seconds, plus a final line at :meth:`finish`).

The reporter writes plain ``\\n``-terminated lines (no carriage-return
tricks) so output stays readable when redirected to a log file or CI
console.

The ETA smooths the completion rate over a **sliding window** of recent
``(time, done)`` samples rather than dividing total done by total
elapsed: pool cells land in per-slice bursts (a slice's first cell of
a task set pays its materialization, later cells are nearly free), and
under checkpointed resume a run may start with a burst of already-done
cells — an instantaneous or cumulative rate whipsaws in both cases,
while the windowed rate tracks the current regime.
"""

from __future__ import annotations

import math
import sys
import time
from collections import deque
from typing import Callable, Deque, Optional, TextIO, Tuple

__all__ = ["ProgressReporter"]

#: Sliding-window span (seconds) for the smoothed completion rate.
RATE_WINDOW_S = 20.0
#: Maximum samples retained in the window (bounds memory on fast sweeps).
RATE_WINDOW_SAMPLES = 64


class ProgressReporter:
    """Progress lines for an N-cell sweep.

    Parameters
    ----------
    stream:
        Where lines go (default ``sys.stderr``, keeping stdout clean for
        results).
    min_interval_s:
        Minimum seconds between progress lines (the final line always
        prints).
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._clock = clock
        self.total = 0
        self.done = 0
        self.cache_hits = 0
        self._t0 = 0.0
        self._last_emit = float("-inf")
        self._window: Deque[Tuple[float, int]] = deque()
        self.lines_emitted = 0

    def begin(self, total: int) -> None:
        """Start (or restart) reporting for a sweep of *total* cells."""
        self.total = total
        self.done = 0
        self.cache_hits = 0
        self._t0 = self._clock()
        self._last_emit = float("-inf")
        self._window = deque([(self._t0, 0)])

    def cell_done(self, cached: bool = False) -> None:
        """Record one finished cell; maybe emit a progress line."""
        self.done += 1
        if cached:
            self.cache_hits += 1
        now = self._clock()
        self._observe(now)
        if self.done < self.total and now - self._last_emit < self.min_interval_s:
            return
        self._emit(now, final=self.done >= self.total)

    def set_completed_cells(self, done: int) -> None:
        """Pool-mode progress: the parent observed *done* cells complete.

        Unlike :meth:`cell_done` this is level-triggered — it is fed the
        absolute completion count read off durable shard manifests, so a
        parent polling a campaign directory can report progress for work
        it did not execute itself.  Emission stays throttled.
        """
        if done < self.done:
            return  # stale read (another poller raced ahead); keep max
        advanced = done > self.done
        self.done = done
        now = self._clock()
        if advanced:
            self._observe(now)
        if not advanced or (
            self.done < self.total and now - self._last_emit < self.min_interval_s
        ):
            return
        self._emit(now, final=self.done >= self.total)

    def finish(self) -> None:
        """Emit the final line if :meth:`cell_done` didn't already."""
        if self.done < self.total:
            self._emit(self._clock(), final=True)

    # ------------------------------------------------------------------
    def _observe(self, now: float) -> None:
        """Record a ``(time, done)`` sample into the sliding rate window."""
        window = self._window
        window.append((now, self.done))
        # Keep the oldest retained sample just *outside* the span so the
        # rate always covers at least RATE_WINDOW_S once enough history
        # exists; cap the sample count so fast sweeps stay O(1).
        while len(window) > 2 and now - window[1][0] > RATE_WINDOW_S:
            window.popleft()
        while len(window) > RATE_WINDOW_SAMPLES:
            window.popleft()

    def rate(self, now: Optional[float] = None) -> float:
        """Cells/second smoothed over the sliding window."""
        if not self._window:
            return 0.0
        t = self._clock() if now is None else now
        t0, d0 = self._window[0]
        span = t - t0
        if span <= 0:
            return 0.0
        return (self.done - d0) / span

    def _eta(self, now: float) -> str:
        """Remaining-time estimate, or ``--:--`` when the window is
        empty / zero-span / stalled (a raw ``inf`` must never render)."""
        rate = self.rate(now)
        if rate <= 0.0:
            return "--:--"
        eta = (self.total - self.done) / rate
        if not math.isfinite(eta):
            return "--:--"
        return f"{eta:.1f}s"

    def _emit(self, now: float, final: bool) -> None:
        elapsed = max(now - self._t0, 0.0)
        pct = 100.0 * self.done / self.total if self.total else 100.0
        hit_rate = 100.0 * self.cache_hits / self.done if self.done else 0.0
        line = (
            f"[sweep] {self.done}/{self.total} cells ({pct:.0f}%)  "
            f"cache {self.cache_hits} ({hit_rate:.0f}%)  elapsed {elapsed:.1f}s"
        )
        if not final and self.done:
            line += f"  eta {self._eta(now)}"
        self._stream.write(line + "\n")
        self._last_emit = now
        self.lines_emitted += 1
