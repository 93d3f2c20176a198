"""ProgressReporter: throttling, cache hit-rate, final line."""

import io

from repro.obs.progress import ProgressReporter


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make(min_interval=1.0):
    buf = io.StringIO()
    clock = FakeClock()
    return ProgressReporter(stream=buf, min_interval_s=min_interval, clock=clock), buf, clock


class TestProgressReporter:
    def test_throttles_between_lines(self):
        rep, buf, clock = make(min_interval=1.0)
        rep.begin(100)
        for _ in range(50):
            clock.t += 0.001  # 50 cells in 50 ms: at most one line
            rep.cell_done()
        assert rep.lines_emitted == 1

    def test_final_line_always_emitted(self):
        rep, buf, clock = make(min_interval=1000.0)
        rep.begin(3)
        rep.cell_done()  # first one emits (last_emit starts at -inf)
        rep.cell_done()
        rep.cell_done()  # done == total -> forced final line
        lines = buf.getvalue().splitlines()
        assert lines[-1].startswith("[sweep] 3/3 cells (100%)")
        rep.finish()  # already final: no extra line
        assert buf.getvalue().splitlines() == lines

    def test_finish_emits_when_incomplete(self):
        rep, buf, clock = make(min_interval=1000.0)
        rep.begin(10)
        rep.finish()
        assert "0/10" in buf.getvalue()

    def test_cache_hit_rate(self):
        rep, buf, clock = make()
        rep.begin(4)
        rep.cell_done(cached=True)
        rep.cell_done(cached=True)
        rep.cell_done(cached=True)
        rep.cell_done(cached=False)
        last = buf.getvalue().splitlines()[-1]
        assert "cache 3 (75%)" in last

    def test_eta_dashes_when_rate_is_zero(self):
        """Cells completing at the same clock instant give a zero-span
        window; the ETA must render ``--:--``, never a raw ``inf``."""
        rep, buf, clock = make(min_interval=0.0)
        rep.begin(4)
        rep.cell_done()  # clock never advanced -> rate 0
        last = buf.getvalue().splitlines()[-1]
        assert "eta --:--" in last
        assert "inf" not in buf.getvalue()

    def test_eta_recovers_after_zero_rate_start(self):
        rep, buf, clock = make(min_interval=0.0)
        rep.begin(4)
        rep.cell_done()  # zero-span -> --:--
        clock.t = 2.0
        rep.cell_done()  # 2 cells in 2 s -> 2 remaining -> eta 2.0s
        assert "eta 2.0s" in buf.getvalue().splitlines()[-1]

    def test_eta_in_intermediate_lines(self):
        rep, buf, clock = make(min_interval=0.0)
        rep.begin(4)
        clock.t = 1.0
        rep.cell_done()  # 1 cell/s -> 3 remaining -> eta 3.0s
        assert "eta 3.0s" in buf.getvalue().splitlines()[-1]
        clock.t = 4.0
        for _ in range(3):
            rep.cell_done()
        assert "eta" not in buf.getvalue().splitlines()[-1]


class TestWindowedRate:
    def test_rate_tracks_recent_window_not_lifetime(self):
        rep, buf, clock = make(min_interval=0.0)
        rep.begin(1000)
        # Fast burst: 100 cells in 1 s...
        for _ in range(100):
            clock.t += 0.01
            rep.cell_done()
        # ...then a slow regime: 1 cell every 2 s for 40 s.  The 20 s
        # sliding window forgets the burst entirely.
        for _ in range(20):
            clock.t += 2.0
            rep.cell_done()
        rate = rep.rate(clock.t)
        assert abs(rate - 0.5) < 0.1, rate
        # Cumulative average would claim ~2.9 cells/s; the ETA on the
        # last line must reflect the windowed rate (880 left at 0.5/s).
        last = buf.getvalue().splitlines()[-1]
        assert "eta" in last
        eta = float(last.split("eta ")[1].rstrip("s"))
        assert 1500 < eta < 2100, eta

    def test_rate_speedup_detected(self):
        rep, buf, clock = make(min_interval=0.0)
        rep.begin(1000)
        for _ in range(10):
            clock.t += 2.0  # slow start: 0.5 cells/s
            rep.cell_done()
        for _ in range(100):
            clock.t += 0.1  # speedup: 10 cells/s
            rep.cell_done()
        assert rep.rate(clock.t) > 5.0

    def test_window_is_bounded(self):
        rep, buf, clock = make(min_interval=1000.0)
        rep.begin(100_000)
        for _ in range(10_000):
            clock.t += 0.001
            rep.cell_done()
        from repro.obs.progress import RATE_WINDOW_SAMPLES

        assert len(rep._window) <= RATE_WINDOW_SAMPLES

    def test_rate_zero_before_any_cells(self):
        rep, buf, clock = make()
        rep.begin(10)
        assert rep.rate(clock.t) == 0.0
