"""Telemetry fabric: writer records, torn-line tolerance, deterministic merge."""

import json

import pytest

from repro.obs.telemetry import (
    PHASES,
    TELEMETRY_FORMAT,
    TELEMETRY_VERSION,
    PhaseProfiler,
    TelemetryAggregator,
    TelemetryWriter,
    aggregate_campaign,
    enable_phase_profiling,
    read_telemetry,
    render_status,
    render_top,
    rss_bytes,
    telemetry_path,
    worker_statuses,
)


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


def make_writer(tmp_path, owner="host:1:w0", **kw):
    clock = FakeClock()
    kw.setdefault("clock", clock)
    kw.setdefault("rss_fn", lambda: 1 << 20)
    kw.setdefault("campaign", "cafe")
    writer = TelemetryWriter(telemetry_path(tmp_path, owner), owner=owner, **kw)
    return writer, clock


class TestTelemetryWriter:
    def test_meta_header_first(self, tmp_path):
        writer, _ = make_writer(tmp_path)
        records = list(read_telemetry(writer.path))
        assert records[0]["rec"] == "meta"
        assert records[0]["format"] == TELEMETRY_FORMAT
        assert records[0]["version"] == TELEMETRY_VERSION
        assert records[0]["owner"] == "host:1:w0"
        assert records[0]["campaign"] == "cafe"

    def test_owner_sanitized_in_filename(self, tmp_path):
        writer, _ = make_writer(tmp_path, owner="node:42:w1")
        assert writer.path.name == "node_42_w1.ndjson"
        assert writer.path.parent.name == "telemetry"

    def test_samples_carry_cumulative_counters_and_rates(self, tmp_path):
        writer, clock = make_writer(tmp_path)
        writer.lease_acquired()
        writer.shard_claimed()
        clock.t += 1.0
        writer.cell_done(False, events=500, wall_ns=10_000)
        clock.t += 1.0
        writer.cell_done(True)
        writer.close()
        samples = [r for r in read_telemetry(writer.path) if r["rec"] == "sample"]
        final = samples[-1]
        assert final["cells_done"] == 2
        assert final["cells_run"] == 1
        assert final["cache_hits"] == 1
        assert final["events"] == 500
        assert final["shards_claimed"] == 1
        assert final["leases_acquired"] == 1
        assert final["leases_stolen"] == 0
        assert final["final"] is True
        assert final["rss_bytes"] == 1 << 20
        # seq strictly increases
        assert [s["seq"] for s in samples] == sorted({s["seq"] for s in samples})

    def test_interval_throttles_samples(self, tmp_path):
        writer, clock = make_writer(tmp_path, interval_s=10.0)
        for _ in range(50):
            clock.t += 0.1  # 5 s of work: under the interval
            writer.cell_done(False)
        samples = [r for r in read_telemetry(writer.path) if r["rec"] == "sample"]
        assert len(samples) <= 1

    def test_shard_finished_forces_sample(self, tmp_path):
        writer, clock = make_writer(tmp_path, interval_s=1e9)
        writer.cell_done(False)
        writer.shard_finished()
        samples = [r for r in read_telemetry(writer.path) if r["rec"] == "sample"]
        assert samples and samples[-1]["shards_done"] == 1

    def test_close_is_idempotent(self, tmp_path):
        writer, _ = make_writer(tmp_path)
        writer.close()
        writer.close()
        finals = [
            r for r in read_telemetry(writer.path) if r.get("final") is True
        ]
        assert len(finals) == 1

    def test_backwards_wall_clock_never_negative_rates(self, tmp_path):
        """Regression: an NTP step / suspend moving the wall clock
        *backwards* must not produce negative (or inflated) interval
        rates — they come from the monotonic clock now."""
        wall = FakeClock(1_000_000.0)
        mono = FakeClock(500.0)
        writer, _ = make_writer(tmp_path, clock=wall, mono=mono)
        writer.cell_done(False, events=100)  # first sample (no interval yet)
        wall.t -= 3600.0  # the wall clock steps back an hour
        mono.t += 2.0     # ... while real time advances 2 s
        writer.cell_done(False, events=100)  # sampled: 2 s monotonic interval
        writer.close()
        samples = [r for r in read_telemetry(writer.path) if r["rec"] == "sample"]
        assert len(samples) >= 2
        for s in samples:
            assert s["cells_per_sec"] >= 0.0, s
            assert s["events_per_sec"] >= 0.0, s
        # The post-step sample measured the 2 s monotonic interval.
        stepped = samples[1]
        assert stepped["cells_per_sec"] == pytest.approx(1 / 2.0)
        assert stepped["events_per_sec"] == pytest.approx(100 / 2.0)

    def test_non_positive_monotonic_interval_reports_zero_rates(self, tmp_path):
        wall = FakeClock(100.0)
        mono = FakeClock(50.0)
        writer, _ = make_writer(tmp_path, clock=wall, mono=mono)
        writer.cell_done(False, events=10)
        writer.sample(force=True)
        writer.cell_done(False, events=10)
        writer.sample(force=True)  # same monotonic instant: dt == 0
        samples = [r for r in read_telemetry(writer.path) if r["rec"] == "sample"]
        assert samples[-1]["cells_per_sec"] == 0.0
        assert samples[-1]["events_per_sec"] == 0.0

    def test_samples_carry_monotonic_timestamp(self, tmp_path):
        writer, _ = make_writer(tmp_path, mono=FakeClock(7.0))
        writer.sample(force=True)
        records = list(read_telemetry(writer.path))
        assert records[0]["mono_start"] == 7.0
        samples = [r for r in records if r["rec"] == "sample"]
        assert samples[0]["mono"] == 7.0


class TestReadTelemetry:
    def test_torn_final_line_skipped(self, tmp_path):
        writer, clock = make_writer(tmp_path)
        clock.t += 1.0
        writer.cell_done(False, events=10)
        writer.sample(force=True)
        # Simulate a SIGKILL mid-append: a truncated last line.
        with open(writer.path, "a", encoding="utf-8") as fh:
            fh.write('{"rec": "sample", "seq": 99, "cel')
        records = list(read_telemetry(writer.path))
        assert all(r.get("seq") != 99 for r in records)
        assert any(r["rec"] == "sample" for r in records)

    def test_garbage_interior_lines_skipped(self, tmp_path):
        path = tmp_path / "t.ndjson"
        meta = json.dumps(
            {"rec": "meta", "format": TELEMETRY_FORMAT,
             "version": TELEMETRY_VERSION, "owner": "w", "start": 1.0}
        )
        sample = json.dumps({"rec": "sample", "seq": 0, "wall": 2.0})
        path.write_text(meta + "\nnot json at all\n" + sample + "\n")
        records = list(read_telemetry(path))
        assert len(records) == 2

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_telemetry(tmp_path / "absent.ndjson")) == []

    def test_foreign_format_rejected_wholesale(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text(
            json.dumps({"rec": "meta", "format": "other", "version": 1})
            + "\n"
            + json.dumps({"rec": "sample", "seq": 0})
            + "\n"
        )
        assert list(read_telemetry(path)) == []


class TestAggregatorDeterminism:
    def _populate(self, tmp_path):
        for i, owner in enumerate(["host:1:w0", "host:1:w1", "host:2:w0"]):
            writer, clock = make_writer(tmp_path, owner=owner)
            writer.lease_acquired(stolen=i == 2)
            writer.shard_claimed()
            for j in range(3):
                clock.t += 1.0
                writer.cell_done(j == 0, events=100 * (i + 1))
            writer.shard_finished()
            writer.close()

    def test_merge_is_byte_identical_regardless_of_order(self, tmp_path):
        self._populate(tmp_path)
        from repro.obs.telemetry import iter_telemetry_files

        files = iter_telemetry_files(tmp_path)
        assert len(files) == 3

        fwd = TelemetryAggregator()
        for f in files:
            fwd.add_file(f)
        rev = TelemetryAggregator()
        for f in reversed(files):
            rev.add_file(f)
        dup = TelemetryAggregator()
        for f in list(files) + list(files):  # double-read: dedup on (owner, seq)
            dup.add_file(f)
        assert fwd.to_json() == rev.to_json() == dup.to_json()

    def test_totals_sum_workers(self, tmp_path):
        self._populate(tmp_path)
        agg = aggregate_campaign(tmp_path)
        assert agg["totals"]["cells_done"] == 9
        assert agg["totals"]["cache_hits"] == 3
        assert agg["totals"]["events"] == 3 * (100 + 200 + 300)
        assert agg["totals"]["leases_stolen"] == 1
        assert agg["totals"]["shards_done"] == 3
        assert set(agg["workers"]) == {"host:1:w0", "host:1:w1", "host:2:w0"}
        assert agg["campaign"] == "cafe"

    def test_empty_campaign_aggregates_cleanly(self, tmp_path):
        agg = aggregate_campaign(tmp_path)
        assert agg["workers"] == {}
        assert agg["totals"]["cells_done"] == 0

    def test_streams_with_retired_batch_fields_still_aggregate(self):
        """Streams written before batch mode was removed carry
        ``batch_slices``/``batch``; readers accept and ignore them."""
        agg = TelemetryAggregator()
        agg.add_records([
            {"rec": "meta", "format": "repro-telemetry", "version": 1,
             "owner": "old", "campaign": "cafe", "start": 0.0, "mono_start": 0.0},
            {"rec": "sample", "seq": 0, "wall": 2.0, "mono": 2.0, "cells_done": 4,
             "events": 40, "batch_slices": 2, "batch": True, "backend": "soa"},
        ])
        doc = agg.aggregate()
        assert doc["totals"]["cells_done"] == 4
        assert "batch_slices" not in doc["totals"]
        assert "batch" not in doc["workers"]["old"]


class TestWorkerStatuses:
    def test_states_from_files_alone(self, tmp_path):
        done, _ = make_writer(tmp_path, owner="w:done")
        done.cell_done(False)
        done.close()
        live, live_clock = make_writer(tmp_path, owner="w:live")
        live_clock.t = 100.0
        live.cell_done(False)
        live.sample(force=True)
        stale, stale_clock = make_writer(tmp_path, owner="w:stale")
        stale_clock.t = 50.0
        stale.cell_done(False)
        stale.sample(force=True, now=50.0)
        states = {
            s.owner: s.state
            for s in worker_statuses(tmp_path, ttl=15.0, now=101.0)
        }
        assert states["w:done"] == "done"
        assert states["w:live"] == "live"
        assert states["w:stale"] == "stale"

    def test_render_top_handles_empty_dir(self, tmp_path):
        out = render_top(tmp_path)
        assert "no telemetry streams" in out


class TestPhaseProfiler:
    def test_disabled_by_default(self):
        assert PhaseProfiler().enabled is False

    def test_add_and_snapshot(self):
        prof = PhaseProfiler()
        prof.add("dispatch", count=10, ns=500, samples=2)
        prof.add("dispatch", count=5)
        snap = prof.snapshot()
        assert snap["dispatch"] == {"count": 15, "sampled_ns": 500, "samples": 2}
        for p in PHASES:
            assert p in snap
        prof.reset()
        assert prof.snapshot()["dispatch"]["count"] == 0

    def test_enable_phase_profiling_toggles_global(self):
        prof = enable_phase_profiling(True)
        try:
            assert prof.enabled is True
        finally:
            enable_phase_profiling(False)
        assert prof.enabled is False

    def test_kernels_report_phases_when_enabled(self):
        from repro.experiments.runner import run_overload_experiment
        from repro.obs.telemetry import PHASE_PROFILER
        from repro.runtime.spec import MonitorSpec
        from repro.sim.kernel import KernelConfig
        from repro.workload.generator import generate_taskset
        from repro.workload.scenarios import SHORT

        ts = generate_taskset(2015)
        enable_phase_profiling(True)
        try:
            for backend in ("reference", "soa"):
                PHASE_PROFILER.reset()
                run_overload_experiment(
                    ts, SHORT, MonitorSpec("simple", 0.6), horizon=2.0,
                    config=KernelConfig(backend=backend),
                )
                snap = PHASE_PROFILER.snapshot()
                assert snap["engine_pop"]["count"] > 0, backend
                assert snap["dispatch"]["count"] > 0, backend
        finally:
            enable_phase_profiling(False)
            PHASE_PROFILER.reset()

    def test_soa_dispatch_count_can_lag_events(self):
        """The soa dirty-flag skip makes dispatches <= events."""
        from repro.experiments.runner import run_overload_experiment
        from repro.obs.telemetry import PHASE_PROFILER
        from repro.runtime.spec import MonitorSpec
        from repro.sim.kernel import KernelConfig
        from repro.workload.generator import generate_taskset
        from repro.workload.scenarios import SHORT

        ts = generate_taskset(2015)
        enable_phase_profiling(True)
        try:
            PHASE_PROFILER.reset()
            run_overload_experiment(
                ts, SHORT, MonitorSpec("simple", 0.6), horizon=2.0,
                config=KernelConfig(backend="soa"),
            )
            snap = PHASE_PROFILER.snapshot()
            assert snap["dispatch"]["count"] <= snap["engine_pop"]["count"]
        finally:
            enable_phase_profiling(False)
            PHASE_PROFILER.reset()

    def test_profiling_does_not_change_results(self):
        from repro.experiments.runner import run_overload_experiment
        from repro.obs.telemetry import PHASE_PROFILER
        from repro.runtime.spec import MonitorSpec
        from repro.sim.kernel import KernelConfig
        from repro.workload.generator import generate_taskset
        from repro.workload.scenarios import SHORT

        ts = generate_taskset(7)
        for backend in ("reference", "soa"):
            config = KernelConfig(backend=backend)
            off = run_overload_experiment(
                ts, SHORT, MonitorSpec("simple", 0.6), horizon=2.0, config=config
            )
            enable_phase_profiling(True)
            try:
                on = run_overload_experiment(
                    ts, SHORT, MonitorSpec("simple", 0.6), horizon=2.0,
                    config=config,
                )
            finally:
                enable_phase_profiling(False)
                PHASE_PROFILER.reset()
            assert on == off, backend


class TestRssBytes:
    def test_returns_nonnegative_int(self):
        rss = rss_bytes()
        assert isinstance(rss, int)
        assert rss >= 0


class TestRenderStatus:
    def test_status_needs_a_campaign_manifest(self, tmp_path):
        # render_status reads shard state; without a campaign manifest the
        # shard reader raises — callers (the CLI) filter to campaign dirs.
        with pytest.raises(Exception):
            render_status(tmp_path)
