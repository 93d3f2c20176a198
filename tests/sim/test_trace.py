"""Tests for schedule traces (repro.sim.trace)."""

from dataclasses import astuple

import pytest

from repro.model.job import Job
from repro.model.task import CriticalityLevel as L
from repro.sim.diffcheck import DiffScenario, build_kernel, fingerprint, fingerprint_digest
from repro.sim.trace import ExecutionInterval, JobRecord, Trace
from tests.conftest import make_c_task


def done_job(tid=0, index=0, release=0.0, exec_time=1.0, completion=2.0, pp=None):
    j = Job(task=make_c_task(tid, 4.0, 1.0), index=index, release=release,
            exec_time=exec_time)
    j.completion = completion
    j.actual_pp = pp
    return j


class TestJobRecords:
    def test_record_and_query(self):
        tr = Trace()
        tr.record_job(done_job(0, 0, completion=2.0))
        tr.record_job(done_job(0, 1, release=4.0, completion=9.0))
        tr.record_job(done_job(1, 0, completion=3.0))
        assert len(tr.jobs_of(0)) == 2
        assert tr.job(0, 1).response_time == 5.0
        with pytest.raises(KeyError):
            tr.job(9, 9)

    def test_jobs_of_sorted_by_index(self):
        tr = Trace()
        tr.record_job(done_job(0, 2))
        tr.record_job(done_job(0, 0))
        assert [j.index for j in tr.jobs_of(0)] == [0, 2]

    def test_completed_filter(self):
        tr = Trace()
        tr.record_job(done_job(0, 0))
        incomplete = Job(task=make_c_task(0, 4.0, 1.0), index=1, release=4.0,
                         exec_time=1.0)
        tr.record_job(incomplete)
        assert len(tr.completed()) == 1
        assert len(tr.jobs) == 2

    def test_response_times_and_max(self):
        tr = Trace()
        tr.record_job(done_job(0, 0, release=0.0, completion=2.0))
        tr.record_job(done_job(0, 1, release=4.0, completion=9.0))
        assert sorted(tr.response_times(L.C)) == [2.0, 5.0]
        assert tr.max_response_time(L.C) == 5.0

    def test_max_response_time_empty_is_zero(self):
        assert Trace().max_response_time() == 0.0

    def test_pp_lateness(self):
        rec = Trace()
        rec.record_job(done_job(0, 0, completion=5.0, pp=3.0))
        assert rec.jobs[0].pp_lateness == 2.0
        rec.record_job(done_job(0, 1, completion=5.0, pp=None))
        assert rec.jobs[1].pp_lateness is None


class TestIntervals:
    def test_disabled_by_default(self):
        tr = Trace()
        tr.record_interval(0, done_job(), 0.0, 1.0)
        assert tr.intervals == []

    def test_recording_and_queries(self):
        tr = Trace(record_intervals=True)
        j = done_job(0, 0)
        tr.record_interval(0, j, 0.0, 1.0)
        tr.record_interval(1, j, 2.0, 3.0)
        tr.record_interval(0, done_job(1, 0), 1.0, 2.0)
        assert len(tr.intervals_of(0)) == 2
        assert [iv.cpu for iv in tr.intervals_of(0)] == [0, 1]
        assert len(tr.busy_intervals(0)) == 2
        assert tr.busy_intervals(0)[0].length == 1.0

    def test_empty_interval_dropped(self):
        tr = Trace(record_intervals=True)
        tr.record_interval(0, done_job(), 1.0, 1.0)
        assert tr.intervals == []

    def test_render_ascii_requires_intervals(self):
        with pytest.raises(ValueError, match="disabled"):
            Trace().render_ascii([], 10.0)

    def test_render_ascii_shows_execution(self):
        tr = Trace(record_intervals=True)
        t = make_c_task(1, 4.0, 2.0, name="x1")
        j = Job(task=t, index=0, release=0.0, exec_time=2.0)
        tr.record_interval(0, j, 0.0, 2.0)
        art = tr.render_ascii([t], 4.0, resolution=1.0)
        assert "CPU0" in art
        row = [l for l in art.splitlines() if l.startswith("CPU0")][0]
        assert row.count("1") == 2
        assert row.count(".") == 2


class TestSpeedChanges:
    def test_recorded_in_order(self):
        tr = Trace()
        tr.record_speed_change(19.0, 0.5)
        tr.record_speed_change(29.0, 1.0)
        assert tr.speed_changes == [(19.0, 0.5), (29.0, 1.0)]


# ----------------------------------------------------------------------
# Rows: the kernels record tuples; records are built on first read
# ----------------------------------------------------------------------
#: Recovery (speed changes, actualized PPs), zero-demand jobs, level-D
#: work, a traffic bank and intervals, on four and on two CPUs.
ROW_SCENARIOS = (
    DiffScenario(seed=3, behavior="SHORT", monitor="simple", monitor_arg=0.6,
                 horizon=2.0, zero_every=5, level_d_tasks=2),
    DiffScenario(seed=8, m=2, behavior="DOUBLE", monitor="adaptive",
                 monitor_arg=0.8, horizon=3.0, traffic="poisson"),
)


def old_fingerprint(trace, kernel, monitor):
    """diffcheck.fingerprint as it read the records."""
    return {
        "jobs": [
            (r.task_id, r.level.name, r.index, r.release, r.exec_time,
             r.completion, r.actual_pp, r.virtual_release, r.virtual_pp)
            for r in trace.jobs
        ],
        "intervals": [
            (iv.cpu, iv.task_id, iv.job_index, iv.start, iv.end)
            for iv in trace.intervals
        ],
        "speed_changes": list(trace.speed_changes),
        "preemptions": kernel.preemptions,
        "migrations": kernel.migrations,
        "events_processed": kernel.events_processed,
        "misses": monitor.miss_count,
        "episodes": [(ep.start, ep.end) for ep in monitor.episodes],
    }


def old_max_response_time(trace, level):
    """Trace.max_response_time as it read the records."""
    rs = [j.response_time for j in trace.completed(level)]
    return max(rs) if rs else 0.0


@pytest.fixture(
    params=[(sc, b) for sc in ROW_SCENARIOS for b in ("reference", "soa")],
    ids=lambda p: f"{p[0].behavior}-{p[1]}",
)
def kernel_run(request):
    sc, backend = request.param
    kernel, monitor = build_kernel(sc, backend)
    return kernel.run(sc.horizon), kernel, monitor


class TestRows:
    def test_lazy_records_equal_eager_ones(self, kernel_run):
        trace = kernel_run[0]
        assert trace.job_rows and trace.interval_rows
        # Eager: one dataclass constructed per job, as recording once did.
        assert trace.jobs == [JobRecord(*row) for row in trace.job_rows]
        assert trace.intervals == [
            ExecutionInterval(*row) for row in trace.interval_rows
        ]
        assert [astuple(r) for r in trace.jobs] == trace.job_rows
        assert trace.jobs is trace.jobs and trace.intervals is trace.intervals

    def test_value_readers_equal_record_readers(self, kernel_run):
        trace, kernel, monitor = kernel_run
        # Row readers first, while no record exists; then the record readers.
        fp = fingerprint(trace, kernel, monitor)
        maxima = {lvl: trace.max_response_time(lvl) for lvl in L}
        assert fp == old_fingerprint(trace, kernel, monitor)
        assert fingerprint_digest(fp) == fingerprint_digest(
            old_fingerprint(trace, kernel, monitor)
        )
        assert maxima == {lvl: old_max_response_time(trace, lvl) for lvl in L}
        assert maxima[L.C] > 0.0

    def test_external_append_keeps_recording_order(self):
        tr = Trace(record_intervals=True)
        tr.record_job(done_job(0, 0, completion=2.0))
        tr.record_job(done_job(0, 1, release=4.0, completion=9.0))
        outside = JobRecord(task_id=1, level=L.C, index=0, release=0.0,
                            exec_time=1.0, completion=30.0, actual_pp=None)
        tr.jobs.append(outside)
        tr.record_job(done_job(0, 2, release=8.0, completion=10.0))
        order = [(0, 0), (0, 1), (1, 0), (0, 2)]
        assert [(r.task_id, r.index) for r in tr.jobs] == order
        assert [(row[0], row[2]) for row in tr.job_values()] == order
        assert tr.job(1, 0) is outside
        assert [r.index for r in tr.jobs_of(0)] == [0, 1, 2]
        assert tr.max_response_time(L.C) == 30.0  # the appended record counts

        tr.record_interval(0, done_job(0, 0), 0.0, 1.0)
        extra = ExecutionInterval(cpu=1, task_id=1, job_index=0, start=0.0, end=3.0)
        tr.intervals.append(extra)
        tr.record_interval(0, done_job(0, 1), 4.0, 5.0)
        assert [iv.start for iv in tr.intervals] == [0.0, 0.0, 4.0]
        assert tr.interval_values()[1] == astuple(extra)
