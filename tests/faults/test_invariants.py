"""Unit tests for the invariant oracles against synthetic run artifacts
(the end-to-end pairing with real faults lives in test_plane.py)."""

from __future__ import annotations

from dataclasses import astuple
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import RecoveryEpisode
from repro.core.tolerance import fixed_tolerances
from repro.faults.invariants import (
    INVARIANT_NAMES,
    Violation,
    _Collector,
    _MAX_PER_INVARIANT,
    _check_ab_isolation,
    _check_gel_order,
    _check_speed_bounds,
    evaluate_invariants,
)
from repro.faults.plane import FAULT_TASK_BASE_ID
from repro.model.job import Job
from repro.model.task import CriticalityLevel
from repro.model.taskset import TaskSet
from repro.sim.trace import ExecutionInterval, JobRecord, Trace
from tests.conftest import make_c_task


def _job(level, task_id, index, release, completion, virtual_pp=None):
    return JobRecord(
        task_id=task_id,
        level=level,
        index=index,
        release=release,
        exec_time=0.0,
        completion=completion,
        actual_pp=None,
        virtual_pp=virtual_pp,
    )


def _interval(task_id, job_index, start, end):
    return ExecutionInterval(
        cpu=0, task_id=task_id, job_index=job_index, start=start, end=end
    )


def _trace(jobs, intervals=(), rows=0):
    """A hand-built trace: the first *rows* jobs and intervals recorded
    as rows (as the kernels do), the rest appended to ``jobs`` /
    ``intervals`` from outside."""
    trace = Trace(record_intervals=True)
    trace.job_rows.extend(astuple(j) for j in jobs[:rows])
    trace.interval_rows.extend(astuple(iv) for iv in intervals[:rows])
    trace.jobs.extend(jobs[rows:])
    trace.intervals.extend(intervals[rows:])
    return trace


class _FakeTS:
    """Minimal TaskSet stand-in: indexable by task id, fixed period."""

    def __init__(self, period=1.0):
        self._period = period

    def __getitem__(self, task_id):
        return SimpleNamespace(period=self._period)


class TestViolation:
    def test_dict_roundtrip(self):
        v = Violation("ab_isolation", 1.5, "late", task=3, job=7)
        assert Violation.from_dict(v.to_dict()) == v

    def test_optional_fields_omitted(self):
        doc = Violation("speed_bounds", 0.0, "bad").to_dict()
        assert "task" not in doc and "job" not in doc


class TestCollectorCap:
    def test_per_invariant_cap(self):
        sink = _Collector()
        for i in range(_MAX_PER_INVARIANT + 10):
            sink.add(Violation("ab_isolation", float(i), f"v{i}"))
        assert len(sink.violations) == _MAX_PER_INVARIANT
        assert "suppressed" in sink.violations[-1].message

    def test_cap_is_per_invariant(self):
        sink = _Collector()
        sink.add(Violation("ab_isolation", 0.0, "a"))
        sink.add(Violation("speed_bounds", 0.0, "b"))
        assert len(sink.violations) == 2


class TestAbIsolation:
    def test_miss_and_never_completed_flagged(self):
        trace = _trace(
            [
                _job(CriticalityLevel.A, 1, 0, release=0.0, completion=1.5),
                _job(CriticalityLevel.B, 2, 0, release=0.0, completion=None),
                _job(CriticalityLevel.A, 3, 0, release=0.0, completion=0.9),
            ],
            rows=1,
        )
        sink = _Collector()
        _check_ab_isolation(trace, _FakeTS(period=1.0), sim_end=10.0, sink=sink)
        assert len(sink.violations) == 2
        assert {v.task for v in sink.violations} == {1, 2}

    def test_level_c_and_stall_hogs_exempt(self):
        trace = _trace(
            [
                _job(CriticalityLevel.C, 1, 0, release=0.0, completion=5.0),
                _job(
                    CriticalityLevel.A,
                    FAULT_TASK_BASE_ID,
                    0,
                    release=0.0,
                    completion=5.0,
                ),
            ]
        )
        sink = _Collector()
        _check_ab_isolation(trace, _FakeTS(period=1.0), sim_end=10.0, sink=sink)
        assert sink.violations == []

    def test_incomplete_job_inside_horizon_is_fine(self):
        trace = _trace([_job(CriticalityLevel.A, 1, 0, release=9.5, completion=None)])
        sink = _Collector()
        _check_ab_isolation(trace, _FakeTS(period=1.0), sim_end=10.0, sink=sink)
        assert sink.violations == []


class TestSpeedBounds:
    def test_out_of_range_and_order(self):
        trace = SimpleNamespace(
            speed_changes=[(1.0, 0.5), (0.5, 0.7), (2.0, 1.5)]
        )
        sink = _Collector()
        _check_speed_bounds(trace, None, sink)
        msgs = [v.message for v in sink.violations]
        assert any("precedes" in m for m in msgs)
        assert any("outside" in m for m in msgs)

    def test_monitor_floor(self):
        trace = SimpleNamespace(speed_changes=[(1.0, 0.3), (2.0, 1.0)])
        sink = _Collector()
        _check_speed_bounds(trace, 0.6, sink)
        assert len(sink.violations) == 1
        assert "floor" in sink.violations[0].message

    def test_clean_sequence(self):
        trace = SimpleNamespace(speed_changes=[(1.0, 0.6), (2.0, 1.0)])
        sink = _Collector()
        _check_speed_bounds(trace, 0.6, sink)
        assert sink.violations == []


class TestGelOrder:
    def test_priority_inversion_detected(self):
        # Job (1,0) has the smaller GEL-v key and waits over (2, 3)
        # while lower-priority (2,0) runs: an inversion.
        jobs = [
            _job(CriticalityLevel.C, 1, 0, 2.0, 5.0, virtual_pp=1.0),
            _job(CriticalityLevel.C, 2, 0, 0.0, 4.0, virtual_pp=9.0),
        ]
        intervals = [
            _interval(2, 0, 0.0, 4.0),
            _interval(1, 0, 3.0, 5.0),
        ]
        sink = _Collector()
        _check_gel_order(_trace(jobs, intervals, rows=1), sink)
        assert len(sink.violations) >= 1
        assert sink.violations[0].task == 1

    def test_correct_order_is_clean(self):
        jobs = [
            _job(CriticalityLevel.C, 1, 0, 0.0, 2.0, virtual_pp=1.0),
            _job(CriticalityLevel.C, 2, 0, 0.0, 4.0, virtual_pp=9.0),
        ]
        intervals = [
            _interval(1, 0, 0.0, 2.0),
            _interval(2, 0, 2.0, 4.0),
        ]
        sink = _Collector()
        _check_gel_order(_trace(jobs, intervals, rows=1), sink)
        assert sink.violations == []


def reference_check_gel_order(trace, sink):
    """The scan the sorted-heads sweep replaced: every open interval
    takes ``min`` over every pending task's pending jobs."""
    Key = Tuple[float, int, int]
    key_of: Dict[Tuple[int, int], Key] = {}
    events: Dict[float, List[Tuple[str, Any]]] = {}

    def at(t: float) -> List[Tuple[str, Any]]:
        lst = events.get(t)
        if lst is None:
            lst = events[t] = []
        return lst

    for rec in trace.jobs:
        if rec.level is not CriticalityLevel.C or rec.virtual_pp is None:
            continue
        jid = (rec.task_id, rec.index)
        key_of[jid] = (rec.virtual_pp, rec.task_id, rec.index)
        at(rec.release).append(("add", jid))
        if rec.completion is not None:
            at(rec.completion).append(("del", jid))
    for iv in trace.intervals:
        jid = (iv.task_id, iv.job_index)
        if jid not in key_of:
            continue
        at(iv.start).append(("run", jid))
        at(iv.end).append(("stop", jid))

    pending: Dict[int, Dict[int, Key]] = {}
    running: Dict[Tuple[int, int], int] = {}
    times = sorted(events)
    for pos, t in enumerate(times):
        for action, jid in events[t]:
            tid, idx = jid
            if action == "add":
                pending.setdefault(tid, {})[idx] = key_of[jid]
            elif action == "del":
                task_pend = pending.get(tid)
                if task_pend is not None:
                    task_pend.pop(idx, None)
                    if not task_pend:
                        del pending[tid]
            elif action == "run":
                running[jid] = running.get(jid, 0) + 1
            else:
                n = running.get(jid, 0) - 1
                if n <= 0:
                    running.pop(jid, None)
                else:
                    running[jid] = n
        if pos + 1 >= len(times):
            break
        nxt = times[pos + 1]
        if nxt - t <= 1e-12 or not running:
            continue
        max_run: Optional[Key] = None
        run_jid: Optional[Tuple[int, int]] = None
        for jid in running:
            k = key_of[jid]
            if max_run is None or k > max_run:
                max_run, run_jid = k, jid
        min_wait: Optional[Key] = None
        wait_jid: Optional[Tuple[int, int]] = None
        for tid, task_pend in pending.items():
            head_idx = min(task_pend)
            if (tid, head_idx) in running:
                continue
            k = task_pend[head_idx]
            if min_wait is None or k < min_wait:
                min_wait, wait_jid = k, (tid, head_idx)
        if min_wait is not None and max_run is not None and min_wait < max_run:
            mid = (t + nxt) / 2.0
            sink.add(
                Violation(
                    invariant="gel_order",
                    t=mid,
                    message=(
                        f"eligible head {wait_jid} (key {min_wait}) waits over "
                        f"({t:.6f}, {nxt:.6f}) while lower-priority {run_jid} "
                        f"(key {max_run}) runs"
                    ),
                    task=wait_jid[0],
                    job=wait_jid[1],
                )
            )


#: Grid instants (ties) with an occasional sub-1e-12 nudge, so some
#: inter-event intervals are too short to check.
grid_times = st.tuples(
    st.integers(min_value=0, max_value=16), st.sampled_from([0.0, 0.0, 0.0, 1e-13])
).map(lambda p: p[0] * 0.5 + p[1])


@st.composite
def level_c_schedules(draw):
    """Level-C jobs (several per task, equal keys across tasks, missing
    v(y), unfinished and zero-length jobs, level-A noise) and execution
    intervals that may overlap, outlive their job or invert priorities."""
    n = draw(st.integers(min_value=1, max_value=4))
    jobs = []
    for tid in range(n + 1):  # task n is level A
        level = CriticalityLevel.A if tid == n else CriticalityLevel.C
        for index in range(draw(st.integers(min_value=0, max_value=4))):
            release = draw(grid_times)
            completion = None
            if draw(st.integers(min_value=0, max_value=5)):
                completion = release + draw(grid_times)
            vpp = draw(st.none() | st.integers(0, 8).map(float))
            jobs.append(_job(level, tid, index, release, completion, virtual_pp=vpp))
    jids = [(j.task_id, j.index) for j in jobs] or [(0, 0)]
    intervals = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        tid, idx = draw(st.sampled_from(jids + [(n + 1, 0)]))
        start = draw(grid_times)
        intervals.append(_interval(tid, idx, start, start + draw(grid_times)))
    draw(st.randoms()).shuffle(jobs)  # records arrive in completion order
    # Some recorded as rows, the rest appended from outside.
    return _trace(jobs, intervals, rows=draw(st.integers(0, len(jobs))))


@given(level_c_schedules())
@settings(max_examples=400, deadline=None)
def test_gel_order_sweep_equals_full_scan(trace):
    fast, slow = _Collector(), _Collector()
    _check_gel_order(trace, fast)
    reference_check_gel_order(trace, slow)
    assert fast.violations == slow.violations


class TestRecoveryExit:
    def test_episode_without_idle_normal_instant_is_a_violation(self):
        # Both tasks stay pending over [1, 5] on m = 2 CPUs, so no instant
        # in the first episode is idle normal (Def. 2); the second one
        # reaches the idle normal completion at 6.
        ts = fixed_tolerances(
            TaskSet([make_c_task(0, 4.0, 1.0, y=3.0), make_c_task(1, 6.0, 2.0, y=5.0)], m=2),
            2.0,
        )
        trace = Trace()
        for tid, completion in ((0, 6.0), (1, 7.0)):
            j = Job(task=ts[tid], index=0, release=0.0, exec_time=1.0)
            j.completion = completion
            trace.record_job(j)
        output = SimpleNamespace(
            trace=trace,
            result=SimpleNamespace(sim_end=8.0),
            monitor=SimpleNamespace(
                episodes=[
                    RecoveryEpisode(start=1.0, end=5.0, trigger=(0, 0)),
                    RecoveryEpisode(start=1.0, end=7.0, trigger=(0, 0)),
                ],
                recovery_mode=False,
            ),
            kernel=SimpleNamespace(clock=SimpleNamespace(is_normal_speed=True)),
        )
        report = evaluate_invariants(output, ts)
        assert report.violations == (
            Violation(
                invariant="recovery_exit",
                t=5.0,
                message="no idle normal instant found within the episode",
            ),
        )


def test_invariant_names_are_stable():
    assert INVARIANT_NAMES == (
        "ab_isolation",
        "speed_bounds",
        "recovery_closure",
        "gel_order",
        "recovery_exit",
    )
