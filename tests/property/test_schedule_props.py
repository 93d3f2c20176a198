"""Property tests: schedule invariants on randomly generated task systems.

Random small level-C task sets (with random per-job execution times that
may overrun — the SVO model) are simulated under random recovery
slowdowns; structural invariants must hold for every generated schedule.
"""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.virtual_time import SpeedProfile
from repro.model.behavior import ExecutionBehavior
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.kernel import KernelConfig, MC2Kernel

HORIZON = 30.0


@st.composite
def systems(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    tasks = []
    exec_tables = {}
    for tid in range(n):
        period = draw(st.floats(min_value=1.0, max_value=8.0))
        pwcet = draw(st.floats(min_value=0.1, max_value=period))
        y = draw(st.floats(min_value=0.0, max_value=period))
        tasks.append(
            Task(task_id=tid, level=L.C, period=period,
                 pwcets={L.C: pwcet}, relative_pp=y, tolerance=1.0)
        )
        # Per-job execution times: sometimes overrunning the PWCET.
        exec_tables[tid] = draw(
            st.lists(st.floats(min_value=0.05, max_value=2.0 * pwcet),
                     min_size=1, max_size=8)
        )
    speed_changes = draw(
        st.lists(
            st.tuples(st.floats(min_value=0.5, max_value=HORIZON - 1.0),
                      st.floats(min_value=0.1, max_value=1.0)),
            max_size=3,
        )
    )
    speed_changes = sorted(speed_changes)
    return m, tasks, exec_tables, speed_changes


class TableBehavior(ExecutionBehavior):
    def __init__(self, tables):
        self.tables = tables

    def exec_time(self, task, job_index, release):
        xs = self.tables[task.task_id]
        return xs[job_index % len(xs)]


def simulate_system(system):
    m, tasks, exec_tables, speed_changes = system
    ts = TaskSet(tasks, m=m)
    kernel = MC2Kernel(ts, behavior=TableBehavior(exec_tables),
                       config=KernelConfig(record_intervals=True))
    kernel.start()
    for t_change, s in speed_changes:
        kernel.run_until(t_change)
        kernel.change_speed(s)
    kernel.run_until(HORIZON)
    trace = kernel.finish()
    return ts, trace


@given(systems())
@settings(max_examples=60, deadline=None)
def test_cpu_and_job_exclusivity(system):
    _, trace = simulate_system(system)
    by_cpu = collections.defaultdict(list)
    by_job = collections.defaultdict(list)
    for iv in trace.intervals:
        by_cpu[iv.cpu].append(iv)
        by_job[(iv.task_id, iv.job_index)].append(iv)
    for ivs in list(by_cpu.values()) + list(by_job.values()):
        ivs.sort(key=lambda iv: iv.start)
        for a, b in zip(ivs, ivs[1:]):
            assert a.end <= b.start + 1e-9


@given(systems())
@settings(max_examples=60, deadline=None)
def test_completed_jobs_got_exactly_their_demand(system):
    _, trace = simulate_system(system)
    executed = collections.defaultdict(float)
    for iv in trace.intervals:
        executed[(iv.task_id, iv.job_index)] += iv.length
    for rec in trace.completed():
        assert abs(executed[(rec.task_id, rec.index)] - rec.exec_time) < 1e-6


@given(systems())
@settings(max_examples=60, deadline=None)
def test_releases_respect_virtual_separation(system):
    """Eq. 5 holds under arbitrary injected speed changes."""
    ts, trace = simulate_system(system)
    profile = SpeedProfile.from_segments(0.0, trace.speed_changes)
    by_task = collections.defaultdict(list)
    for rec in trace.jobs:
        by_task[rec.task_id].append(rec)
    for tid, recs in by_task.items():
        recs.sort(key=lambda r: r.index)
        for a, b in zip(recs, recs[1:]):
            sep = profile.v(b.release) - profile.v(a.release)
            assert sep >= ts[tid].period - 1e-6


@given(systems())
@settings(max_examples=60, deadline=None)
def test_work_conservation_for_level_c(system):
    """No eligible job waits while a CPU idles.

    Reconstructed from intervals: at each job release instant, if fewer
    jobs run than there are CPUs, then every non-running pending job must
    be precedence-blocked (an earlier job of the same task pending).
    """
    ts, trace = simulate_system(system)
    m = ts.m
    events = sorted({r.release for r in trace.jobs if r.release < HORIZON - 1e-3})
    recs = list(trace.jobs)
    for t in events:
        probe = t + 1e-7
        pending = [r for r in recs
                   if r.release <= probe and (r.completion is None or r.completion > probe)]
        running = set()
        for iv in trace.intervals:
            if iv.start <= probe < iv.end:
                running.add((iv.task_id, iv.job_index))
        if len(running) >= m:
            continue
        heads = {}
        for r in pending:
            cur = heads.get(r.task_id)
            if cur is None or r.index < cur:
                heads[r.task_id] = r.index
        for r in pending:
            jid = (r.task_id, r.index)
            if jid in running:
                continue
            assert r.index != heads[r.task_id] or len(running) >= m, (
                f"eligible job {jid} idle at {probe} with {len(running)}/{m} CPUs busy"
            )


@given(systems())
@settings(max_examples=40, deadline=None)
def test_deterministic_replay(system):
    ts1, trace1 = simulate_system(system)
    ts2, trace2 = simulate_system(system)
    assert len(trace1.jobs) == len(trace2.jobs)
    for a, b in zip(trace1.jobs, trace2.jobs):
        assert (a.task_id, a.index, a.release, a.completion) == (
            b.task_id, b.index, b.release, b.completion
        )
