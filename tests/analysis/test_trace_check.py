"""Tests for the offline trace checker (repro.analysis.trace_check)."""

from types import SimpleNamespace
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace_check import (
    MonitorVerdict,
    idle_normal_instants,
    is_idle_normal_instant,
    job_misses_tolerance,
    pending_jobs_at,
    verify_monitor_decisions,
)
from repro.core.monitor import RecoveryEpisode, SimpleMonitor
from repro.core.tolerance import fixed_tolerances
from repro.experiments.examples_fig2 import figure2_taskset, run_example
from repro.model.job import Job
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.kernel import KernelConfig, MC2Kernel
from repro.sim.trace import JobRecord, Trace
from tests.conftest import make_c_task


def record(task, index, release, completion, pp=None):
    j = Job(task=task, index=index, release=release, exec_time=1.0)
    j.completion = completion
    j.actual_pp = pp
    tr = Trace()
    tr.record_job(j)
    return tr.jobs[0]


@pytest.fixture
def simple_ts():
    return fixed_tolerances(
        TaskSet([make_c_task(0, 4.0, 1.0, y=3.0), make_c_task(1, 6.0, 2.0, y=5.0)], m=2),
        2.0,
    )


class TestDef1:
    def test_completing_before_pp_meets(self, simple_ts):
        rec = record(simple_ts[0], 0, 0.0, 2.0, pp=None)
        assert not job_misses_tolerance(rec, simple_ts)

    def test_boundary_meets(self, simple_ts):
        rec = record(simple_ts[0], 0, 0.0, 5.0, pp=3.0)  # y + xi exactly
        assert not job_misses_tolerance(rec, simple_ts)

    def test_miss(self, simple_ts):
        rec = record(simple_ts[0], 0, 0.0, 5.5, pp=3.0)
        assert job_misses_tolerance(rec, simple_ts)

    def test_missing_tolerance_raises(self):
        ts = TaskSet([make_c_task(0, 4.0, 1.0, y=3.0)], m=1)
        rec = record(ts[0], 0, 0.0, 5.5, pp=3.0)
        with pytest.raises(ValueError, match="tolerance"):
            job_misses_tolerance(rec, ts)


class TestPendingAndIdle:
    def test_pending_window(self, simple_ts):
        tr = Trace()
        j = Job(task=simple_ts[0], index=0, release=1.0, exec_time=1.0)
        j.completion = 3.0
        tr.record_job(j)
        assert len(pending_jobs_at(tr, 0.5)) == 0
        assert len(pending_jobs_at(tr, 1.0)) == 1
        assert len(pending_jobs_at(tr, 2.9)) == 1
        assert len(pending_jobs_at(tr, 3.0)) == 0

    def test_idle_normal_requires_idle_cpu(self, simple_ts):
        """With as many eligible pending jobs as CPUs, not idle."""
        tr = Trace()
        for tid in (0, 1):
            j = Job(task=simple_ts[tid], index=0, release=0.0, exec_time=1.0)
            j.completion = 5.0
            tr.record_job(j)
        assert not is_idle_normal_instant(tr, simple_ts, 1.0)
        # With only one CPU available it is even less idle.
        assert not is_idle_normal_instant(tr, simple_ts, 1.0, available_cpus=1)

    def test_precedence_blocked_successors_dont_occupy_cpus(self, simple_ts):
        """Two pending jobs of ONE task count as one eligible job."""
        tr = Trace()
        for k in (0, 1):
            j = Job(task=simple_ts[0], index=k, release=float(k), exec_time=1.0)
            j.completion = 10.0 + k
            j.actual_pp = None
            tr.record_job(j)
        # Both pending at t=5, but only the head is eligible: a CPU idles.
        # They complete in time (pp unresolved = met): idle normal instant.
        assert is_idle_normal_instant(tr, simple_ts, 5.0)

    def test_pending_miss_blocks(self, simple_ts):
        tr = Trace()
        j = Job(task=simple_ts[0], index=0, release=0.0, exec_time=1.0)
        j.completion = 20.0
        j.actual_pp = 3.0  # lateness 17 > xi
        tr.record_job(j)
        assert not is_idle_normal_instant(tr, simple_ts, 5.0)

    def test_unfinished_pending_blocks(self, simple_ts):
        tr = Trace()
        j = Job(task=simple_ts[0], index=0, release=0.0, exec_time=1.0)
        tr.record_job(j)  # never completed
        assert not is_idle_normal_instant(tr, simple_ts, 5.0)

    def test_filter_helper(self, simple_ts):
        tr = Trace()
        j = Job(task=simple_ts[0], index=0, release=0.0, exec_time=1.0)
        j.completion = 2.0
        tr.record_job(j)
        out = idle_normal_instants(tr, simple_ts, [1.0, 3.0])
        assert out == [1.0, 3.0] or out == [3.0]  # 1.0: one pending job < 2 CPUs


class TestVerifyMonitorDecisions:
    def test_fig2c_recovery_justified(self):
        """The Fig. 2(c) episode exit is a genuine idle normal instant."""
        run = run_example(figure2_taskset(), overloaded=True,
                          recovery_speed=0.5, until=72.0)
        verdict = verify_monitor_decisions(run.monitor, run.trace, run.kernel.taskset)
        assert verdict.episodes_checked == 1
        assert verdict.ok, verdict.violations

    def test_generated_workload_episodes_justified(self):
        from repro.workload.generator import GeneratorParams, generate_taskset
        from repro.workload.scenarios import SHORT
        from repro.sim.budgets import BudgetEnforcedBehavior

        ts = generate_taskset(seed=8, params=GeneratorParams(m=2))
        kernel = MC2Kernel(
            ts,
            behavior=BudgetEnforcedBehavior(SHORT.behavior(), enforce_c=True),
            config=KernelConfig(),
        )
        mon = SimpleMonitor(kernel, s=0.5)
        kernel.attach_monitor(mon)
        trace = kernel.run(10.0)
        verdict = verify_monitor_decisions(mon, trace, ts)
        assert verdict.episodes_checked >= 1
        assert verdict.ok, verdict.violations


# ----------------------------------------------------------------------
# The sweep against the per-instant definitions
# ----------------------------------------------------------------------
def reference_verify_monitor_decisions(monitor, trace, ts, probe_back=1e-6):
    """The per-probe loop the sweep replaced: every probe rescans the trace."""
    violations: List[Tuple[float, str]] = []
    checked = 0
    completions = sorted(
        rec.completion
        for rec in trace.jobs
        if rec.level is L.C and rec.completion is not None
    )
    for ep in monitor.episodes:
        if ep.end is None:
            continue
        checked += 1
        probes = [ep.end - probe_back]
        probes.extend(c for c in completions if ep.start <= c <= ep.end)
        if not any(is_idle_normal_instant(trace, ts, p) for p in probes):
            violations.append(
                (ep.end, "no idle normal instant found within the episode")
            )
    return MonitorVerdict(episodes_checked=checked, violations=tuple(violations))


#: A coarse time grid, so releases, completions, PPs and probes collide.
instants = st.integers(min_value=0, max_value=24).map(lambda k: k * 0.5)


@st.composite
def level_c_histories(draw):
    """A task set plus a trace and episodes: incomplete jobs, Def. 1
    misses (and exact-boundary hits), equal release and completion
    instants, zero-length jobs, several jobs per task, level-A noise,
    and closed and open episodes."""
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    tasks = [
        make_c_task(tid, 4.0, 1.0, y=2.0,
                    tolerance=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
        for tid in range(n)
    ]
    ts = TaskSet(tasks + [Task(task_id=n, level=L.A, period=4.0,
                               pwcets={L.A: 1.0}, cpu=0)], m=m)
    trace = Trace()
    next_index = {}
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        tid = draw(st.integers(min_value=0, max_value=n))
        index = next_index.get(tid, 0)
        next_index[tid] = index + 1
        release = draw(instants)
        completion = None
        actual_pp = None
        if draw(st.integers(min_value=0, max_value=4)):  # 1 in 5 unfinished
            completion = release + draw(instants)  # 0.0: a zero-length job
            if draw(st.booleans()):  # completed after its PP: Def. 1 applies
                actual_pp = completion - draw(instants)
        trace.jobs.append(JobRecord(
            task_id=tid, level=ts[tid].level, index=index, release=release,
            exec_time=1.0, completion=completion, actual_pp=actual_pp,
        ))
    episodes = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        start = draw(instants)
        end = None if draw(st.integers(min_value=0, max_value=4)) == 0 else (
            start + draw(instants)
        )
        episodes.append(RecoveryEpisode(start=start, end=end, trigger=(0, 0)))
    return ts, trace, SimpleNamespace(episodes=episodes)


@given(level_c_histories(), st.sampled_from([1e-6, 0.5]))
@settings(max_examples=300, deadline=None)
def test_sweep_verdict_equals_per_probe_scan(history, probe_back):
    ts, trace, monitor = history
    assert verify_monitor_decisions(monitor, trace, ts, probe_back) == (
        reference_verify_monitor_decisions(monitor, trace, ts, probe_back)
    )


@given(level_c_histories(), st.lists(instants | st.floats(0.0, 13.0), max_size=12))
@settings(max_examples=300, deadline=None)
def test_idle_normal_instants_equal_per_instant_filter(history, probes):
    ts, trace, _ = history
    assert idle_normal_instants(trace, ts, probes) == [
        t for t in probes if is_idle_normal_instant(trace, ts, t)
    ]
