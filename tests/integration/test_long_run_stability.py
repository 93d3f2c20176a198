"""Integration: long-horizon stability and numeric robustness.

The event-driven kernel must stay healthy over long simulated horizons
(no unbounded job pools, no float-drift-induced invariant violations)
and with awkward non-grid task parameters.
"""

import math

import pytest

from repro.core.monitor import SimpleMonitor
from repro.core.virtual_time import SpeedProfile
from repro.model.behavior import ConstantBehavior, StochasticBehavior
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.kernel import KernelConfig, MC2Kernel
from tests.conftest import make_c_task


def awkward_tasks():
    """Periods/PWCETs chosen to be float-unfriendly (no common grid)."""
    return [
        Task(task_id=0, level=L.C, period=math.pi, pwcets={L.C: 0.7},
             relative_pp=2.1, tolerance=5.0),
        Task(task_id=1, level=L.C, period=math.e, pwcets={L.C: 1.1},
             relative_pp=1.9, tolerance=5.0),
        Task(task_id=2, level=L.C, period=math.sqrt(7), pwcets={L.C: 0.9},
             relative_pp=2.0, tolerance=5.0),
    ]


def test_long_run_pool_stays_bounded():
    """A schedulable system never accumulates incomplete jobs."""
    ts = TaskSet([make_c_task(i, 2.0 + i, 0.5, y=2.0, tolerance=5.0)
                  for i in range(4)], m=2)
    kernel = MC2Kernel(ts, behavior=ConstantBehavior())
    kernel.start()
    for horizon in (100.0, 300.0, 600.0):
        kernel.run_until(horizon)
        assert len(kernel.jobs_c) <= len(ts) + 1
    kernel.finish()
    assert kernel.engine.events_processed > 1500


def test_awkward_float_parameters_keep_invariants():
    ts = TaskSet(awkward_tasks(), m=2)
    kernel = MC2Kernel(ts, behavior=ConstantBehavior(),
                       config=KernelConfig(record_intervals=True))
    trace = kernel.run(200.0)
    # Executed time equals demand for completed jobs despite the
    # non-grid arithmetic.
    executed = {}
    for iv in trace.intervals:
        executed[(iv.task_id, iv.job_index)] = (
            executed.get((iv.task_id, iv.job_index), 0.0) + iv.length
        )
    for rec in trace.completed():
        assert executed[(rec.task_id, rec.index)] == pytest.approx(
            rec.exec_time, abs=1e-6
        )
    # Releases respect eq. 5 at float precision.
    for t in ts:
        recs = trace.jobs_of(t.task_id)
        for a, b in zip(recs, recs[1:]):
            assert b.release - a.release >= t.period - 1e-6


def test_long_stochastic_run_with_monitor():
    """Hours of stochastic load with occasional overruns: the monitor
    enters and leaves recovery repeatedly and the clock always returns
    to speed 1."""
    ts = TaskSet(
        [make_c_task(i, 2.0 + 0.5 * i, 0.8 + 0.1 * i, y=2.0, tolerance=0.3)
         for i in range(3)],
        m=2,
    )
    kernel = MC2Kernel(
        ts,
        behavior=StochasticBehavior(lo=0.4, hi=1.0, overrun_prob=0.05,
                                    overrun_factor=4.0, seed=11),
    )
    mon = SimpleMonitor(kernel, s=0.5)
    kernel.attach_monitor(mon)
    kernel.run(600.0)
    closed = [e for e in mon.episodes if e.end is not None]
    assert len(closed) >= 3, "stochastic overruns should trigger recovery repeatedly"
    # Every closed episode restored speed 1; speed changes alternate sanely.
    profile = SpeedProfile.from_segments(0.0, kernel.trace.speed_changes)
    assert profile.changes[-1].speed in (1.0, 0.5)
    if not mon.recovery_mode:
        assert kernel.clock.is_normal_speed


def test_virtual_time_consistency_over_many_speed_changes():
    """Hundreds of speed changes: clock state matches the full profile."""
    ts = TaskSet([make_c_task(0, 2.0, 0.5, y=1.5, tolerance=5.0)], m=1)
    kernel = MC2Kernel(ts, behavior=ConstantBehavior())
    kernel.start()
    t = 1.0
    speeds = [0.5, 0.25, 0.75, 1.0]
    for i in range(200):
        kernel.run_until(t)
        kernel.change_speed(speeds[i % len(speeds)])
        t += 1.0
    kernel.run_until(t + 5.0)
    kernel.finish()
    clock = kernel.clock
    profile = clock.profile()
    now = kernel.engine.now
    assert clock.act_to_virt(now) == pytest.approx(profile.v(now), rel=1e-9)
    assert len(profile.changes) == 201
