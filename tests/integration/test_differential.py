"""Differential testing: event-driven kernel vs. quantum-stepped reference.

On systems whose parameters (phases, periods, execution times, speed
changes) are integral multiples of the reference quantum, the
event-driven kernel and the obviously-correct time-stepped reference
simulator must agree on every release and completion instant.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.behavior import TraceBehavior
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.kernel import MC2Kernel
from repro.sim.reference import simulate_reference

QUANTUM = 0.5
HORIZON = 40.0


def c_task(tid, period, pwcet, y, phase=0.0):
    return Task(task_id=tid, level=L.C, period=period, pwcets={L.C: pwcet},
                relative_pp=y, phase=phase)


def run_kernel(tasks, m, behavior, speed_changes):
    kernel = MC2Kernel(TaskSet(tasks, m=m), behavior=behavior)
    kernel.start()
    for t_change, s in speed_changes:
        kernel.run_until(t_change)
        kernel.change_speed(s)
    kernel.run_until(HORIZON)
    return kernel.finish()


def compare(tasks, m, exec_overrides=None, speed_changes=()):
    behavior = TraceBehavior(exec_overrides or {})
    trace = run_kernel(tasks, m, behavior, speed_changes)
    ref = simulate_reference(
        tasks, m, HORIZON, quantum=QUANTUM,
        behavior=TraceBehavior(exec_overrides or {}),
        speed_changes=speed_changes,
    )
    ref_jobs = {(j.task_id, j.index): j for j in ref.jobs}
    kernel_jobs = {
        (r.task_id, r.index): r
        for r in trace.jobs
        # Ignore the horizon fringe: the two simulators may disagree on
        # whether a job releasing exactly at the horizon exists.
        if r.release < HORIZON - 2 * QUANTUM
    }
    assert set(kernel_jobs) <= set(ref_jobs)
    mismatches = []
    for key, kj in kernel_jobs.items():
        rj = ref_jobs[key]
        if abs(kj.release - rj.release) > 1e-9:
            mismatches.append((key, "release", kj.release, rj.release))
        kc = kj.completion
        rc = rj.completion
        if kc is not None and rc is not None and abs(kc - rc) > 1e-9:
            mismatches.append((key, "completion", kc, rc))
    assert not mismatches, mismatches[:5]
    return trace, ref


class TestDifferentialBasics:
    def test_single_task(self):
        compare([c_task(0, 4.0, 1.5, y=3.0)], m=1)

    def test_two_tasks_one_cpu(self):
        compare([c_task(0, 4.0, 1.0, y=2.0), c_task(1, 6.0, 2.5, y=5.0)], m=1)

    def test_three_tasks_two_cpus(self):
        compare(
            [c_task(0, 4.0, 2.0, y=3.0), c_task(1, 6.0, 3.0, y=5.0),
             c_task(2, 8.0, 3.5, y=6.0)],
            m=2,
        )

    def test_phases(self):
        compare(
            [c_task(0, 4.0, 1.0, y=2.0, phase=1.0),
             c_task(1, 6.0, 2.0, y=4.0, phase=2.5)],
            m=1,
        )

    def test_overrun_with_precedence(self):
        compare(
            [c_task(0, 4.0, 1.0, y=2.0), c_task(1, 8.0, 2.0, y=6.0)],
            m=2,
            exec_overrides={(0, 0): 6.0},
        )

    def test_equal_priority_ties(self):
        compare(
            [c_task(0, 6.0, 2.0, y=4.0), c_task(1, 6.0, 2.0, y=4.0),
             c_task(2, 6.0, 2.0, y=4.0)],
            m=2,
        )


class TestDifferentialVirtualTime:
    def test_slowdown_and_restore(self):
        compare(
            [c_task(0, 4.0, 1.0, y=3.0), c_task(1, 6.0, 2.0, y=5.0)],
            m=1,
            speed_changes=[(10.0, 0.5), (20.0, 1.0)],
        )

    def test_slowdown_with_overrun(self):
        compare(
            [c_task(0, 4.0, 1.5, y=3.0), c_task(1, 8.0, 3.0, y=7.0)],
            m=2,
            exec_overrides={(0, 1): 5.0},
            speed_changes=[(8.0, 0.5), (24.0, 1.0)],
        )

    def test_multiple_speed_changes(self):
        compare(
            [c_task(0, 4.0, 1.0, y=3.0)],
            m=1,
            speed_changes=[(6.0, 0.5), (14.0, 1.0), (22.0, 0.5), (30.0, 1.0)],
        )


@st.composite
def aligned_systems(draw):
    """Random systems with all parameters on the 0.5 grid, speeds in {0.5, 1}."""
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    tasks = []
    overrides = {}
    for tid in range(n):
        period = draw(st.integers(min_value=2, max_value=8)) * 1.0
        pwcet = draw(st.integers(min_value=1, max_value=int(period / QUANTUM))) * QUANTUM
        y = draw(st.integers(min_value=0, max_value=12)) * QUANTUM
        phase = draw(st.integers(min_value=0, max_value=4)) * QUANTUM
        tasks.append(c_task(tid, period, pwcet, y=y, phase=phase))
        if draw(st.booleans()):
            k = draw(st.integers(min_value=0, max_value=3))
            overrides[(tid, k)] = draw(st.integers(min_value=1, max_value=16)) * QUANTUM
    n_changes = draw(st.integers(min_value=0, max_value=2))
    # Speed changes at *integer* instants: a 0.5-speed segment of integer
    # length keeps virtual time on the 0.5 grid, so every release still
    # lands on a reference-quantum boundary.
    times = sorted(draw(st.lists(st.integers(min_value=1, max_value=35),
                                 min_size=n_changes, max_size=n_changes,
                                 unique=True)))
    speed_changes = []
    s = 1.0
    for t in times:
        s = 0.5 if s == 1.0 else 1.0
        speed_changes.append((float(t), s))
    return tasks, m, overrides, speed_changes


@given(aligned_systems())
@settings(max_examples=50, deadline=None)
def test_differential_random_aligned_systems(system):
    tasks, m, overrides, speed_changes = system
    compare(tasks, m, exec_overrides=overrides, speed_changes=speed_changes)
