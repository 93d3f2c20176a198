"""The kernel seam plug-ins rely on, checked on both backends.

Each test states one guarantee of the rely/guarantee contract in
:mod:`repro.sim.backend`: a system call reads the kernel's clock,
callbacks run at their instant with a dispatch after them, an injected
pinned job competes from the instant it is injected, and injections
outside the contract are refused.
"""

import pytest

from repro.core.monitor import NullMonitor
from repro.model.behavior import ConstantBehavior
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.backend import create_kernel
from repro.sim.kernel import KernelConfig
from tests.conftest import make_c_task

BACKENDS = ("reference", "soa")


def kernel_for(backend: str, m: int = 1):
    ts = TaskSet([make_c_task(0, 4.0, 1.0, y=3.0)], m=m)
    kernel = create_kernel(
        ts,
        behavior=ConstantBehavior(),
        config=KernelConfig(record_intervals=True, backend=backend),
    )
    kernel.attach_monitor(NullMonitor(kernel))
    return kernel


def stall_task(task_id: int = 900, cpu: int = 0) -> Task:
    return Task(task_id=task_id, level=L.A, period=1e-6, pwcets={L.A: 1.0}, cpu=cpu)


@pytest.mark.parametrize("backend", BACKENDS)
def test_change_speed_reads_the_kernel_clock(backend):
    kernel = kernel_for(backend)
    assert not kernel.started
    kernel.run_until(2.5)
    assert kernel.started
    kernel.change_speed(0.5)
    trace = kernel.run(3.0)
    assert trace.speed_changes == [(2.5, 0.5)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_injected_job_preempts_from_its_callback_instant(backend):
    """A callback at t=0.5 injects a 1 s level-A job: the level-C job
    released at 0 loses the CPU at 0.5 and resumes at 1.5."""
    kernel = kernel_for(backend)
    seen = []

    def stall(now):
        seen.append((now, kernel.now))
        kernel.inject_pinned_job(stall_task(), 1.0)

    kernel.schedule_callback(0.5, stall)
    trace = kernel.run(3.0)
    assert seen == [(0.5, 0.5)]
    assert [(iv.task_id, iv.start, iv.end) for iv in trace.intervals[:3]] == [
        (0, 0.0, 0.5),
        (900, 0.5, 1.5),
        (0, 1.5, 2.0),
    ]
    assert trace.job(900, 0).completion == 1.5
    assert kernel.preemptions == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_task_injected_twice_gets_successive_job_indices(backend):
    kernel = kernel_for(backend)
    kernel.schedule_callback(0.5, lambda now: kernel.inject_pinned_job(stall_task(), 0.25))
    kernel.schedule_callback(2.0, lambda now: kernel.inject_pinned_job(stall_task(), 0.25))
    trace = kernel.run(3.0)
    assert [(r.index, r.release, r.completion) for r in trace.jobs_of(900)] == [
        (0, 0.5, 0.75),
        (1, 2.0, 2.25),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "task, exec_time, match",
    [
        (make_c_task(900, 1.0, 0.5), 1.0, "level-A"),
        (stall_task(cpu=1), 1.0, "below m=1"),
        (stall_task(task_id=0), 1.0, "belongs to the task set"),
        (stall_task(), 0.0, "positive demand"),
    ],
)
def test_injection_outside_the_contract_is_refused(backend, task, exec_time, match):
    kernel = kernel_for(backend)
    kernel.start()
    with pytest.raises(ValueError, match=match):
        kernel.inject_pinned_job(task, exec_time)
