"""Shared fixtures: small canonical task sets, helper builders, and a
live campaign-service coordinator."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.tolerance import fixed_tolerances
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet


def make_c_task(
    task_id: int,
    period: float,
    pwcet: float,
    y: float | None = None,
    tolerance: float | None = None,
    phase: float = 0.0,
    name: str = "",
) -> Task:
    """A level-C task with sensible defaults (Y defaults to the period, G-EDF)."""
    return Task(
        task_id=task_id,
        level=L.C,
        period=period,
        pwcets={L.C: pwcet},
        relative_pp=period if y is None else y,
        tolerance=tolerance,
        phase=phase,
        name=name,
    )


def make_a_task(
    task_id: int,
    period: float,
    pwcet_c: float,
    cpu: int,
    ratio_a: float = 20.0,
    ratio_b: float = 10.0,
) -> Task:
    """A level-A task with the paper's PWCET ratios."""
    return Task(
        task_id=task_id,
        level=L.A,
        period=period,
        pwcets={L.A: ratio_a * pwcet_c, L.B: ratio_b * pwcet_c, L.C: pwcet_c},
        cpu=cpu,
    )


def make_b_task(
    task_id: int, period: float, pwcet_c: float, cpu: int, ratio_b: float = 10.0
) -> Task:
    """A level-B task with the paper's PWCET ratio."""
    return Task(
        task_id=task_id,
        level=L.B,
        period=period,
        pwcets={L.B: ratio_b * pwcet_c, L.C: pwcet_c},
        cpu=cpu,
    )


@pytest.fixture
def tiny_c_taskset() -> TaskSet:
    """Two CPUs, three level-C tasks, comfortable slack, tolerance 5."""
    ts = TaskSet(
        [
            make_c_task(0, period=4.0, pwcet=1.0, y=3.0, name="t0"),
            make_c_task(1, period=5.0, pwcet=2.0, y=4.0, name="t1"),
            make_c_task(2, period=10.0, pwcet=3.0, y=8.0, name="t2"),
        ],
        m=2,
    )
    return fixed_tolerances(ts, 5.0)


@pytest.fixture
def mixed_taskset() -> TaskSet:
    """Two CPUs with A, B and C tasks (moderate utilization), tolerance 6."""
    ts = TaskSet(
        [
            make_a_task(10, period=10.0, pwcet_c=0.5, cpu=0),
            make_a_task(11, period=20.0, pwcet_c=0.5, cpu=1),
            make_b_task(20, period=20.0, pwcet_c=0.5, cpu=0),
            make_c_task(0, period=4.0, pwcet=1.0, y=3.0),
            make_c_task(1, period=8.0, pwcet=2.0, y=6.0),
        ],
        m=2,
    )
    return fixed_tolerances(ts, 6.0)


class LiveCoordinator:
    """A ``repro-serve`` coordinator on an ephemeral port, serving from its
    own event loop in a background thread."""

    def __init__(self, root, **coord_kwargs):
        from repro.serve.coordinator import Coordinator

        self.coord = Coordinator(root, **coord_kwargs)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        loop = self._loop
        asyncio.set_event_loop(loop)
        loop.run_until_complete(self.coord.start())
        self._ready.set()
        # Returns once Coordinator.stop() has hung up on every peer and
        # each client loop has ended; let stop()'s own task finish too
        # before closing the loop.
        loop.run_until_complete(self.coord.serve_forever())
        tasks = asyncio.all_tasks(loop)
        if tasks:
            loop.run_until_complete(asyncio.wait(tasks, timeout=10.0))
        loop.close()

    def start(self):
        self._thread.start()
        assert self._ready.wait(10.0), "coordinator did not start"
        return self

    @property
    def addr(self):
        return f"127.0.0.1:{self.coord.port}"

    def stop(self):
        """Stop the coordinator and wait for the thread to close the loop."""
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.coord.stop(), self._loop).result(10.0)
        self._thread.join(timeout=20.0)
        assert not self._thread.is_alive(), "coordinator did not stop"


@pytest.fixture
def make_service(tmp_path):
    """``make_service(name="serve", **coordinator_kwargs)`` starts a
    :class:`LiveCoordinator` rooted at ``tmp_path / name``; every one
    started is stopped after the test."""
    services = []

    def factory(name="serve", **coord_kwargs):
        svc = LiveCoordinator(tmp_path / name, **coord_kwargs).start()
        services.append(svc)
        return svc

    yield factory
    for svc in services:
        svc.stop()
