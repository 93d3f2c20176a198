"""Worker-death resilience: map_pool_resilient and its executor wiring.

Worker death is simulated by substituting a fake ProcessPoolExecutor
whose ``map`` raises ``BrokenProcessPool`` partway through — the same
exception a SIGKILLed/OOMed worker produces — so the tests exercise the
real retry / serial-fallback paths deterministically and in-process.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.runtime.executor as executor_mod
from repro.runtime.executor import PoolDegradation, map_pool_resilient
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import SHORT


def _square(x):
    return x * x


class _FlakyPoolFactory:
    """Builds fake pools; the first *break_first* of them die after
    yielding *yield_before_break* results, the rest complete."""

    def __init__(self, break_first=1, yield_before_break=2):
        self.created = 0
        self._break_first = break_first
        self._yield_before = yield_before_break

    def __call__(self, max_workers):
        self.created += 1
        breaks = self.created <= self._break_first
        factory = self

        class _FakePool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                for i, item in enumerate(items):
                    if breaks and i >= factory._yield_before:
                        raise BrokenProcessPool("worker died")
                    yield fn(item)

        return _FakePool()


@pytest.fixture
def patch_pool(monkeypatch):
    def apply(factory):
        monkeypatch.setattr(
            executor_mod.concurrent.futures, "ProcessPoolExecutor", factory
        )
        return factory

    return apply


class TestMapPoolResilient:
    def test_healthy_pool_no_degradation(self, patch_pool):
        factory = patch_pool(_FlakyPoolFactory(break_first=0))
        results, deg = map_pool_resilient(_square, list(range(6)), 2, 1)
        assert results == [x * x for x in range(6)]
        assert deg == PoolDegradation()
        assert factory.created == 1

    def test_single_break_is_retried_on_a_fresh_pool(self, patch_pool):
        factory = patch_pool(_FlakyPoolFactory(break_first=1, yield_before_break=2))
        results, deg = map_pool_resilient(_square, list(range(6)), 2, 1)
        assert results == [x * x for x in range(6)]
        assert deg.breaks == 1
        assert deg.retried == 4  # 6 items minus the 2 collected pre-break
        assert deg.serial_fallback == 0
        assert factory.created == 2

    def test_double_break_falls_back_to_serial(self, patch_pool):
        factory = patch_pool(_FlakyPoolFactory(break_first=2, yield_before_break=2))
        results, deg = map_pool_resilient(_square, list(range(6)), 2, 1)
        assert results == [x * x for x in range(6)]
        assert deg.breaks == 2
        assert deg.retried == 4
        assert deg.serial_fallback == 2  # collected 2 + 2, ran 2 in-process
        assert factory.created == 2

    def test_on_result_sees_every_item_once(self, patch_pool):
        patch_pool(_FlakyPoolFactory(break_first=2, yield_before_break=1))
        seen = []
        results, _ = map_pool_resilient(
            _square, list(range(5)), 2, 1, on_result=seen.append
        )
        assert seen == results


class TestExecutorIntegration:
    @pytest.fixture(scope="class")
    def specs(self):
        params = GeneratorParams(m=2)
        return [
            RunSpec(
                taskset=TaskSetSpec.generated(seed, params),
                scenario=ScenarioSpec.from_scenario(SHORT),
                monitor=MonitorSpec("simple", 0.6),
                horizon=10.0,
            )
            for seed in (21, 22, 23)
        ]

    def test_worker_death_degrades_not_fails(self, specs, patch_pool, monkeypatch):
        from repro.runtime.executor import ProcessPoolBackend, SerialBackend

        expected = SerialBackend().run(specs)
        patch_pool(_FlakyPoolFactory(break_first=2, yield_before_break=1))
        ex = ProcessPoolBackend(jobs=2)
        results = ex.run(specs)
        assert [r.dissipation for r in results] == [
            r.dissipation for r in expected
        ]
        assert ex.stats.pool_breaks == 2
        assert ex.stats.pool_retried == 2
        assert ex.stats.pool_serial_fallback == 1

    def test_degradation_counts_cells_not_slices(self, specs, patch_pool):
        """Slices of 2 cells: one break after the first slice re-runs one
        slice, which SweepStats reports as its 2 cells."""
        from repro.runtime.executor import ProcessPoolBackend, SerialBackend

        cells = specs + specs[:1]
        expected = SerialBackend().run(cells)
        patch_pool(_FlakyPoolFactory(break_first=1, yield_before_break=1))
        ex = ProcessPoolBackend(jobs=2, chunksize=2)
        results = ex.run(cells)
        assert [r.dissipation for r in results] == [
            r.dissipation for r in expected
        ]
        assert ex.stats.pool_breaks == 1
        assert ex.stats.pool_retried == 2
        assert ex.stats.pool_serial_fallback == 0
