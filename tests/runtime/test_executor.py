"""Tests for the sweep executors (repro.runtime.executor).

Covers the acceptance criteria of the runtime layer:

* process-pool results are *identical* to serial results (aggregated
  figure values included);
* a second run of the same grid against a warm cache performs **zero**
  simulations (asserted via the executor's cells-simulated counter);
* one spec hash -> bit-for-bit one result (deterministic seeding).
"""

import pytest

from repro.experiments.figures import adaptive_sweep, figure6, figure7
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    ProcessPoolBackend,
    SerialBackend,
    SweepExecutor,
    make_executor,
    run_spec,
)
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.workload.generator import GeneratorParams, generate_taskset, taskset_seeds
from repro.workload.scenarios import SHORT

# The whole module sweeps a small Fig. 6-shaped grid: 2 task sets on
# m=2, two s values, one scenario -> 4 cells per sweep.
PARAMS = GeneratorParams(m=2)
S_VALUES = (0.4, 1.0)


@pytest.fixture(scope="module")
def refs():
    return [TaskSetSpec.generated(seed, PARAMS)
            for seed in taskset_seeds(2, base_seed=11)]


@pytest.fixture(scope="module")
def grid(refs):
    return [
        RunSpec(
            taskset=ref,
            scenario=ScenarioSpec.from_scenario(SHORT),
            monitor=MonitorSpec("simple", s),
            horizon=20.0,
        )
        for s in S_VALUES
        for ref in refs
    ]


@pytest.fixture(scope="module")
def serial_results(grid):
    return SerialBackend().run(grid)


class TestRunSpecExecution:
    def test_run_spec_produces_result(self, grid):
        r = run_spec(grid[0])
        assert r.scenario == "SHORT"
        assert r.monitor == "SIMPLE(s=0.4)"
        assert r.dissipation > 0

    def test_same_spec_hash_same_result_bit_for_bit(self, grid):
        """Deterministic-seeding regression: one key, one result."""
        spec = grid[0]
        again = RunSpec(
            taskset=TaskSetSpec.generated(11, PARAMS),
            scenario=ScenarioSpec.from_scenario(SHORT),
            monitor=MonitorSpec("simple", 0.4),
            horizon=20.0,
        )
        assert spec.key() == again.key()
        assert run_spec(spec) == run_spec(again)

    def test_inline_and_generated_specs_agree(self, grid):
        ts = generate_taskset(11, PARAMS)
        inline = RunSpec(
            taskset=TaskSetSpec.from_taskset(ts),
            scenario=ScenarioSpec.from_scenario(SHORT),
            monitor=MonitorSpec("simple", 0.4),
            horizon=20.0,
        )
        # Different content address (different taskset encoding)...
        assert inline.key() != grid[0].key()
        # ...but the same simulated reality.
        assert run_spec(inline) == run_spec(grid[0])


class TestBackendEquivalence:
    def test_serial_preserves_order_and_stats(self, grid, serial_results):
        ex = SerialBackend()
        results = ex.run(grid)
        assert results == serial_results
        assert [r.monitor for r in results] == [
            "SIMPLE(s=0.4)", "SIMPLE(s=0.4)", "SIMPLE(s=1)", "SIMPLE(s=1)"
        ]
        assert ex.stats.cells_total == 4
        assert ex.stats.cells_simulated == 4
        assert ex.stats.cache_hits == 0

    def test_process_pool_identical_to_serial(self, grid, serial_results):
        ex = ProcessPoolBackend(jobs=4)
        assert ex.run(grid) == serial_results
        assert ex.stats.cells_simulated == 4

    def test_figures_identical_across_backends(self, refs):
        serial = figure6(refs, s_values=S_VALUES, scenarios=(SHORT,),
                         horizon=20.0, executor=SerialBackend())
        pooled = figure6(refs, s_values=S_VALUES, scenarios=(SHORT,),
                         horizon=20.0, executor=ProcessPoolBackend(jobs=4))
        assert pooled == serial

    def test_figure7_identical_across_backends(self, refs):
        serial = figure7(adaptive_sweep(refs, a_values=(0.4,), scenarios=(SHORT,),
                                        horizon=20.0, executor=SerialBackend()))
        pooled = figure7(adaptive_sweep(refs, a_values=(0.4,), scenarios=(SHORT,),
                                        horizon=20.0,
                                        executor=ProcessPoolBackend(jobs=4)))
        assert pooled == serial

    def test_single_cell_runs_inline(self, grid):
        # One cell never pays for a pool.
        ex = ProcessPoolBackend(jobs=4)
        [r] = ex.run(grid[:1])
        assert r == run_spec(grid[0])

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=2, chunksize=0)


class TestCaching:
    def test_second_run_simulates_nothing(self, tmp_path, grid, serial_results):
        cache = ResultCache(tmp_path)
        first = SerialBackend(cache=cache)
        assert first.run(grid) == serial_results
        assert first.stats.cells_simulated == len(grid)
        assert first.stats.cache_hits == 0

        second = SerialBackend(cache=cache)
        assert second.run(grid) == serial_results
        assert second.stats.cells_simulated == 0
        assert second.stats.cache_hits == len(grid)

    def test_cache_shared_across_backends(self, tmp_path, grid, serial_results):
        cache = ResultCache(tmp_path)
        SerialBackend(cache=cache).run(grid)
        pooled = ProcessPoolBackend(jobs=2, cache=cache)
        assert pooled.run(grid) == serial_results
        assert pooled.stats.cells_simulated == 0
        assert pooled.stats.cache_hits == len(grid)

    def test_changed_cell_simulates_only_that_cell(self, tmp_path, grid):
        cache = ResultCache(tmp_path)
        SerialBackend(cache=cache).run(grid)
        changed = list(grid) + [
            RunSpec(
                taskset=grid[0].taskset,
                scenario=ScenarioSpec.from_scenario(SHORT),
                monitor=MonitorSpec("simple", 0.8),
                horizon=20.0,
            )
        ]
        ex = SerialBackend(cache=cache)
        results = ex.run(changed)
        assert ex.stats.cells_simulated == 1
        assert ex.stats.cache_hits == len(grid)
        assert results[-1].monitor == "SIMPLE(s=0.8)"

    def test_total_accumulates_across_runs(self, tmp_path, grid):
        cache = ResultCache(tmp_path)
        ex = SerialBackend(cache=cache)
        ex.run(grid)
        ex.run(grid)
        assert ex.total.cells_total == 2 * len(grid)
        assert ex.total.cells_simulated == len(grid)
        assert ex.total.cache_hits == len(grid)


class TestMakeExecutor:
    def test_serial_by_default(self):
        ex = make_executor()
        assert isinstance(ex, SerialBackend)
        assert ex.cache is None

    def test_jobs_selects_pool(self, tmp_path):
        ex = make_executor(jobs=4, cache_dir=str(tmp_path))
        assert isinstance(ex, ProcessPoolBackend)
        assert ex.jobs == 4
        assert isinstance(ex.cache, ResultCache)

    def test_telemetry_needs_checkpoint_dir(self, tmp_path):
        for kwargs in ({}, {"jobs": 2}, {"service_addr": "127.0.0.1:1"}):
            with pytest.raises(ValueError, match="--checkpoint-dir"):
                make_executor(telemetry=True, **kwargs)
        sharded = make_executor(telemetry=True, checkpoint_dir=str(tmp_path))
        assert sharded.telemetry

    def test_base_class_is_abstract(self, grid):
        with pytest.raises(NotImplementedError):
            SweepExecutor()._execute(grid[:1])
