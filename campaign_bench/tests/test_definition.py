"""The benchmark's description matches what it runs."""

import json
import pathlib

import batch
import run

BENCH = pathlib.Path(run.__file__).resolve().parent


def test_every_benchmark_workload_has_a_plan():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.PLAN["workloads"])
    assert doc["paths"] == [BENCH.name]


def test_stated_input_sizes_match_the_generated_cells():
    for name, w in run.PLAN["workloads"].items():
        cells = batch.CELLS[name](batch.batch_seed(run.PLAN["default_seed"], 0))
        if "faulted_cells_per_batch" in w:
            # Faulted cells, then one baseline per distinct spec among them.
            assert w["faulted_cells_per_batch"] < len(cells) <= 2 * w["faulted_cells_per_batch"]
            assert len(cells) >= w["cells_per_batch"], name
        else:
            assert len(cells) == w["cells_per_batch"], name
        pins = batch.load_pins(name)
        assert len(pins) == run.PLAN["max_batches"], name
        assert len(pins[0]) == len(cells), name


def test_batches_of_a_run_use_distinct_seeds():
    seeds = {batch.batch_seed(s, b) for s in range(20) for b in range(run.PLAN["max_batches"])}
    assert len(seeds) == 20 * run.PLAN["max_batches"]
