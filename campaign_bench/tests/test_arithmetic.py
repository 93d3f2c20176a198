"""Self-tests of the benchmark's arithmetic (``metrics.py``).

Run with ``python3 -m pytest campaign_bench/tests -q`` from the repository
root.
"""

import pytest

import metrics


def test_self_time_subtracts_nested_children():
    # root [0, 100) > a [10, 60) > a1 [20, 30), a2 [40, 45); root > b [70, 90)
    spans = [
        (0, 0, 100, -1),
        (1, 10, 60, 0),
        (2, 20, 30, 1),
        (2, 40, 45, 1),
        (3, 70, 90, 0),
    ]
    total, own, calls = metrics.self_times(*zip(*spans))
    assert total == {0: 100, 1: 50, 2: 15, 3: 20}
    assert own == {0: 30, 1: 35, 2: 15, 3: 20}
    assert calls == {0: 1, 1: 1, 2: 2, 3: 1}


def test_self_time_clips_to_the_window():
    spans = [(0, 0, 100, -1), (1, 10, 60, 0), (1, 95, 120, 0), (2, 150, 160, -1)]
    total, own, calls = metrics.self_times(*zip(*spans), window=(50, 100))
    assert total == {0: 50, 1: 15}
    assert own == {0: 35, 1: 15}
    # The span wholly outside the window is not a call.
    assert calls == {0: 1, 1: 2}


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, n = metrics.tail_percentile(values)
    assert (pct, n) == (90, 100)
    assert value == 90.0
    assert sum(1 for v in values if v > value) == 10
    # One sample fewer and p90 would leave only nine beyond it.
    assert metrics.tail_percentile(values[:99])[1] == 89


def test_tail_percentile_rule_size_fixes_the_percentile():
    values = list(range(1, 201))
    value, pct, n = metrics.tail_percentile(values, n_rule=100)
    assert (pct, n) == (90, 200)
    assert value == 180.0
    with pytest.raises(ValueError):
        metrics.tail_percentile(values[:50], n_rule=100)
    with pytest.raises(ValueError):
        metrics.tail_percentile(list(range(10)))


def test_tail_percentile_lies_above_the_median_at_benchmark_sizes():
    import json
    import pathlib

    plan = json.loads(
        (pathlib.Path(metrics.__file__).parent / "workloads.json").read_text()
    )
    for w in plan["workloads"].values():
        n = plan["min_batches"] * w["cells_per_batch"]
        assert metrics.tail_pct(n) > 50, w["input"]


def test_median_and_nearest_rank():
    assert metrics.median([3, 1, 2]) == 2.0
    assert metrics.median([4, 1, 3, 2]) == 2.5
    assert metrics.nearest_rank([5, 1, 4, 2, 3], 60) == 3.0
    with pytest.raises(ValueError):
        metrics.median([])


STATS = [{"events": 10, "dissipation": 0.5}, {"events": 11, "dissipation": 0.25},
         {"events": 12, "dissipation": 0.75}, {"events": 13, "dissipation": 1.0}]


def _doctored():
    return [dict(s) for s in STATS]


def test_failed_ratio_counts_doctored_results():
    expected = _doctored()
    assert metrics.failed_positions(_doctored(), expected) == []

    changed = _doctored()
    changed[2]["dissipation"] = 0.7500000000000001
    assert metrics.failed_positions(changed, expected) == [2]

    missing = _doctored()[:3]
    assert metrics.failed_positions(missing, expected) == [3]

    raised = _doctored()
    raised[0] = None
    assert metrics.failed_positions(raised, expected) == [0]

    extra = _doctored() + [{"events": 1, "dissipation": 0.0}]
    assert metrics.failed_positions(extra, expected) == [4]

    # No expectation for a position: only a missing result fails it.
    assert metrics.failed_positions(changed, [None] * 4) == []

    bad = set(metrics.failed_positions(changed, expected)) | set(
        metrics.failed_positions(raised, expected)
    )
    assert metrics.failed_ratio(len(bad), 4) == 0.5
    # A crashed batch fails every cell it was given.
    assert metrics.failed_ratio(4, 4) == 1.0
    with pytest.raises(ValueError):
        metrics.failed_ratio(5, 4)
    with pytest.raises(ValueError):
        metrics.failed_ratio(0, 0)
