"""Self-tests of the traced run's wrappers (``tracing.py``)."""

import dataclasses

import pytest

import tracing


def _cells():
    from repro.runtime.spec import KernelSpec, MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
    from repro.workload.scenarios import SHORT

    spec = RunSpec(
        taskset=TaskSetSpec.generated(2015),
        scenario=ScenarioSpec.from_scenario(SHORT),
        monitor=MonitorSpec("simple", 0.6),
        kernel=KernelSpec(backend="soa"),
        horizon=5.0,
    )
    return [spec, dataclasses.replace(spec, monitor=MonitorSpec("adaptive", 0.5))]


def _run(cells, tmp_path):
    from repro.runtime.executor import make_executor

    ex = make_executor(jobs=1, merged_out=str(tmp_path / "merged.json"))
    return ex.run(cells)


def test_wrappers_restore_the_originals_after_a_traced_run(tmp_path):
    cells = _cells()
    plain = _run(cells, tmp_path / "plain")
    log = tracing.SpanLog(str(tmp_path / "spans"), "batch", "test")
    log.positions = {c: i for i, c in enumerate(cells)}
    tracing.install(log)
    try:
        targets = list(tracing._installed)
        assert targets
        with pytest.raises(RuntimeError):
            tracing.install(log)
        traced = _run(cells, tmp_path / "traced")
    finally:
        tracing.uninstall()
    assert traced == plain
    for owner, attr, own, raw in targets:
        if own:
            assert vars(owner)[attr] is raw, (owner, attr)
        else:
            assert attr not in vars(owner), (owner, attr)
    assert not tracing._installed
    names = {tracing.LAYERS[layer] for layer in log.layer}
    assert {"cell", "experiments.run", "sim.kernel.run", "experiments.stop_check",
            "model.behavior", "core.release", "core.monitor", "runtime.merge",
            "provenance.emit", "io.key"} <= names
    # Every span inside a cell carries that cell's position.
    cells_seen = {c for layer, c in zip(log.layer, log.cell)
                  if tracing.LAYERS[layer] == "sim.kernel.run"}
    assert cells_seen == {0, 1}


def test_ordinals_repeat_across_traced_runs(tmp_path):
    cells = _cells()
    columns = []
    for k in range(2):
        log = tracing.SpanLog(str(tmp_path / f"spans{k}"), "batch", "test")
        log.positions = {c: i for i, c in enumerate(cells)}
        tracing.install(log)
        try:
            _run(cells, tmp_path / f"run{k}")
        finally:
            tracing.uninstall()
        header, spans = tracing.load(log.dump())
        assert header["spans"] == len(spans[0]) == len(log.layer)
        assert spans[1] == log.start and spans[4] == log.cell
        lines = tracing.ordinal_lines("test", [spans])
        columns.append([ln.split("\t")[:4] for ln in lines])
    assert columns[0] == columns[1]
