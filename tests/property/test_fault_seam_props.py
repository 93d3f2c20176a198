"""Property: faulted runs agree across kernel backends.

Fault plans reach a kernel only through its public seam (``now``,
``schedule_callback``, ``inject_pinned_job``, and ``clock``/``monitor``
swapped before ``start()``), so a faulted run must be the same run on
``reference`` and ``soa``.  Plans come from
:func:`~repro.faults.spec.random_plan` over all seven fault kinds and
both outage modes, with and without monitor latency (late delivery is
where a speed change used to be backdated).  No run may raise, and:

* :func:`~repro.sim.diffcheck.compare_backends` finds identical
  fingerprints, with every reference dispatch checked against the
  per-level policies;
* :func:`~repro.faults.campaign.run_cell` returns the same outcome —
  fingerprint digest, statistics and oracle violations — on both.

The ``@example`` seeds draw, between them, every fault kind and both
outage modes (seed 2 holds a queued outage and runs with latency).
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.campaign import CampaignCell, run_cell
from repro.faults.spec import random_plan
from repro.runtime.spec import KernelSpec, MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.sim.diffcheck import DiffScenario, compare_backends
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import DOUBLE, LONG, SHORT

_SCENARIOS = {s.name: s for s in (SHORT, LONG, DOUBLE)}

plan_seeds = st.integers(min_value=0, max_value=10_000)
behaviors = st.sampled_from(sorted(_SCENARIOS))
monitors = st.sampled_from(
    [("simple", 0.5), ("simple", 0.25), ("adaptive", 0.5), ("adaptive", 1.0)]
)
latencies = st.sampled_from([0.0, 0.001])


@given(
    plan_seed=plan_seeds,
    behavior=behaviors,
    monitor=monitors,
    latency=latencies,
    seed=st.integers(min_value=0, max_value=500),
)
@example(plan_seed=0, behavior="SHORT", monitor=("simple", 0.5), latency=0.0, seed=1)
@example(plan_seed=1, behavior="LONG", monitor=("adaptive", 0.5), latency=0.0, seed=2)
@example(plan_seed=2, behavior="SHORT", monitor=("simple", 0.5), latency=0.001, seed=3)
@example(plan_seed=3, behavior="DOUBLE", monitor=("adaptive", 1.0), latency=0.0, seed=4)
@example(plan_seed=10, behavior="SHORT", monitor=("adaptive", 0.5), latency=0.0, seed=5)
@settings(max_examples=25, deadline=None)
def test_faulted_scenarios_trace_equivalent(plan_seed, behavior, monitor, latency, seed):
    horizon = 1.5
    plan = random_plan(
        seed=plan_seed, m=2, anchor=_SCENARIOS[behavior].last_overload_end, horizon=horizon
    )
    sc = DiffScenario(
        seed=seed,
        m=2,
        behavior=behavior,
        monitor=monitor[0],
        monitor_arg=monitor[1],
        horizon=horizon,
        monitor_latency=latency,
        faults=plan,
    )
    result = compare_backends(sc)
    assert result.equal, f"{sc.label()} diverged in {result.mismatched}"


def _on(cell: CampaignCell, backend: str) -> CampaignCell:
    kernel = replace(cell.run.kernel, backend=backend)
    return CampaignCell(run=replace(cell.run, kernel=kernel), plan=cell.plan)


def _outcome(cell: CampaignCell) -> dict:
    doc = run_cell(cell).to_dict()
    del doc["cell"], doc["key"]  # the only fields that name the backend
    return doc


@given(
    plan_seed=plan_seeds,
    behavior=behaviors,
    monitor=monitors,
    latency=latencies,
    seed=st.integers(min_value=0, max_value=500),
)
@example(plan_seed=0, behavior="SHORT", monitor=("simple", 0.5), latency=0.0, seed=1)
@example(plan_seed=1, behavior="LONG", monitor=("adaptive", 0.5), latency=0.0, seed=2)
@example(plan_seed=2, behavior="SHORT", monitor=("simple", 0.5), latency=0.001, seed=3)
@example(plan_seed=3, behavior="DOUBLE", monitor=("adaptive", 1.0), latency=0.0, seed=4)
@example(plan_seed=10, behavior="SHORT", monitor=("adaptive", 0.5), latency=0.0, seed=5)
@settings(max_examples=25, deadline=None)
def test_faulted_cells_agree_across_backends(plan_seed, behavior, monitor, latency, seed):
    horizon = 4.0
    scenario = _SCENARIOS[behavior]
    run = RunSpec(
        taskset=TaskSetSpec.generated(seed, GeneratorParams(m=2)),
        scenario=ScenarioSpec.from_scenario(scenario),
        monitor=MonitorSpec(*monitor),
        kernel=KernelSpec(record_intervals=True, monitor_latency=latency),
        horizon=horizon,
    )
    plan = random_plan(seed=plan_seed, m=2, anchor=scenario.last_overload_end, horizon=horizon)
    cell = CampaignCell(run=run, plan=plan)
    assert _outcome(_on(cell, "reference")) == _outcome(_on(cell, "soa"))
