"""The quiet-run guarantee (:mod:`repro.core.monitor`) and the sharing it
licenses (:func:`repro.runtime.executor.run_spec`).

* **The guarantee.**  Fed release and completion reports none of which
  misses its tolerance, no built-in monitor calls its controller,
  enters recovery, opens an episode or emits a trace event.
* **The sharing.**  Cells that differ only in a built-in monitor, run
  in one sharing scope, give the canonical documents of solo runs, and
  a quiet group is simulated once.
"""

import dataclasses
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import CompletionReport
from repro.experiments.traffic import poisson_traffic
from repro.io.canonical import canonical_json
from repro.io.results_json import run_result_to_dict
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.runtime import executor
from repro.runtime.spec import KernelSpec, MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.workload.distributions import UNIFORM_RANGES
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import CALM

#: One spec per built-in kind, with its parameter domain.
BUILTIN_KINDS = ("none", "simple", "adaptive", "stepped", "clamped")


@st.composite
def monitor_specs(draw, kind):
    param = draw(st.floats(min_value=0.05, max_value=1.0))
    if kind == "stepped":
        extra = draw(st.one_of(st.none(), st.floats(min_value=1.1, max_value=4.0)))
    elif kind == "clamped":
        extra = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)))
    else:
        extra = None
    return MonitorSpec(kind, param, extra)


def all_kinds():
    """One drawn spec of every built-in kind, in a drawn order."""
    return st.permutations(BUILTIN_KINDS).flatmap(
        lambda kinds: st.tuples(*(monitor_specs(k) for k in kinds))
    )


# ----------------------------------------------------------------------
# The guarantee, per monitor class
# ----------------------------------------------------------------------
class Controller:
    def __init__(self):
        self.calls = []

    def change_speed(self, speed):
        self.calls.append(speed)


class RecordingTracer:
    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, ev, t, **fields):
        self.events.append(ev)


@st.composite
def quiet_reports(draw):
    """Release and completion events, in time order, none a miss."""
    tasks = [
        Task(task_id=i, level=L.C, period=10.0, pwcets={L.C: 1.0},
             relative_pp=draw(st.floats(min_value=0.1, max_value=10.0)),
             tolerance=draw(st.floats(min_value=0.0, max_value=5.0)))
        for i in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    events = []
    next_index = [0] * len(tasks)
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        task = draw(st.sampled_from(tasks))
        k = next_index[task.task_id]
        next_index[task.task_id] += 1
        release = draw(st.floats(min_value=0.0, max_value=100.0))
        if draw(st.booleans()):
            # Completed at or before its PP: the bottom placeholder.
            actual_pp = None
            comp = release + draw(st.floats(min_value=0.0, max_value=task.relative_pp))
        else:
            actual_pp = release + task.relative_pp
            comp = actual_pp + draw(st.floats(min_value=0.0, max_value=task.tolerance))
            while comp - actual_pp > task.tolerance:  # one ulp of round-off
                comp = math.nextafter(comp, -math.inf)
        report = CompletionReport(
            task=task, job_index=k, release=release, actual_pp=actual_pp,
            comp_time=comp, queue_empty=draw(st.booleans()),
        )
        assert not report.misses_tolerance
        events.append((release, 0, (task.task_id, k)))
        events.append((comp, 1, report))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


@given(mon_spec=st.sampled_from(BUILTIN_KINDS).flatmap(monitor_specs), events=quiet_reports())
@settings(max_examples=200, deadline=None)
def test_no_builtin_monitor_acts_without_a_miss(mon_spec, events):
    ctl = Controller()
    monitor = mon_spec.build(ctl)
    monitor.tracer = tracer = RecordingTracer()
    for _, kind, payload in events:
        if kind == 0:
            monitor.on_job_release(payload)
        else:
            monitor.on_job_complete(payload)
        assert not monitor.recovery_mode
    assert ctl.calls == []
    assert monitor.speed_requests == []
    assert monitor.episodes == []
    assert monitor.miss_count == 0
    assert tracer.events == []
    assert monitor.minimum_requested_speed() == 1.0


# ----------------------------------------------------------------------
# The sharing, on light CALM cells
# ----------------------------------------------------------------------
@st.composite
def quiet_groups(draw):
    """Light-task-set CALM cells differing only in a built-in monitor."""
    m = draw(st.sampled_from((1, 2)))
    traffic = draw(st.one_of(
        st.none(),
        st.builds(poisson_traffic, st.sampled_from((0.05, 0.1)), st.just(m),
                  seed=st.integers(min_value=0, max_value=50)),
    ))
    run = RunSpec(
        taskset=TaskSetSpec.generated(
            draw(st.integers(min_value=0, max_value=10_000)),
            GeneratorParams(m=m, util_range=UNIFORM_RANGES["light"])),
        scenario=ScenarioSpec.from_scenario(CALM),
        monitor=MonitorSpec("none"),
        kernel=KernelSpec(backend=draw(st.sampled_from(("reference", "soa")))),
        horizon=1.5,
        traffic=traffic,
    )
    return [dataclasses.replace(run, monitor=mon) for mon in draw(all_kinds())]


def doc(result):
    return canonical_json(run_result_to_dict(result))


@given(specs=quiet_groups())
@settings(max_examples=25, deadline=None)
def test_shared_results_are_solo_runs(specs):
    solo = [executor.run_spec(s) for s in specs]
    scope = {}
    with mock.patch.object(executor, "simulate_spec", wraps=executor.simulate_spec) as sim:
        shared = [executor.run_spec(s, scope) for s in specs]
    assert [doc(r) for r in shared] == [doc(r) for r in solo]
    quiet = [r.miss_count == 0 for r in solo]
    # The guarantee: siblings miss together or not at all.
    assert len(set(quiet)) == 1
    assert sim.call_count == (1 if quiet[0] else len(specs))
