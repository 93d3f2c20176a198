"""Per-request sojourn-time queueing metrics (open-system traffic).

Pins the satellite's contract:

* :class:`SojournStats.from_samples` — nearest-rank percentiles,
  censored-request accounting, empty-sample degenerate case;
* traffic runs carry a ``sojourn`` on their :class:`RunResult`;
  scripted-overload runs keep ``sojourn is None``;
* result documents omit the field when ``None`` (byte stability of
  pre-traffic artifacts) and round-trip it when present — including
  documents written before the field existed;
* :func:`render_sojourn_table` aggregates per-cell rows and stays
  header-only when no run has sojourn stats.
"""

import json

import pytest

from repro.experiments.metrics import RunResult, SojournStats
from repro.experiments.runner import run_overload_experiment
from repro.experiments.traffic import (
    figure_offered_load,
    mmpp_traffic,
    poisson_traffic,
    render_sojourn_table,
    traffic_sweep,
)
from repro.io.results_json import run_result_from_dict, run_result_to_dict
from repro.runtime.executor import run_spec
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.sim.kernel import KernelConfig
from repro.sim.trace import Trace
from repro.workload.generator import GeneratorParams, generate_taskset
from repro.workload.scenarios import CALM, SHORT

PARAMS = GeneratorParams(m=2)


def make_spec(traffic=None):
    return RunSpec(
        taskset=TaskSetSpec.generated(2015, PARAMS),
        scenario=ScenarioSpec.from_scenario(CALM if traffic else SHORT),
        monitor=MonitorSpec("simple", 0.6),
        horizon=3.0,
        traffic=traffic,
    )


class TestSojournStats:
    def test_nearest_rank_percentiles(self):
        samples = [0.5, 0.1, 0.4, 0.2, 0.3]  # unsorted on purpose
        s = SojournStats.from_samples(samples, requests=5)
        assert s.requests == 5 and s.served == 5
        assert s.mean_s == sum(samples) / 5
        assert s.p50_s == 0.3  # ceil(0.5 * 5) = rank 3
        assert s.p95_s == 0.5  # ceil(0.95 * 5) = rank 5
        assert s.max_s == 0.5

    def test_censored_requests_counted_but_not_sampled(self):
        s = SojournStats.from_samples([1.0], requests=4)
        assert s.requests == 4 and s.served == 1
        assert s.mean_s == s.p50_s == s.p95_s == s.max_s == 1.0

    def test_empty_samples(self):
        s = SojournStats.from_samples([], requests=3)
        assert s.served == 0
        assert s.mean_s == 0.0 and s.max_s == 0.0
        assert "served=" in s.row()

    def test_single_sample_all_ranks_collapse(self):
        s = SojournStats.from_samples([0.25], requests=1)
        assert s.p50_s == s.p95_s == s.max_s == 0.25


class TestRunResults:
    def test_traffic_run_has_sojourn(self):
        r = run_spec(make_spec(traffic=poisson_traffic(0.45, m=2, seed=0)))
        assert r.sojourn is not None
        assert r.sojourn.requests > 0
        assert r.sojourn.served <= r.sojourn.requests
        assert r.sojourn.mean_s >= 0.0
        assert r.sojourn.max_s >= r.sojourn.p95_s >= r.sojourn.p50_s >= 0.0

    def test_scripted_run_has_no_sojourn(self):
        assert run_spec(make_spec()).sojourn is None

    def test_sojourn_is_deterministic(self):
        spec = make_spec(traffic=poisson_traffic(0.45, m=2, seed=0))
        assert run_spec(spec).sojourn == run_spec(spec).sojourn


class TestResultDocs:
    def test_doc_omits_sojourn_when_none(self):
        doc = run_result_to_dict(run_spec(make_spec()))
        assert "sojourn" not in doc
        assert run_result_from_dict(doc).sojourn is None

    def test_doc_round_trips_sojourn(self):
        r = run_spec(make_spec(traffic=poisson_traffic(0.45, m=2, seed=0)))
        doc = json.loads(json.dumps(run_result_to_dict(r)))
        assert doc["sojourn"]["requests"] == r.sojourn.requests
        assert run_result_from_dict(doc) == r

    def test_pre_sojourn_document_still_loads(self):
        # A cache entry written before the field existed: no "sojourn"
        # key at all.  It must load as None, not raise.
        doc = run_result_to_dict(run_spec(make_spec()))
        doc.pop("sojourn", None)
        r = run_result_from_dict(doc)
        assert isinstance(r, RunResult) and r.sojourn is None


class TestRendering:
    def _results(self):
        refs = [TaskSetSpec.generated(2015, PARAMS)]
        traffics = [(0.45, poisson_traffic(0.45, m=2, seed=0))]
        return traffic_sweep(
            refs, traffics, monitors=(MonitorSpec("simple", 0.6),), horizon=2.0,
        )

    def test_table_has_one_row_per_cell(self):
        results = self._results()
        table = render_sojourn_table(results, xlabel="load/cpu")
        lines = table.splitlines()
        assert "load/cpu" in lines[0]
        assert len(lines) == 1 + len(results)
        assert "requests=" in lines[1] and "p95=" in lines[1]

    def test_table_header_only_without_sojourn(self):
        results = {("SIMPLE(s=0.6)", 0.1): [run_spec(make_spec())]}
        table = render_sojourn_table(results)
        assert len(table.splitlines()) == 1

    def test_figure_results_out_exposes_raw_runs(self):
        refs = [TaskSetSpec.generated(2015, PARAMS)]
        raw = {}
        figure_offered_load(
            refs, m=2, loads_per_cpu=(0.45,),
            monitors=(MonitorSpec("simple", 0.6),), horizon=2.0,
            results_out=raw,
        )
        assert set(raw) == {("SIMPLE(s=0.6)", 0.45)}
        (runs,) = raw.values()
        assert runs[0].sojourn is not None


def old_sojourn_samples(behavior, trace):
    """TrafficBehavior.sojourn_samples as it read the records (jobs_of)."""
    samples = []
    requests = 0
    for tid in sorted(behavior._queues):
        queue = behavior._queues[tid]
        times, prefix = queue._times, queue._prefix
        requests += len(times)
        if not times:
            continue
        granted = 0.0
        i = 0
        for job in trace.jobs_of(tid):
            g = queue._memo.get(job.index)
            if g is None:
                continue
            granted += g
            while i < len(times):
                need = prefix[i]
                if granted + 1e-9 * max(1.0, need) < need:
                    break
                if job.completion is not None:
                    samples.append(max(0.0, job.completion - times[i]))
                i += 1
    return samples, requests


class TestSojournRows:
    """The one-pass row reader answers what the per-task record reader did."""

    @pytest.mark.parametrize("backend", ["reference", "soa"])
    @pytest.mark.parametrize(
        "traffic",
        [poisson_traffic(0.45, 2, seed=3), mmpp_traffic(0.2, 2, seed=4)],
        ids=["poisson", "mmpp"],
    )
    def test_row_pass_equals_record_based_samples(self, backend, traffic):
        out = run_overload_experiment(
            generate_taskset(2015, PARAMS), CALM, MonitorSpec("simple", 0.6),
            horizon=3.0, config=KernelConfig(backend=backend),
            keep_artifacts=True, traffic=traffic,
        )
        behavior = out.kernel.behavior
        got = behavior.sojourn_samples(out.trace)  # before any record exists
        assert got == old_sojourn_samples(behavior, out.trace)
        assert got[0] and got[1] >= len(got[0])

    def test_rows_are_read_in_job_index_order(self):
        """Whatever order the rows were recorded in, jobs drain requests
        in index order (as jobs_of returned them)."""
        traffic = poisson_traffic(0.45, 1, seed=3)
        server = traffic.server_tasks(1)[0]
        behavior = traffic.build_behavior(None, horizon=2.0)
        releases = [k * server.period for k in range(40)]
        for k, r in enumerate(releases):
            behavior.exec_time(server, k, r)
        trace = Trace()
        for k in reversed(range(len(releases))):
            trace.job_rows.append((
                server.task_id, server.level, k, releases[k], 0.0,
                releases[k] + server.period / 2, None, None, None,
            ))
        got = behavior.sojourn_samples(trace)
        assert got == old_sojourn_samples(behavior, trace)
        assert len(got[0]) > 1
