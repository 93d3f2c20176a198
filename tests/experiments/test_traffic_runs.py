"""End-to-end tests for open-system traffic runs.

Pins the acceptance criteria of the traffic layer:

* both kernel backends produce identical fingerprints on traffic cells;
* serial / pool / sharded execution agree bit-for-bit on traffic grids;
* attaching traffic to a RunSpec changes its cache key, while specs
  *without* traffic keep their exact pre-traffic canonical JSON;
* the sweep + figure helpers produce sane axes;
* the ``traffic`` CLI subcommand parses.
"""

import pytest

from repro.cli import build_parser
from repro.experiments.traffic import (
    figure_offered_load,
    mmpp_traffic,
    poisson_traffic,
    traffic_sweep,
)
from repro.io.runspec_json import (
    runspec_canonical_json,
    runspec_from_json,
    spec_key,
)
from repro.runtime.executor import SerialBackend, run_spec
from repro.runtime.spec import MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.sim.diffcheck import DiffScenario, compare_backends
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import CALM, SHORT

PARAMS = GeneratorParams(m=2)


def make_spec(traffic=None, monitor="simple", s=0.6):
    return RunSpec(
        taskset=TaskSetSpec.generated(2015, PARAMS),
        scenario=ScenarioSpec.from_scenario(CALM if traffic else SHORT),
        monitor=MonitorSpec(monitor, s),
        horizon=3.0,
        traffic=traffic,
    )


class TestBackendInvariance:
    @pytest.mark.parametrize("preset", ["poisson", "mmpp", "diurnal"])
    def test_reference_and_soa_agree_on_traffic(self, preset):
        sc = DiffScenario(
            seed=301, m=2, behavior="constant", monitor="simple",
            monitor_arg=0.6, horizon=1.0, traffic=preset,
        )
        res = compare_backends(sc)
        assert res.equal, res.mismatched


class TestCacheKeys:
    def test_plain_spec_has_no_traffic_key(self):
        """Pre-traffic RunSpecs keep their exact canonical text (and
        therefore their cache keys): the traffic field is emitted only
        when present."""
        text = runspec_canonical_json(make_spec())
        assert '"traffic"' not in text

    def test_traffic_changes_the_key(self):
        plain = make_spec()
        spec = make_spec(traffic=poisson_traffic(0.2, m=2, seed=1))
        assert spec_key(spec) != spec_key(plain)
        other = make_spec(traffic=poisson_traffic(0.2, m=2, seed=2))
        assert spec_key(spec) != spec_key(other)

    def test_traffic_spec_round_trips_through_json(self):
        for tspec in (
            poisson_traffic(0.3, m=2, seed=3),
            mmpp_traffic(0.05, m=2, seed=4),
        ):
            spec = make_spec(traffic=tspec)
            back = runspec_from_json(spec.canonical_json())
            assert back == spec
            assert spec_key(back) == spec_key(spec)

    def test_run_spec_executes_traffic(self):
        spec = make_spec(traffic=poisson_traffic(0.45, m=2, seed=0))
        r = run_spec(spec)
        assert r.scenario == "CALM"
        assert r.events > 0
        # Same spec, same result: traffic cells cache like any others.
        assert run_spec(spec) == r


class TestSweepAndFigures:
    @pytest.fixture(scope="class")
    def refs(self):
        return [TaskSetSpec.generated(2015, PARAMS)]

    def test_sweep_grid_shape(self, refs):
        traffics = [(x, poisson_traffic(x, m=2, seed=0)) for x in (0.1, 0.45)]
        monitors = (MonitorSpec("simple", 0.6),)
        results = traffic_sweep(
            refs, traffics, monitors=monitors, horizon=2.0,
        )
        assert set(results) == {("SIMPLE(s=0.6)", 0.1), ("SIMPLE(s=0.6)", 0.45)}
        assert all(len(v) == 1 for v in results.values())

    def test_serial_results_deterministic(self, refs):
        traffics = [(0.45, poisson_traffic(0.45, m=2, seed=0))]
        monitors = (MonitorSpec("simple", 0.6),)
        a = traffic_sweep(refs, traffics, monitors=monitors, horizon=2.0,
                          executor=SerialBackend())
        b = traffic_sweep(refs, traffics, monitors=monitors, horizon=2.0,
                          executor=SerialBackend())
        assert a == b

    def test_figure_offered_load_axes(self, refs):
        fig = figure_offered_load(
            refs, m=2, loads_per_cpu=(0.1, 0.45),
            monitors=(MonitorSpec("simple", 0.6),), horizon=2.0,
        )
        assert fig.figure_id == "Fig. T1"
        assert [s.label for s in fig.series] == ["SIMPLE(s=0.6)"]
        points = fig.series[0].points
        assert [p.x for p in points] == [0.1, 0.45]
        assert all(p.ci.mean >= 0.0 for p in points)
        # Rendering must not explode (the CLI prints this table).
        assert "Fig. T1" in fig.render(1e3, "ms")


class TestCli:
    def test_traffic_subcommand_parses(self):
        parser = build_parser()
        args = parser.parse_args([
            "traffic", "--figure", "load", "--m", "8",
            "--tasksets", "2", "--values", "0.1", "0.4",
        ])
        assert args.command == "traffic"
        assert args.figure == "load"
        assert args.m == 8
        assert args.values == [0.1, 0.4]

    def test_burst_figure_flag(self):
        parser = build_parser()
        args = parser.parse_args(["traffic", "--figure", "burst"])
        assert args.figure == "burst"
