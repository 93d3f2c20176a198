"""Tests for open-system traffic workloads (sources, servers, behavior)."""

import json

import pytest

from repro.core.gel import gfl_relative_pp
from repro.model.behavior import ConstantBehavior
from repro.model.task import CriticalityLevel as L
from repro.workload.generator import GeneratorParams, generate_taskset
from repro.workload.traffic import (
    TRAFFIC_BASE_ID,
    Arrival,
    DiurnalCurveSource,
    MMPPSource,
    PoissonSource,
    ServerSpec,
    TraceReplaySource,
    TrafficFlow,
    TrafficSpec,
    arrivals_ndjson,
    parse_arrivals_ndjson,
    source_from_dict,
    source_to_dict,
    traffic_from_dict,
    traffic_to_dict,
)

HORIZON = 2.0

SOURCES = [
    PoissonSource(rate=200.0, mean_demand=0.002, seed=5),
    MMPPSource(rates=(50.0, 800.0), dwells=(0.3, 0.08),
               mean_demand=0.002, seed=5),
    DiurnalCurveSource(base_rate=30.0, peak_rate=500.0, period=0.9,
                       mean_demand=0.002, seed=5),
    TraceReplaySource.from_arrivals(
        [Arrival(0.1, 0.003), Arrival(0.4, 0.001), Arrival(1.2, 0.002)]
    ),
]


def _reseed_via_dict(source, seed):
    """The same source spec with only the seed changed."""
    doc = source_to_dict(source)
    doc["seed"] = seed
    return source_from_dict(doc)


class TestDeterminism:
    """Same spec => byte-identical arrival NDJSON; different seed differs."""

    @pytest.mark.parametrize("source", SOURCES, ids=lambda s: type(s).__name__)
    def test_same_spec_byte_identical(self, source):
        a = arrivals_ndjson(source, HORIZON)
        b = arrivals_ndjson(source, HORIZON)
        assert a == b
        # A reconstructed equal spec (fresh object) expands identically too.
        clone = source_from_dict(source_to_dict(source))
        assert arrivals_ndjson(clone, HORIZON) == a

    @pytest.mark.parametrize(
        "source", SOURCES[:3], ids=lambda s: type(s).__name__
    )
    def test_different_seed_different_arrivals(self, source):
        other = _reseed_via_dict(source, source.seed + 1)
        assert arrivals_ndjson(other, HORIZON) != arrivals_ndjson(source, HORIZON)

    @pytest.mark.parametrize("source", SOURCES, ids=lambda s: type(s).__name__)
    def test_arrivals_sorted_and_in_horizon(self, source):
        arr = source.arrivals(HORIZON)
        times = [a.time for a in arr]
        assert times == sorted(times)
        assert all(0.0 <= t < HORIZON for t in times)
        assert all(a.demand >= 0.0 for a in arr)

    def test_ndjson_round_trip(self):
        source = SOURCES[1]
        text = arrivals_ndjson(source, HORIZON)
        back = parse_arrivals_ndjson(text)
        assert back == source.arrivals(HORIZON)
        # Replaying the text reproduces the exact same bytes.
        replay = TraceReplaySource(ndjson=text)
        assert arrivals_ndjson(replay, HORIZON) == text

    def test_demand_fixed_is_constant(self):
        src = PoissonSource(rate=100.0, mean_demand=0.004, demand="fixed", seed=1)
        assert {a.demand for a in src.arrivals(HORIZON)} == {0.004}


class TestSourceValidation:
    def test_poisson_rejects_bad(self):
        with pytest.raises(ValueError):
            PoissonSource(rate=0.0, mean_demand=0.001)
        with pytest.raises(ValueError):
            PoissonSource(rate=1.0, mean_demand=0.001, demand="uniform")

    def test_mmpp_rejects_bad(self):
        with pytest.raises(ValueError):
            MMPPSource(rates=(1.0,), dwells=(1.0,), mean_demand=0.001)
        with pytest.raises(ValueError):
            MMPPSource(rates=(1.0, 2.0), dwells=(1.0,), mean_demand=0.001)
        with pytest.raises(ValueError):
            MMPPSource(rates=(1.0, 2.0), dwells=(1.0, 1.0),
                       mean_demand=0.001, start_state=5)

    def test_diurnal_rejects_peak_below_base(self):
        with pytest.raises(ValueError):
            DiurnalCurveSource(base_rate=10.0, peak_rate=5.0, period=1.0,
                               mean_demand=0.001)

    def test_replay_rejects_bad_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            TraceReplaySource(ndjson="not json\n")
        with pytest.raises(ValueError, match=">= 0"):
            TraceReplaySource(ndjson='{"t":-1.0,"demand":0.1}\n')

    def test_replay_sorts_out_of_order_trace(self):
        src = TraceReplaySource(
            ndjson='{"t":0.5,"demand":0.1}\n{"t":0.1,"demand":0.2}\n'
        )
        assert [a.time for a in src.arrivals(1.0)] == [0.1, 0.5]


class TestAnalysisAxes:
    def test_poisson_offered_load(self):
        src = PoissonSource(rate=100.0, mean_demand=0.002)
        assert src.offered_load(10.0) == pytest.approx(0.2)
        assert src.burst_size() == 0.0
        assert src.last_burst_end(10.0) == 0.0

    def test_mmpp_axes(self):
        src = MMPPSource(rates=(50.0, 800.0), dwells=(0.3, 0.08),
                         mean_demand=0.002, seed=5)
        # Dwell-weighted mean rate.
        expect = (50.0 * 0.3 + 800.0 * 0.08) / 0.38 * 0.002
        assert src.offered_load(10.0) == pytest.approx(expect)
        assert src.burst_size() == pytest.approx((800.0 - 50.0) * 0.08 * 0.002)
        # last_burst_end is the end of a peak dwell segment.
        end = src.last_burst_end(HORIZON)
        assert 0.0 < end <= HORIZON
        segments = src._segments(HORIZON)
        peak_ends = [e for (s, e, r) in segments if r == 800.0]
        assert end == peak_ends[-1]

    def test_diurnal_axes(self):
        src = DiurnalCurveSource(base_rate=30.0, peak_rate=500.0, period=0.9,
                                 mean_demand=0.002, seed=5)
        assert src.offered_load(10.0) == pytest.approx((30 + 500) / 2 * 0.002)
        assert src.burst_size() > 0.0
        # Last above-mean half-period before a 2 s horizon: the curve is
        # above its mean while the phase fraction is in [1/4, 3/4); with
        # period 0.9 the relevant window is [1.125, 1.575).
        assert src.last_burst_end(2.0) == pytest.approx(1.575)
        # A horizon inside the window truncates to it.
        assert src.last_burst_end(1.3) == pytest.approx(1.3)

    def test_replay_burst_is_last_arrival(self):
        src = SOURCES[3]
        assert src.last_burst_end(HORIZON) == pytest.approx(1.2)
        assert src.last_burst_end(1.0) == pytest.approx(0.4)


class TestServerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServerSpec(period=0.01, budget=0.02)  # budget > period
        with pytest.raises(ValueError):
            ServerSpec(level="A")
        with pytest.raises(ValueError):
            ServerSpec(policy="sporadic")
        with pytest.raises(ValueError):
            ServerSpec(count=0)

    def test_utilization(self):
        srv = ServerSpec(period=0.02, budget=0.004, count=3)
        assert srv.utilization == pytest.approx(0.6)


class TestTrafficSpecExpansion:
    def make_spec(self):
        return TrafficSpec(flows=(
            TrafficFlow(
                PoissonSource(rate=100.0, mean_demand=0.002, seed=1),
                ServerSpec(period=0.02, budget=0.004, count=2),
            ),
            TrafficFlow(
                PoissonSource(rate=50.0, mean_demand=0.001, seed=2),
                ServerSpec(period=0.05, budget=0.002, level="D"),
            ),
        ))

    def test_needs_flows(self):
        with pytest.raises(ValueError):
            TrafficSpec(flows=())

    def test_server_tasks_ids_and_levels(self):
        tasks = self.make_spec().server_tasks(m=4)
        assert [t.task_id for t in tasks] == [
            TRAFFIC_BASE_ID, TRAFFIC_BASE_ID + 1, TRAFFIC_BASE_ID + 2
        ]
        assert [t.level for t in tasks] == [L.C, L.C, L.D]
        assert [t.name for t in tasks] == ["srv0.0", "srv0.1", "srv1.0"]
        c0 = tasks[0]
        assert c0.period == 0.02
        assert c0.pwcets[L.C] == 0.004
        assert c0.tolerance == 0.02  # defaults to the period
        assert c0.relative_pp == pytest.approx(
            gfl_relative_pp(0.02, 0.004, 4)
        )
        d0 = tasks[2]
        assert d0.pwcets[L.D] == 0.002

    def test_tolerance_override(self):
        spec = TrafficSpec(flows=(
            TrafficFlow(
                PoissonSource(rate=10.0, mean_demand=0.001),
                ServerSpec(period=0.02, budget=0.004, tolerance=0.1),
            ),
        ))
        assert spec.server_tasks(2)[0].tolerance == 0.1

    def test_augment_keeps_base_tasks(self):
        ts = generate_taskset(2015, GeneratorParams(m=2))
        spec = self.make_spec()
        aug = spec.augment(ts)
        assert len(aug) == len(ts) + 3
        assert aug.m == ts.m
        base_ids = {t.task_id for t in ts}
        assert base_ids < {t.task_id for t in aug}

    def test_spec_axes_aggregate_flows(self):
        spec = self.make_spec()
        assert spec.offered_load(10.0) == pytest.approx(
            100 * 0.002 + 50 * 0.001
        )
        assert spec.service_utilization() == pytest.approx(
            2 * 0.004 / 0.02 + 0.002 / 0.05
        )
        assert spec.burst_size() == 0.0
        assert spec.last_burst_end(10.0) == 0.0


class TestCanonicalJson:
    def test_round_trip_all_source_kinds(self):
        for source in SOURCES:
            spec = TrafficSpec(flows=(
                TrafficFlow(source, ServerSpec(period=0.03, budget=0.006,
                                               policy="deferrable", count=2)),
            ))
            back = traffic_from_dict(traffic_to_dict(spec))
            assert back == spec
            assert back.canonical_json() == spec.canonical_json()

    def test_int_fields_survive_a_round_trip(self):
        # The reader converts with float(), so PoissonSource(rate=300)
        # used to change its canonical JSON after one reload.
        for source, twin in [
            (PoissonSource(rate=300, mean_demand=1), PoissonSource(rate=300.0, mean_demand=1.0)),
            (MMPPSource(rates=(60, 1200), dwells=(1, 1), mean_demand=1),
             MMPPSource(rates=(60.0, 1200.0), dwells=(1.0, 1.0), mean_demand=1.0)),
            (DiurnalCurveSource(base_rate=40, peak_rate=700, period=1, mean_demand=1),
             DiurnalCurveSource(base_rate=40.0, peak_rate=700.0, period=1.0,
                                mean_demand=1.0)),
        ]:
            spec = TrafficSpec(flows=(
                TrafficFlow(source, ServerSpec(period=1, budget=1, tolerance=2)),
            ))
            twin_spec = TrafficSpec(flows=(
                TrafficFlow(twin, ServerSpec(period=1.0, budget=1.0, tolerance=2.0)),
            ))
            assert spec.canonical_json() == twin_spec.canonical_json()
            back = traffic_from_dict(json.loads(spec.canonical_json()))
            assert back.canonical_json() == spec.canonical_json()

    def test_canonical_text_sorted_no_spaces(self):
        spec = TrafficSpec(flows=(
            TrafficFlow(PoissonSource(rate=10.0, mean_demand=0.001)),
        ))
        text = spec.canonical_json()
        assert ": " not in text and ", " not in text
        doc = json.loads(text)
        assert doc == traffic_to_dict(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            source_from_dict({"kind": "fractal"})

    def test_unknown_source_type_rejected(self):
        with pytest.raises(TypeError):
            TrafficFlow(source=object())


class TestServerGrants:
    """_ServerQueue semantics through the public behavior wrapper."""

    def behavior_for(self, spec, horizon=1.0):
        inner = ConstantBehavior(L.C)
        return spec.build_behavior(inner, horizon), spec.server_tasks(m=2)

    def test_polling_grants_backlog_capped_at_budget(self):
        trace = TraceReplaySource.from_arrivals(
            [Arrival(0.000, 0.003), Arrival(0.001, 0.003), Arrival(0.5, 0.001)]
        )
        spec = TrafficSpec(flows=(
            TrafficFlow(trace, ServerSpec(period=0.1, budget=0.004)),
        ))
        beh, (srv,) = self.behavior_for(spec)
        # Release 0.1: 0.006 arrived, capped at budget 0.004.
        assert beh.exec_time(srv, 1, 0.1) == pytest.approx(0.004)
        # Release 0.2: the remaining 0.002 backlog drains.
        assert beh.exec_time(srv, 2, 0.2) == pytest.approx(0.002)
        # Release 0.3/0.4: idle.
        assert beh.exec_time(srv, 3, 0.3) == 0.0
        # Release 0.6: the late arrival.
        assert beh.exec_time(srv, 6, 0.6) == pytest.approx(0.001)

    def test_grants_conserve_total_demand(self):
        src = PoissonSource(rate=300.0, mean_demand=0.002, seed=9)
        spec = TrafficSpec(flows=(
            TrafficFlow(src, ServerSpec(period=0.02, budget=0.01, count=2)),
        ))
        horizon = 2.0
        beh, tasks = self.behavior_for(spec, horizon)
        total = 0.0
        for srv in tasks:
            k = 0
            while k * srv.period < horizon + 1.0:  # drain past the horizon
                total += beh.exec_time(srv, k, k * srv.period)
                k += 1
        offered = sum(a.demand for a in src.arrivals(horizon))
        assert total == pytest.approx(offered)

    def test_polling_ignores_future_arrivals_deferrable_admits(self):
        trace = TraceReplaySource.from_arrivals([Arrival(0.105, 0.002)])
        for policy, expect in (("polling", 0.0), ("deferrable", 0.002)):
            spec = TrafficSpec(flows=(
                TrafficFlow(trace, ServerSpec(period=0.1, budget=0.004,
                                              policy=policy)),
            ))
            beh, (srv,) = self.behavior_for(spec)
            # Release at 0.1: the arrival at 0.105 is within one period
            # of lookahead for the deferrable server only.
            assert beh.exec_time(srv, 1, 0.1) == pytest.approx(expect)

    def test_grant_memoized_per_job_index(self):
        trace = TraceReplaySource.from_arrivals([Arrival(0.0, 0.002)])
        spec = TrafficSpec(flows=(
            TrafficFlow(trace, ServerSpec(period=0.1, budget=0.004)),
        ))
        beh, (srv,) = self.behavior_for(spec)
        first = beh.exec_time(srv, 1, 0.1)
        assert first == pytest.approx(0.002)
        # Re-sampling the same job returns the memo, not a fresh grant.
        assert beh.exec_time(srv, 1, 0.1) == first
        assert beh.exec_time(srv, 2, 0.2) == 0.0

    def test_round_robin_partition(self):
        trace = TraceReplaySource.from_arrivals(
            [Arrival(0.01 * i, 0.001) for i in range(4)]
        )
        spec = TrafficSpec(flows=(
            TrafficFlow(trace, ServerSpec(period=0.1, budget=0.01, count=2)),
        ))
        beh, (s0, s1) = self.behavior_for(spec)
        # Arrivals 0,2 go to server 0; arrivals 1,3 to server 1.
        assert beh.exec_time(s0, 1, 0.1) == pytest.approx(0.002)
        assert beh.exec_time(s1, 1, 0.1) == pytest.approx(0.002)

    def test_non_server_tasks_delegate_to_inner(self):
        ts = generate_taskset(2015, GeneratorParams(m=2))
        spec = TrafficSpec(flows=(
            TrafficFlow(PoissonSource(rate=10.0, mean_demand=0.001)),
        ))
        inner = ConstantBehavior(L.C)
        beh = spec.build_behavior(inner, 1.0)
        for task in ts:
            assert beh.exec_time(task, 0, 0.0) == inner.exec_time(task, 0, 0.0)
