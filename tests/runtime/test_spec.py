"""Tests for RunSpec and its canonical serialization / hashing."""

import hashlib
import json

import pytest

from repro.io.runspec_json import (
    runspec_canonical_json,
    runspec_from_dict,
    runspec_from_json,
    runspec_to_dict,
    spec_key,
)
from repro.runtime.spec import (
    KernelSpec,
    MonitorSpec,
    RunSpec,
    ScenarioSpec,
    TaskSetSpec,
)
from repro.sim.kernel import KernelConfig
from repro.workload.generator import GeneratorParams, generate_taskset
from repro.workload.scenarios import DOUBLE, SHORT


def make_spec(**overrides) -> RunSpec:
    base = dict(
        taskset=TaskSetSpec.generated(2015, GeneratorParams(m=2)),
        scenario=ScenarioSpec.from_scenario(SHORT),
        monitor=MonitorSpec("simple", 0.6),
    )
    base.update(overrides)
    return RunSpec(**base)


class TestTaskSetSpec:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            TaskSetSpec()
        with pytest.raises(ValueError):
            TaskSetSpec(seed=1, inline="{}")
        with pytest.raises(ValueError):
            TaskSetSpec(inline="{}", params=GeneratorParams())

    def test_generated_materializes_deterministically(self):
        ref = TaskSetSpec.generated(7, GeneratorParams(m=2))
        a, b = ref.materialize(), ref.materialize()
        assert len(a) == len(b)
        assert [t.period for t in a] == [t.period for t in b]

    def test_inline_round_trip(self):
        ts = generate_taskset(11, GeneratorParams(m=2))
        ref = TaskSetSpec.from_taskset(ts)
        back = ref.materialize()
        assert len(back) == len(ts)
        assert back.m == ts.m

    def test_labels(self):
        assert TaskSetSpec.generated(9).label == "seed:9"
        ts = generate_taskset(9, GeneratorParams(m=2))
        assert "inline" in TaskSetSpec.from_taskset(ts).label


class TestScenarioSpec:
    def test_round_trip(self):
        spec = ScenarioSpec.from_scenario(DOUBLE)
        sc = spec.build()
        assert sc.name == "DOUBLE"
        assert [(w.start, w.end) for w in sc.windows] == [(0.0, 0.5), (1.5, 2.0)]
        assert sc.overload_level.name == "B"

    def test_empty_windows_allowed(self):
        """Window-less scenarios (CALM) are valid: open-system runs get
        their overload from traffic, not scripted windows."""
        spec = ScenarioSpec(name="CALM", windows=())
        sc = spec.build()
        assert sc.windows == ()
        assert sc.last_overload_end == 0.0


class TestKernelSpec:
    def test_config_round_trip(self):
        cfg = KernelConfig(use_virtual_time=False, monitor_latency=0.25)
        spec = KernelSpec.from_config(cfg)
        back = spec.to_config()
        assert back.use_virtual_time is False
        assert back.monitor_latency == 0.25

    def test_release_delay_rejected(self):
        cfg = KernelConfig(release_delay=lambda task, k: 0.0)
        with pytest.raises(ValueError, match="release_delay"):
            KernelSpec.from_config(cfg)


class TestRunSpecValidation:
    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            make_spec(horizon=0.0)

    def test_confirm_window_nonnegative(self):
        with pytest.raises(ValueError):
            make_spec(confirm_window=-1.0)

    def test_hashable_and_usable_as_dict_key(self):
        d = {make_spec(): 1}
        assert d[make_spec()] == 1

    def test_active_monitor_without_virtual_time_refused(self):
        # Refused when the spec is built, not at attach_monitor inside
        # the run: plain GEL supports only the "none" monitor.
        no_vt = KernelSpec(use_virtual_time=False)
        for kind, param in (("simple", 0.6), ("adaptive", 0.5)):
            with pytest.raises(ValueError, match="use_virtual_time=True"):
                make_spec(monitor=MonitorSpec(kind, param), kernel=no_vt)
        assert make_spec(monitor=MonitorSpec("none", None), kernel=no_vt).key()

    def test_stored_active_monitor_without_virtual_time_refused(self):
        doc = runspec_to_dict(make_spec())
        doc["kernel"]["use_virtual_time"] = False
        with pytest.raises(ValueError, match="use_virtual_time=True"):
            runspec_from_dict(doc)


class TestCanonicalJson:
    def test_equal_specs_equal_keys(self):
        assert spec_key(make_spec()) == spec_key(make_spec())

    def test_key_is_sha256_of_canonical_json(self):
        spec = make_spec()
        expected = hashlib.sha256(
            runspec_canonical_json(spec).encode("utf-8")
        ).hexdigest()
        assert spec.key() == expected
        assert spec.canonical_json() == runspec_canonical_json(spec)

    def test_field_order_does_not_matter(self):
        # Keyword order at construction cannot leak into the canonical text.
        a = RunSpec(
            taskset=TaskSetSpec.generated(1),
            scenario=ScenarioSpec.from_scenario(SHORT),
            monitor=MonitorSpec("simple", 0.6),
            horizon=30.0,
        )
        b = RunSpec(
            horizon=30.0,
            monitor=MonitorSpec("simple", 0.6),
            scenario=ScenarioSpec.from_scenario(SHORT),
            taskset=TaskSetSpec.generated(1),
        )
        assert runspec_canonical_json(a) == runspec_canonical_json(b)

    def test_canonical_text_has_sorted_keys_and_no_spaces(self):
        text = runspec_canonical_json(make_spec())
        assert ": " not in text and ", " not in text
        doc = json.loads(text)
        assert list(doc) == sorted(doc)

    def test_float_formatting_is_shortest_repr(self):
        # 0.6 must serialize as the literal shortest repr, stable across
        # runs and platforms (it is the cache key's raw material).
        text = runspec_canonical_json(make_spec(monitor=MonitorSpec("simple", 0.6)))
        assert '"param":0.6' in text

    def test_distinct_floats_distinct_keys(self):
        near = 0.6 + 1e-15  # a genuinely different float
        assert near != 0.6
        a = make_spec(monitor=MonitorSpec("simple", 0.6))
        b = make_spec(monitor=MonitorSpec("simple", near))
        assert spec_key(a) != spec_key(b)

    def test_any_field_change_changes_key(self):
        base = make_spec()
        variants = [
            make_spec(taskset=TaskSetSpec.generated(2016, GeneratorParams(m=2))),
            make_spec(scenario=ScenarioSpec.from_scenario(DOUBLE)),
            make_spec(monitor=MonitorSpec("adaptive", 0.6)),
            make_spec(horizon=31.0),
            make_spec(level_c_budgets=False),
            make_spec(kernel=KernelSpec(monitor_latency=0.001)),
        ]
        keys = {spec_key(v) for v in variants}
        assert spec_key(base) not in keys
        assert len(keys) == len(variants)

    def test_dict_round_trip(self):
        spec = make_spec(
            monitor=MonitorSpec("clamped", 0.6, 0.3),
            scenario=ScenarioSpec.from_scenario(DOUBLE),
        )
        assert runspec_from_dict(runspec_to_dict(spec)) == spec
        assert runspec_from_json(spec.canonical_json()) == spec

    def test_inline_taskset_round_trip(self):
        ts = generate_taskset(5, GeneratorParams(m=2))
        spec = make_spec(taskset=TaskSetSpec.from_taskset(ts))
        back = runspec_from_dict(runspec_to_dict(spec))
        assert back == spec
        assert spec_key(back) == spec_key(spec)

    def test_int_fields_key_like_their_float_twins(self):
        # The reader converts with float(), so a spec that kept its ints
        # hashed "horizon":2 while its reloaded twin hashed 2.0.
        cases = [
            ({"horizon": 2, "confirm_window": 1}, {"horizon": 2.0, "confirm_window": 1.0}),
            ({"monitor": MonitorSpec("simple", 1)}, {"monitor": MonitorSpec("simple", 1.0)}),
            ({"monitor": MonitorSpec("stepped", 1, 2)},
             {"monitor": MonitorSpec("stepped", 1.0, 2.0)}),
            ({"kernel": KernelSpec(monitor_latency=0)},
             {"kernel": KernelSpec(monitor_latency=0.0)}),
            ({"scenario": ScenarioSpec(name="w", windows=((1, 2),))},
             {"scenario": ScenarioSpec(name="w", windows=((1.0, 2.0),))}),
        ]
        for ints, floats in cases:
            spec, twin = make_spec(**ints), make_spec(**floats)
            assert spec.key() == twin.key(), ints
            back = runspec_from_dict(runspec_to_dict(spec))
            assert back == spec and back.key() == spec.key(), ints

    def test_monitor_without_param_round_trips(self):
        spec = make_spec(monitor=MonitorSpec("none", None))
        back = runspec_from_dict(runspec_to_dict(spec))
        assert back.monitor.param is None
        assert back.key() == spec.key()

    def test_bad_header_rejected(self):
        doc = runspec_to_dict(make_spec())
        doc["format"] = "something-else"
        with pytest.raises(ValueError, match="format"):
            runspec_from_dict(doc)
        doc2 = runspec_to_dict(make_spec())
        doc2["version"] = 99
        with pytest.raises(ValueError, match="version"):
            runspec_from_dict(doc2)
