"""Unit tests: the document codec's type rules and declarations.

The property suite (``tests/property/test_codec_props.py``) feeds every
decoder mutated documents; these tests pin the rules one at a time and
the decodes that used to coerce silently.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.faults.spec import FaultPlan, MonitorOutage, fault_from_dict
from repro.io import codec
from repro.io.runspec_json import runspec_from_dict, runspec_to_dict, spec_key
from repro.runtime.spec import MonitorSpec, ObsSpec, RunSpec, ScenarioSpec, TaskSetSpec
from repro.serve import protocol as wire
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import SHORT


def make_spec(**overrides) -> RunSpec:
    base = dict(
        taskset=TaskSetSpec.generated(2015, GeneratorParams(m=2)),
        scenario=ScenarioSpec.from_scenario(SHORT),
        monitor=MonitorSpec("simple", 0.6),
    )
    base.update(overrides)
    return RunSpec(**base)


def with_value(doc, path, value):
    doc = json.loads(json.dumps(doc))
    holder = doc
    for k in path[:-1]:
        holder = holder[k]
    holder[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value, field", [
    (("kernel", "use_virtual_time"), "false", "RunSpec.kernel.use_virtual_time"),
    (("kernel", "record_intervals"), "no", "RunSpec.kernel.record_intervals"),
    (("taskset", "seed"), "1", "RunSpec.taskset.seed"),
    (("horizon",), "30", "RunSpec.horizon"),
])
def test_runspec_refuses_strings_for_bools_and_numbers(path, value, field):
    doc = with_value(runspec_to_dict(make_spec()), path, value)
    with pytest.raises(ValueError, match=field):
        runspec_from_dict(doc)


@pytest.mark.parametrize("path, value", [
    (("taskset", "seed"), True),  # an int field takes no bool
    (("horizon",), False),  # nor does a float field
    (("kernel", "use_virtual_time"), 1),  # a bool field takes no integer
    (("scenario", "windows"), [[0.5]]),  # a pair is a pair
    (("scenario", "name"), 3),
])
def test_runspec_type_rules(path, value):
    with pytest.raises(ValueError, match="RunSpec." + path[0]):
        runspec_from_dict(with_value(runspec_to_dict(make_spec()), path, value))


def test_numbers_pass_as_read_and_classes_store_their_floats():
    doc = with_value(runspec_to_dict(make_spec()), ("horizon",), 30)
    spec = runspec_from_dict(doc)
    assert spec.horizon == 30.0 and isinstance(spec.horizon, float)  # store_floats
    assert spec.key() == make_spec(horizon=30.0).key()
    # GeneratorParams stores no floats: an int-built one keeps its key.
    params = GeneratorParams(m=2, level_c_share=1)
    built = make_spec(taskset=TaskSetSpec.generated(7, params))
    doc = runspec_to_dict(built)
    assert doc["taskset"]["params"]["level_c_share"] == 1
    assert json.dumps(runspec_to_dict(runspec_from_dict(doc))) == json.dumps(doc)
    assert runspec_from_dict(doc).key() == built.key()


def test_missing_fields_take_defaults_or_fail_by_name():
    doc = runspec_to_dict(make_spec())
    del doc["kernel"], doc["confirm_window"]
    assert runspec_from_dict(doc) == make_spec()
    del doc["scenario"]["name"]
    with pytest.raises(ValueError, match="RunSpec.scenario: missing required field 'name'"):
        runspec_from_dict(doc)


def test_unknown_fields_per_kind():
    doc = dict(runspec_to_dict(make_spec()), future_field=1)
    assert runspec_from_dict(doc) == make_spec()  # ignored
    params = with_value(runspec_to_dict(make_spec()), ("taskset", "params", "utl"), 1)
    with pytest.raises(ValueError, match="unknown field"):
        runspec_from_dict(params)  # GeneratorParams refuses them
    fault = {"kind": "monitor_outage", "start": 0.0, "end": 1.0, "mood": "bad"}
    with pytest.raises(ValueError, match="unknown field"):
        fault_from_dict(fault)  # so do faults: ValueError, not TypeError


def test_omit_at_default_and_unkeyed_declarations():
    plain = make_spec()
    traced = make_spec(obs=ObsSpec(trace_dir="t"))
    assert "obs" not in runspec_to_dict(plain)
    assert "backend" not in runspec_to_dict(plain)["kernel"]
    assert runspec_to_dict(traced)["obs"] == {"trace_dir": "t", "trace_name": None}
    assert spec_key(traced) == spec_key(plain)
    assert codec.encode(traced, keyed=True) == codec.encode(plain)


def test_wire_payloads_are_checked_not_copied():
    cells = [{"a": [1, 2]}, {"b": {}}]
    meta = {"fault_free": True}
    grant = codec.decode(wire.LeaseGrant, {"cells": cells, "meta": meta})
    assert grant.meta is meta and all(x is y for x, y in zip(grant.cells, cells))
    assert codec.encode(grant)["meta"] is meta
    with pytest.raises(ValueError, match=r"LeaseGrant.cells\[1\]: expected an object"):
        codec.decode(wire.LeaseGrant, {"cells": [{}, []]})


def test_encode_never_deep_copies(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dataclasses.asdict called")

    monkeypatch.setattr(dataclasses, "asdict", refuse)
    msg = wire.ShardDone(results=[{"x": 1}], cached=[False], wall_ns=[3])
    assert wire.decode_message(wire.encode_message(msg)) == msg
    assert FaultPlan.from_dict(FaultPlan((MonitorOutage(0.1, 0.2),)).to_dict())


def test_tagged_union_errors_name_the_kind():
    with pytest.raises(ValueError, match="unknown fault kind 'gamma'"):
        fault_from_dict({"kind": "gamma"})
    with pytest.raises(ValueError, match=r"FaultPlan.faults\[0\]: unknown fault kind"):
        FaultPlan.from_dict({"format": "repro-faultplan", "version": 1,
                             "faults": [{"kind": ["x"]}]})


def test_plans_are_built_on_first_use_not_at_import():
    code = (
        "import repro.cli\n"
        "from repro.io import codec\n"
        "assert not codec._PLANS, sorted(c.__name__ for c in codec._PLANS)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
