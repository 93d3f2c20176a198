"""Property tests: every decoder refuses a bad document with ``ValueError``.

Each document kind that is read back from disk or the wire is fed
mutated copies of the golden corpus documents
(``tests/io/test_golden_documents.py``): a value of another JSON type at
a random path, a field removed, an unknown field added, or a wrong
``kind``/``type`` tag.  Every decode must either give a value that
encodes to a document that decodes and encodes to itself, or raise a
``ValueError``
(``ProtocolError`` and ``ProvenanceError`` are subclasses) — never a
``TypeError``, ``KeyError`` or ``AttributeError`` from deep inside.
"""

import copy
import json
from typing import Any, Callable, Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.campaign import CampaignCell, CellOutcome, Scorecard
from repro.faults.invariants import Violation
from repro.faults.spec import FaultPlan, fault_from_dict, fault_to_dict
from repro.io.results_json import run_result_from_dict, run_result_to_dict
from repro.io.runspec_json import runspec_from_dict, runspec_to_dict
from repro.io.taskset_json import (
    task_from_dict,
    task_to_dict,
    taskset_from_json,
    taskset_to_json,
)
from repro.provenance import ProvenanceManifest
from repro.runtime.shard import ShardedCampaign
from repro.serve import protocol as wire
from repro.workload.traffic import (
    source_from_dict,
    source_to_dict,
    traffic_from_dict,
    traffic_to_dict,
)
from tests.io.test_golden_documents import (
    CELL,
    FAULTS,
    MANIFEST,
    MESSAGES,
    OUTCOME,
    PLAN,
    RESULT,
    SCORECARD,
    SPECS,
    SWEEP,
    TRAFFIC_RESULT,
    hand_built_taskset,
)


def _frame_decode(doc: Any) -> Any:
    return wire.decode_message(json.dumps(doc))


def _frame_encode(msg: Any) -> Any:
    return json.loads(wire.encode_message(msg))


#: name -> (decode, encode, base documents)
KINDS: Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any], List[Any]]] = {
    "runspec": (runspec_from_dict, runspec_to_dict,
                [runspec_to_dict(s) for s in SPECS.values()]),
    "traffic": (traffic_from_dict, traffic_to_dict,
                [traffic_to_dict(s.traffic) for s in SPECS.values() if s.traffic]),
    "source": (source_from_dict, source_to_dict,
               [source_to_dict(s.traffic.flows[0].source)
                for s in SPECS.values() if s.traffic]),
    "task": (task_from_dict, task_to_dict,
             [task_to_dict(t) for t in hand_built_taskset()]),
    "taskset": (lambda doc: taskset_from_json(json.dumps(doc)),
                lambda ts: json.loads(taskset_to_json(ts)),
                [json.loads(taskset_to_json(hand_built_taskset()))]),
    "fault": (fault_from_dict, fault_to_dict, [fault_to_dict(f) for f in PLAN.faults]),
    "faultplan": (FaultPlan.from_dict, FaultPlan.to_dict, [PLAN.to_dict()]),
    "cell": (CampaignCell.from_dict, CampaignCell.to_dict, [CELL.to_dict()]),
    "violation": (Violation.from_dict, Violation.to_dict,
                  [v.to_dict() for v in OUTCOME.violations]),
    "outcome": (CellOutcome.from_dict, CellOutcome.to_dict, [OUTCOME.to_dict()]),
    "result": (run_result_from_dict, run_result_to_dict,
               [run_result_to_dict(RESULT), run_result_to_dict(TRAFFIC_RESULT)]),
    "frame": (_frame_decode, _frame_encode, [_frame_encode(m) for m in MESSAGES]),
    "campaign": (ShardedCampaign.from_dict, ShardedCampaign.to_dict,
                 [SWEEP.to_dict(), FAULTS.to_dict()]),
    "manifest": (ProvenanceManifest.from_dict, ProvenanceManifest.to_dict,
                 [MANIFEST.to_dict()]),
    "scorecard": (Scorecard.from_dict, lambda s: json.loads(s.to_json()),
                  [json.loads(SCORECARD.to_json())]),
}

OTHER_VALUES = [None, True, False, 0, 7, -1, 1.5, "", "x", [], [1], {}, {"a": 1}]


def _paths(doc: Any, prefix: Tuple[Any, ...] = ()) -> List[Tuple[Any, ...]]:
    """Every path below *doc* (dict keys and list indices)."""
    out = []
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return out
    for k, v in items:
        out.append(prefix + (k,))
        out.extend(_paths(v, prefix + (k,)))
    return out


def _get(doc: Any, path: Tuple[Any, ...]) -> Any:
    for k in path:
        doc = doc[k]
    return doc


def _parent(doc: Any, path: Tuple[Any, ...]) -> Any:
    return _get(doc, path[:-1])


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(KINDS)))
    decode, encode, bases = KINDS[name]
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    paths = _paths(doc)
    how = draw(st.sampled_from(["retype", "remove", "add", "tag"]))
    if how == "retype" and paths:
        path = draw(st.sampled_from(paths))
        _parent(doc, path)[path[-1]] = draw(st.sampled_from(OTHER_VALUES))
    elif how == "remove":
        dict_paths = [p for p in paths if isinstance(_parent(doc, p), dict)]
        if dict_paths:
            path = draw(st.sampled_from(dict_paths))
            del _parent(doc, path)[path[-1]]
    elif how == "add":
        holders = [p for p in [()] + paths if isinstance(_get(doc, p), dict)]
        path = draw(st.sampled_from(holders))
        _get(doc, path)[draw(st.sampled_from(["zz_new", "extra"]))] = draw(
            st.sampled_from(OTHER_VALUES)
        )
    else:
        tags = [p for p in paths if p[-1] in ("kind", "type", "format")]
        if tags:
            path = draw(st.sampled_from(tags))
            _parent(doc, path)[path[-1]] = draw(st.sampled_from(
                ["mmpp", "cpu_stall", "lease", "fetch", "sweep", "faults", "bogus", 3]
            ))
    return name, decode, encode, doc


@given(mutated())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_decoder_round_trips_or_raises_value_error(case):
    name, decode, encode, doc = case
    try:
        value = decode(doc)
    except ValueError:
        return
    first = encode(value)
    assert encode(decode(copy.deepcopy(first))) == first, name


def test_unmutated_corpus_round_trips():
    for name, (decode, encode, bases) in KINDS.items():
        for doc in bases:
            assert encode(decode(copy.deepcopy(doc))) == doc, name
