"""Golden document corpus: the bytes of every document that is read back.

Fixed documents of every kind that crosses the wire or lands on disk and
is decoded again — run specs (generated, inline, traced, soa, plain GEL,
one per traffic source kind), a task set, a fault plan with all seven
fault kinds, campaign cells and outcomes, run results, one frame of each
of the 20 protocol messages, campaign documents with their shard ids, a
scorecard and a provenance manifest — pinned by their canonical text (or
its sha256 when long), the sha256 of their insertion-ordered
``json.dumps`` form (the pretty-printed campaign and shard files keep
that order), and the key of each keyed one.

Each document must also survive a decode: decoding it and encoding the
result gives the same canonical text.

Intentional format changes re-pin with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/io/test_golden_documents.py

and the diff of ``tests/io/golden/documents.json`` shows what moved.
"""

import dataclasses
import json
import os
import pathlib
from typing import Any, Callable, Dict, Optional

import pytest

from repro.experiments.metrics import RunResult, SojournStats
from repro.faults.campaign import CampaignCell, CellOutcome, Scorecard
from repro.faults.invariants import Violation
from repro.faults.spec import (
    ClockSkew,
    CpuStall,
    ExecutionSpike,
    FaultPlan,
    MonitorOutage,
    ReleaseJitter,
    SpeedCommandDelay,
    SpeedCommandDrop,
)
from repro.io.canonical import canonical_json, sha256_hex
from repro.io.results_json import run_result_from_dict, run_result_to_dict
from repro.io.runspec_json import runspec_from_dict, runspec_to_dict, spec_key
from repro.io.taskset_json import taskset_from_json, taskset_to_json
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.provenance import ProvenanceManifest
from repro.runtime.executor import PoolDegradation
from repro.runtime.shard import ShardedCampaign
from repro.runtime.spec import (
    KernelSpec,
    MonitorSpec,
    ObsSpec,
    RunSpec,
    ScenarioSpec,
    TaskSetSpec,
)
from repro.serve import protocol as wire
from repro.workload.generator import GeneratorParams
from repro.workload.scenarios import CALM, DOUBLE, LONG, SHORT
from repro.workload.traffic import (
    Arrival,
    DiurnalCurveSource,
    MMPPSource,
    PoissonSource,
    ServerSpec,
    TraceReplaySource,
    TrafficFlow,
    TrafficSpec,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "documents.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: Canonical texts up to this length are pinned verbatim, longer ones by sha256.
TEXT_LIMIT = 1500

PARAMS = GeneratorParams(
    m=2, level_c_share=0.6, util_range=(0.05, 0.3), level_c_util_cap=0.5
)


def hand_built_taskset() -> TaskSet:
    """Every optional task field, set and unset."""
    return TaskSet([
        Task(0, L.A, 0.025, {L.A: 0.01, L.B: 0.005, L.C: 0.0005}, cpu=0, name="A0"),
        Task(1, L.B, 0.05, {L.B: 0.004, L.C: 0.0004}, cpu=1, phase=0.01),
        Task(2, L.C, 0.05, {L.B: 0.02, L.C: 0.002}, relative_pp=0.042,
             tolerance=0.13, name="C2"),
        Task(3, L.C, 0.1, {L.C: 0.01}, relative_pp=0.08),
        Task(4, L.D, 0.2, {}, name="bg"),
    ], m=2)


def spec(**overrides) -> RunSpec:
    base = dict(
        taskset=TaskSetSpec.generated(2015, PARAMS),
        scenario=ScenarioSpec.from_scenario(SHORT),
        monitor=MonitorSpec("simple", 0.6),
        horizon=2.0,
    )
    base.update(overrides)
    return RunSpec(**base)


def traffic_spec(source, server=ServerSpec()) -> RunSpec:
    return spec(
        scenario=ScenarioSpec.from_scenario(CALM),
        traffic=TrafficSpec(flows=(TrafficFlow(source, server),)),
    )


SPECS: Dict[str, RunSpec] = {
    "generated": spec(),
    "inline": spec(
        taskset=TaskSetSpec.from_taskset(hand_built_taskset()),
        scenario=ScenarioSpec.from_scenario(DOUBLE),
        monitor=MonitorSpec("stepped", 0.5, 3.0),
        kernel=KernelSpec(record_intervals=True, monitor_latency=0.001,
                          measure_overhead=True),
        confirm_window=0.25,
        level_c_budgets=False,
    ),
    "obs": spec(obs=ObsSpec(trace_dir="traces", trace_name="run.jsonl")),
    "soa": spec(kernel=KernelSpec(backend="soa"),
                scenario=ScenarioSpec.from_scenario(LONG),
                monitor=MonitorSpec("adaptive", 0.8)),
    "plain-gel": spec(kernel=KernelSpec(use_virtual_time=False),
                      monitor=MonitorSpec("none", None)),
    "traffic-poisson": traffic_spec(
        PoissonSource(rate=40.0, mean_demand=0.002, demand="fixed", seed=3),
        ServerSpec(period=0.02, budget=0.004, count=2, tolerance=0.03),
    ),
    "traffic-mmpp": traffic_spec(
        MMPPSource(rates=(10.0, 200.0, 50.0), dwells=(0.5, 0.1, 0.2),
                   mean_demand=0.001, seed=4, start_state=1),
        ServerSpec(level="D", policy="deferrable"),
    ),
    "traffic-diurnal": traffic_spec(
        DiurnalCurveSource(base_rate=5.0, peak_rate=60.0, period=2.0,
                           mean_demand=0.002, seed=5, phase=0.25),
    ),
    "traffic-replay": traffic_spec(
        TraceReplaySource.from_arrivals([Arrival(0.1, 0.001), Arrival(0.35, 0.002)]),
    ),
}
SPECS["traffic-obs"] = dataclasses.replace(
    SPECS["traffic-poisson"], obs=ObsSpec(trace_dir="traces")
)

PLAN = FaultPlan(
    faults=(
        MonitorOutage(0.4, 0.8, mode="queue"),
        SpeedCommandDelay(0.5, 1.0, delay=0.1),
        SpeedCommandDrop(0.6, 0.9),
        ClockSkew(0.5, 1.5, magnitude=0.02),
        ExecutionSpike(0.5, 1.0, factor=2.0, prob=0.5, level="B"),
        ReleaseJitter(0.3, 1.2, magnitude=0.01, prob=0.75),
        CpuStall(cpu=1, start=0.2, end=0.4),
    ),
    seed=7,
)

CELL = CampaignCell(
    run=spec(kernel=KernelSpec(backend="soa", record_intervals=True)), plan=PLAN
)
TRACED_CELL = CampaignCell(
    run=spec(kernel=KernelSpec(backend="soa", record_intervals=True),
             obs=ObsSpec(trace_dir="cells")),
    plan=FaultPlan(seed=7),
)

OUTCOME = CellOutcome(
    cell=CELL, dissipation=0.125, truncated=False, min_speed=0.6, miss_count=3,
    episodes=2, sim_end=2.0, events=1234, fingerprint="ab" * 32,
    checked=("ab_isolation", "speed_bounds", "recovery_closure"),
    violations=(
        Violation("ab_isolation", 0.5, "job 7 of task 3 missed", task=3, job=7),
        Violation("speed_bounds", 0.75, "speed 1.5 outside (0, 1]"),
    ),
)
CLEAN_OUTCOME = CellOutcome(
    cell=TRACED_CELL, dissipation=0.0, truncated=True, min_speed=1.0, miss_count=0,
    episodes=0, sim_end=2.0, events=99, fingerprint="cd" * 32,
    checked=("ab_isolation",),
)

RESULT = RunResult(
    scenario="SHORT", monitor="SIMPLE(s=0.6)", dissipation=0.25, truncated=False,
    min_speed=0.6, miss_count=2, episodes=1, max_response_c=0.05, sim_end=2.0,
    events=999,
)
TRAFFIC_RESULT = RunResult(
    scenario="CALM", monitor="NONE", dissipation=0.0, truncated=True,
    min_speed=1.0, miss_count=0, episodes=0, max_response_c=0.01, sim_end=2.0,
    events=50,
    sojourn=SojournStats(requests=10, served=8, mean_s=0.01, p50_s=0.008,
                         p95_s=0.02, max_s=0.03),
)

SWEEP = ShardedCampaign(
    "sweep", [SPECS["generated"], SPECS["inline"], SPECS["traffic-mmpp"]],
    shard_size=2, meta={"figure": 6},
)
FAULTS = ShardedCampaign(
    "faults", [CELL, TRACED_CELL], shard_size=1, meta={"fault_free": False},
)

MANIFEST = ProvenanceManifest(
    kind="sweep", campaign="c" * 64, artifact="merged.json",
    artifact_sha256="a" * 64, cells=(("k1", "d1"), ("k2", "d2")),
    kernel={"backends": ["reference"]},
    code={"package": "0.1", "source_sha256": "f" * 64},
    owners=({"shard": 0, "owner": "w1"},),
)

SCORECARD = Scorecard(
    outcomes=(OUTCOME, CLEAN_OUTCOME),
    degradation=PoolDegradation(retried=1, serial_fallback=0, breaks=1),
)

MESSAGES = [
    wire.Hello(role="worker", owner="w1"),
    wire.HelloOk(),
    wire.ErrorReply(reason="bad lease frame"),
    wire.Submit(campaign=FAULTS.to_dict()),
    wire.SubmitOk(key="k" * 64, shards=3, shards_done=1, created=True),
    wire.LeaseRequest(owner="w1", wait_s=2.5, once=True),
    wire.LeaseGrant(
        campaign="c" * 64, shard="s" * 64, index=1, start=2, stop=3,
        kind="faults", cells=[CELL.to_dict()], cell_keys=[CELL.key()],
        meta={"fault_free": False}, ttl=5.0,
    ),
    wire.NoWork(active=2, drained=False, quarantined=True),
    wire.ShardDone(campaign="c" * 64, shard="s" * 64, owner="w1",
                   results=[run_result_to_dict(RESULT), run_result_to_dict(TRAFFIC_RESULT)],
                   cached=[False, True], wall_ns=[864198, 123456],
                   shard_wall_ns=987654),
    wire.ShardOk(accepted=False, reason="missing 1 cell(s): [3]", quarantined=True),
    wire.Heartbeat(owner="w1", campaign="c" * 64, shard="s" * 64),
    wire.HeartbeatOk(valid=False),
    wire.Telemetry(campaign="c" * 64, owner="w1",
                   record={"format": "repro-telemetry", "cells": 4, "rate": 2.5}),
    wire.TelemetryOk(),
    wire.JobsRequest(wait_for="c" * 64, wait_s=1.5),
    wire.JobsReply(campaigns=[{"key": "c" * 64, "kind": "sweep", "merged": True}]),
    wire.StatusRequest(),
    wire.StatusReply(aggregate={"campaigns": 1, "cells": 3}, text="all done"),
    wire.FetchRequest(campaign="c" * 64),
    wire.FetchDone(results=[run_result_to_dict(RESULT), run_result_to_dict(TRAFFIC_RESULT)],
                   cached=[True, False], wall_ns=[77, 88], manifest=MANIFEST.to_dict()),
]


def _entry(doc: Any, text: Optional[str] = None, **extra: Any) -> Dict[str, Any]:
    """The pins of one document: canonical text (or its sha256), the
    sha256 of its insertion-ordered dump, and any *extra* keys."""
    canon = canonical_json(doc) if text is None else text
    out: Dict[str, Any] = dict(extra)
    if len(canon) <= TEXT_LIMIT:
        out["text"] = canon
    else:
        out["sha256"] = sha256_hex(canon)
    if text is None:
        out["ordered_sha256"] = sha256_hex(json.dumps(doc))
    return out


def compute_corpus() -> Dict[str, Dict[str, Any]]:
    corpus: Dict[str, Dict[str, Any]] = {}
    for label, s in SPECS.items():
        corpus[f"runspec/{label}"] = _entry(runspec_to_dict(s), key=spec_key(s))
    corpus["taskset/hand-built"] = _entry(None, text=taskset_to_json(hand_built_taskset()))
    corpus["faultplan/all-kinds"] = _entry(PLAN.to_dict(), key=PLAN.key())
    corpus["cell/faulted"] = _entry(CELL.to_dict(), key=CELL.key())
    corpus["cell/traced"] = _entry(TRACED_CELL.to_dict(), key=TRACED_CELL.key())
    corpus["outcome/violations"] = _entry(OUTCOME.to_dict())
    corpus["outcome/clean"] = _entry(CLEAN_OUTCOME.to_dict())
    corpus["result/plain"] = _entry(run_result_to_dict(RESULT))
    corpus["result/sojourn"] = _entry(run_result_to_dict(TRAFFIC_RESULT))
    for msg in MESSAGES:
        corpus[f"frame/{msg.TYPE}"] = _entry(
            None, text=wire.encode_message(msg).decode("utf-8")
        )
    for label, campaign in (("sweep", SWEEP), ("faults", FAULTS)):
        corpus[f"campaign/{label}"] = _entry(
            campaign.to_dict(),
            key=campaign.campaign_key,
            shards=[s.shard_id for s in campaign.shards],
        )
    corpus["provenance/manifest"] = _entry(MANIFEST.to_dict(), key=MANIFEST.key())
    corpus["scorecard/faulted"] = _entry(None, text=SCORECARD.to_json())
    return corpus


def _decodes() -> Dict[str, Callable[[], str]]:
    """label -> the canonical text after one decode/encode round trip."""
    out: Dict[str, Callable[[], str]] = {}
    for label, s in SPECS.items():
        out[f"runspec/{label}"] = lambda s=s: canonical_json(
            runspec_to_dict(runspec_from_dict(json.loads(json.dumps(runspec_to_dict(s)))))
        )
    out["taskset/hand-built"] = lambda: taskset_to_json(
        taskset_from_json(taskset_to_json(hand_built_taskset()))
    )
    out["faultplan/all-kinds"] = lambda: canonical_json(
        FaultPlan.from_dict(json.loads(PLAN.canonical_json())).to_dict()
    )
    for label, cell in (("faulted", CELL), ("traced", TRACED_CELL)):
        out[f"cell/{label}"] = lambda cell=cell: canonical_json(
            CampaignCell.from_dict(json.loads(canonical_json(cell.to_dict()))).to_dict()
        )
    for label, outcome in (("violations", OUTCOME), ("clean", CLEAN_OUTCOME)):
        out[f"outcome/{label}"] = lambda o=outcome: canonical_json(
            CellOutcome.from_dict(json.loads(canonical_json(o.to_dict()))).to_dict()
        )
    for label, result in (("plain", RESULT), ("sojourn", TRAFFIC_RESULT)):
        out[f"result/{label}"] = lambda r=result: canonical_json(
            run_result_to_dict(run_result_from_dict(
                json.loads(canonical_json(run_result_to_dict(r)))
            ))
        )
    for msg in MESSAGES:
        out[f"frame/{msg.TYPE}"] = lambda msg=msg: wire.encode_message(
            wire.decode_message(wire.encode_message(msg).decode("utf-8"))
        ).decode("utf-8")
    for label, campaign in (("sweep", SWEEP), ("faults", FAULTS)):
        out[f"campaign/{label}"] = lambda c=campaign: canonical_json(
            ShardedCampaign.from_dict(json.loads(json.dumps(c.to_dict()))).to_dict()
        )
    out["provenance/manifest"] = lambda: canonical_json(
        ProvenanceManifest.from_dict(json.loads(MANIFEST.canonical())).to_dict()
    )
    out["scorecard/faulted"] = lambda: Scorecard.from_dict(
        json.loads(SCORECARD.to_json())
    ).to_json()
    return out


def test_corpus_covers_every_message_type():
    assert {m.TYPE for m in MESSAGES} == set(wire.MESSAGE_TYPES)
    assert len(MESSAGES) == 20


def test_golden_documents_match():
    corpus = compute_corpus()
    if REGEN:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH} ({len(corpus)} documents)")
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} is missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(golden) == set(corpus), (
        "corpus and golden file disagree about which documents exist"
    )
    moved = [label for label in corpus if corpus[label] != golden[label]]
    assert not moved, (
        f"{len(moved)}/{len(corpus)} golden documents changed:\n  "
        + "\n  ".join(f"{label}: {golden[label]} -> {corpus[label]}" for label in moved)
    )


def test_untraced_twins_share_keys():
    """``obs`` never enters a key: a traced spec or cell keys like its twin."""
    assert spec_key(SPECS["obs"]) == spec_key(SPECS["generated"])
    untraced = CampaignCell(
        run=dataclasses.replace(TRACED_CELL.run, obs=ObsSpec()), plan=TRACED_CELL.plan
    )
    assert untraced.key() == TRACED_CELL.key()


@pytest.mark.parametrize("label", sorted(_decodes()))
def test_documents_survive_a_decode(label):
    entry = compute_corpus()[label]
    text = _decodes()[label]()
    if "text" in entry:
        assert text == entry["text"]
    else:
        assert sha256_hex(text) == entry["sha256"]
