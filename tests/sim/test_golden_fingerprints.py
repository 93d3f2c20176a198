"""Golden-fingerprint regression corpus for the simulator.

40 fixed :class:`~repro.sim.diffcheck.DiffScenario` cases spanning the
interesting axes — the three paper overloads under SIMPLE and ADAPTIVE
recovery, steady state, sustained overrun, level-D background load,
monitor latency, zeroed demand, open-system traffic (Poisson/MMPP/
diurnal server workloads), both platform sizes, virtual time on and
off, and every fault kind injected through the kernel seam — each
pinned to the sha256 of its full behavioural fingerprint (jobs,
intervals, speed changes, preemptions, migrations, event counts,
misses, episodes) on both kernel backends.

Any change to scheduler behaviour, event ordering, tie-breaking, or the
fingerprint itself shows up as a digest mismatch naming the scenario.
Intentional behaviour changes re-pin the corpus with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sim/test_golden_fingerprints.py

which rewrites ``tests/sim/golden/fingerprints.json`` (the diff of that
file then documents the blast radius in review).
"""

import json
import os
import pathlib

import pytest

from repro.faults.spec import (
    ClockSkew,
    CpuStall,
    ExecutionSpike,
    FaultPlan,
    MonitorOutage,
    ReleaseJitter,
    SpeedCommandDelay,
    SpeedCommandDrop,
    random_plan,
)
from repro.sim.diffcheck import DiffScenario, fingerprint_digest, run_backend

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fingerprints.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

# One line per scenario; labels (DiffScenario.label()) key the golden file.
CORPUS = [
    # The paper's three overload scenarios under SIMPLE recovery.
    DiffScenario(seed=101, m=2, behavior="SHORT", monitor="simple", monitor_arg=0.5),
    DiffScenario(seed=102, m=2, behavior="LONG", monitor="simple", monitor_arg=0.5),
    DiffScenario(seed=103, m=2, behavior="DOUBLE", monitor="simple", monitor_arg=0.5),
    # ... and under ADAPTIVE recovery.
    DiffScenario(seed=104, m=2, behavior="SHORT", monitor="adaptive", monitor_arg=0.5),
    DiffScenario(seed=105, m=2, behavior="LONG", monitor="adaptive", monitor_arg=0.5),
    DiffScenario(seed=106, m=2, behavior="DOUBLE", monitor="adaptive", monitor_arg=0.5),
    # Steady state: no overload, with and without virtual time.
    DiffScenario(seed=107, m=2, behavior="constant", monitor="null"),
    DiffScenario(seed=108, m=2, behavior="constant", monitor="null",
                 use_virtual_time=False),
    # Sustained overrun (1.25x level-C PWCETs) under both monitors.
    DiffScenario(seed=109, m=2, behavior="overrun", monitor="simple",
                 monitor_arg=0.25),
    DiffScenario(seed=110, m=2, behavior="overrun", monitor="adaptive",
                 monitor_arg=1.0),
    # Larger platform, the s / a extremes.
    DiffScenario(seed=111, m=4, behavior="SHORT", monitor="simple",
                 monitor_arg=0.75),
    DiffScenario(seed=112, m=4, behavior="LONG", monitor="adaptive",
                 monitor_arg=0.25),
    # Delayed overload detection (monitor latency).
    DiffScenario(seed=113, m=2, behavior="SHORT", monitor="simple",
                 monitor_arg=0.5, monitor_latency=0.001),
    DiffScenario(seed=114, m=2, behavior="LONG", monitor="adaptive",
                 monitor_arg=0.5, monitor_latency=0.001),
    # Jobs with zeroed demand interleaved into recovery.
    DiffScenario(seed=115, m=2, behavior="SHORT", monitor="simple",
                 monitor_arg=0.5, zero_every=3),
    DiffScenario(seed=116, m=2, behavior="DOUBLE", monitor="adaptive",
                 monitor_arg=0.5, zero_every=5),
    # Level-D background load sharing the platform.
    DiffScenario(seed=117, m=2, behavior="SHORT", monitor="simple",
                 monitor_arg=0.5, level_d_tasks=2),
    DiffScenario(seed=118, m=2, behavior="LONG", monitor="adaptive",
                 monitor_arg=0.5, level_d_tasks=2),
    DiffScenario(seed=119, m=2, behavior="DOUBLE", monitor="simple",
                 monitor_arg=0.25, level_d_tasks=2, monitor_latency=0.001),
    # Monitor armed but never triggered.
    DiffScenario(seed=120, m=2, behavior="constant", monitor="simple",
                 monitor_arg=0.5),
    # Wide platform.
    DiffScenario(seed=121, m=8, behavior="overrun", monitor="simple",
                 monitor_arg=0.5, horizon=1.0),
    # Utilization extremes.
    DiffScenario(seed=122, m=2, util_range=(0.2, 0.5), behavior="SHORT",
                 monitor="simple", monitor_arg=0.5),
    DiffScenario(seed=123, m=4, util_range=(0.05, 0.2), behavior="LONG",
                 monitor="simple", monitor_arg=0.5),
    # Interval recording off (exercises the slimmer fingerprint path).
    DiffScenario(seed=124, m=2, behavior="SHORT", monitor="adaptive",
                 monitor_arg=1.0, record_intervals=False),
    # Everything at once: overrun + zero demand + level-D load.
    DiffScenario(seed=125, m=2, behavior="overrun", monitor="adaptive",
                 monitor_arg=0.25, zero_every=3, level_d_tasks=2),
    # Open-system traffic slice: aperiodic releases through the server
    # path (repro.workload.traffic), with and without scripted overload.
    DiffScenario(seed=126, m=2, behavior="constant", monitor="simple",
                 monitor_arg=0.5, traffic="poisson"),
    DiffScenario(seed=127, m=2, behavior="constant", monitor="simple",
                 monitor_arg=0.5, traffic="mmpp"),
    DiffScenario(seed=128, m=2, behavior="constant", monitor="adaptive",
                 monitor_arg=0.5, traffic="diurnal"),
    DiffScenario(seed=129, m=4, behavior="SHORT", monitor="simple",
                 monitor_arg=0.5, traffic="mmpp"),
    DiffScenario(seed=130, m=2, behavior="overrun", monitor="adaptive",
                 monitor_arg=0.5, zero_every=3, level_d_tasks=2,
                 traffic="poisson"),
    # Faults injected through the kernel seam: every kind once, queued
    # outages that flush a miss after the window (one with latency),
    # then a random multi-fault plan over level-D load and zero demand.
    DiffScenario(seed=131, m=2, behavior="SHORT", monitor="simple",
                 monitor_arg=0.5,
                 faults=FaultPlan((MonitorOutage(0.4, 0.8, mode="drop"),), seed=7)),
    DiffScenario(seed=132, m=2, behavior="LONG", monitor="adaptive",
                 monitor_arg=0.5,
                 faults=FaultPlan((MonitorOutage(0.8, 1.2, mode="queue"),), seed=7)),
    DiffScenario(seed=133, m=2, behavior="SHORT", monitor="simple",
                 monitor_arg=0.5, monitor_latency=0.001,
                 faults=FaultPlan((MonitorOutage(0.4, 0.8, mode="queue"),), seed=7)),
    DiffScenario(seed=134, m=2, behavior="SHORT", monitor="adaptive",
                 monitor_arg=0.5,
                 faults=FaultPlan((SpeedCommandDelay(0.0, 1.5, delay=0.1),), seed=7)),
    DiffScenario(seed=135, m=2, behavior="SHORT", monitor="simple",
                 monitor_arg=0.5,
                 faults=FaultPlan((SpeedCommandDrop(0.5, 1.5),), seed=7)),
    DiffScenario(seed=136, m=2, behavior="LONG", monitor="simple",
                 monitor_arg=0.5,
                 faults=FaultPlan((ClockSkew(0.5, 1.5, magnitude=0.02),), seed=7)),
    DiffScenario(seed=137, m=2, behavior="SHORT", monitor="adaptive",
                 monitor_arg=0.5,
                 faults=FaultPlan((ExecutionSpike(0.5, 1.0, factor=2.0, prob=0.5),),
                                  seed=7)),
    DiffScenario(seed=138, m=2, behavior="DOUBLE", monitor="simple",
                 monitor_arg=0.5,
                 faults=FaultPlan((ReleaseJitter(0.3, 1.2, magnitude=0.01),), seed=7)),
    DiffScenario(seed=139, m=4, behavior="SHORT", monitor="simple",
                 monitor_arg=0.5,
                 faults=FaultPlan((CpuStall(cpu=1, start=0.4, end=0.7),), seed=7)),
    DiffScenario(seed=140, m=2, behavior="DOUBLE", monitor="adaptive",
                 monitor_arg=0.5, zero_every=5, level_d_tasks=2, horizon=2.0,
                 faults=random_plan(seed=140, m=2, anchor=2.0, horizon=2.0)),
]


def compute_digests(backend: str = "reference") -> dict:
    return {
        sc.label(): fingerprint_digest(run_backend(sc, backend))
        for sc in CORPUS
    }


def test_corpus_shape():
    assert len(CORPUS) == 40
    labels = [sc.label() for sc in CORPUS]
    assert len(set(labels)) == len(labels), "scenario labels must be unique"


def test_golden_fingerprints_match():
    digests = compute_digests()
    if REGEN:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH} ({len(digests)} fingerprints)")
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} is missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(golden) == set(digests), (
        "corpus and golden file disagree about which scenarios exist; "
        "regenerate with REPRO_REGEN_GOLDEN=1"
    )
    mismatched = [label for label in digests if digests[label] != golden[label]]
    assert not mismatched, (
        "simulator behaviour changed for "
        f"{len(mismatched)}/{len(digests)} golden scenarios:\n  "
        + "\n  ".join(mismatched)
        + "\nIf intentional, re-pin with REPRO_REGEN_GOLDEN=1 and review the diff."
    )


def test_golden_fingerprints_match_soa():
    """The ``"soa"`` backend is pinned to the *same* golden digests.

    The struct-of-arrays core's contract is byte-identical traces, so
    there is no separate soa golden file: every corpus scenario must
    hash to the reference digest.  A mismatch here with a passing
    reference test means the soa backend diverged; a mismatch in both
    means the simulator's behaviour changed (re-pin as above, and this
    test follows automatically).
    """
    if REGEN:
        pytest.skip("regeneration pins the reference backend; soa follows it")
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} is missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    digests = compute_digests(backend="soa")
    assert set(golden) == set(digests)
    mismatched = [label for label in digests if digests[label] != golden[label]]
    assert not mismatched, (
        "soa backend diverged from the golden (reference) fingerprints on "
        f"{len(mismatched)}/{len(digests)} scenarios:\n  " + "\n  ".join(mismatched)
    )
