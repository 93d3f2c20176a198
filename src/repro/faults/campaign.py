"""Fault campaigns: many (run spec × fault plan) cells, scored.

A campaign is the fault-injection analogue of a sweep: a seeded grid of
:class:`CampaignCell`\\ s — each one a :class:`~repro.runtime.spec.RunSpec`
paired with a :class:`~repro.faults.spec.FaultPlan` — executed serially
or across a process pool, with every cell's finished run checked
against the invariant oracles of :mod:`repro.faults.invariants` and
reduced to a :class:`CellOutcome`.  The collected outcomes form a
:class:`Scorecard`.

Determinism is the load-bearing property: a cell's outcome (including
its run :func:`~repro.sim.diffcheck.fingerprint` digest and the exact
violation messages) depends only on the cell, never on the backend or
worker count, so a campaign's scorecard JSON is byte-identical whether
it ran serially or on a pool.  Execution reuses the sweep executors'
slice runner (:func:`~repro.runtime.shard.run_local`), so a killed
worker degrades the wall clock, not the scorecard.

Campaign construction (:func:`build_campaign`) has two modes:

* **fault-free** — the first *cells* grid cells with empty plans.  This
  is the acceptance gate: a healthy simulator must report **zero**
  violations across the whole grid.
* **faulted** — *cells* grid cells drawn by a seeded RNG, each with a
  :func:`~repro.faults.spec.random_plan` anchored at the scenario's
  last overload end, plus one fault-free *baseline* cell per distinct
  run spec (appended after the faulted cells, first-use order) so the
  scorecard can report dissipation inflation and miss deltas.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.faults.invariants import Violation, evaluate_invariants
from repro.faults.plane import FaultPlane
from repro.faults.spec import ClockSkew, FaultPlan, random_plan
from repro.io import codec
from repro.io.canonical import canonical_json, sha256_hex
from repro.model.taskset import TaskSet
from repro.runtime.executor import PoolDegradation, simulate_spec
from repro.runtime.spec import (
    KernelSpec,
    MonitorSpec,
    ObsSpec,
    RunSpec,
    ScenarioSpec,
    TaskSetSpec,
)
from repro.sim.diffcheck import fingerprint, fingerprint_digest
from repro.workload.generator import taskset_seeds
from repro.workload.scenarios import standard_scenarios

__all__ = [
    "CAMPAIGN_CELL_FORMAT",
    "SCORECARD_FORMAT",
    "CampaignCell",
    "CellOutcome",
    "CampaignConfig",
    "build_campaign",
    "run_cell",
    "run_campaign",
    "Scorecard",
    "ScorecardSummaryAccumulator",
    "scorecard_json_chunks",
]

CAMPAIGN_CELL_FORMAT = "repro-faultcell"
SCORECARD_FORMAT = "repro-scorecard"
SCORECARD_VERSION = 1

#: The default monitor panel: the paper's SIMPLE speeds and ADAPTIVE
#: aggressiveness values (Sec. 5 sweeps s and a over these ranges).
_MONITOR_PANEL: Tuple[Tuple[str, float], ...] = (
    ("simple", 0.4),
    ("simple", 0.5),
    ("simple", 0.6),
    ("simple", 0.7),
    ("simple", 0.8),
    ("adaptive", 0.6),
    ("adaptive", 0.8),
    ("adaptive", 0.9),
    ("adaptive", 1.0),
)


@dataclass(frozen=True)
class CampaignCell:
    """One campaign cell: a run spec plus the fault plan to inject."""

    run: RunSpec
    plan: FaultPlan

    def __post_init__(self) -> None:
        # Refused when the cell is built, not deep inside run_cell: a
        # skewed clock needs the virtual clock of use_virtual_time=True.
        if not self.run.kernel.use_virtual_time and any(
            isinstance(f, ClockSkew) for f in self.plan.faults
        ):
            raise ValueError("ClockSkew requires use_virtual_time=True")

    def key(self) -> str:
        """sha256 over the combined canonical JSON of run and plan.

        ``ObsSpec`` is not keyed, so tracing a campaign never changes
        its cell identities.
        """
        doc = codec.encode(self, keyed=True)
        doc.update(format=CAMPAIGN_CELL_FORMAT, version=1)
        return sha256_hex(canonical_json(doc))

    def to_dict(self) -> Dict[str, Any]:
        return codec.encode(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "CampaignCell":
        return codec.decode(cls, doc)


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell: run figures, fingerprint, invariant verdicts.

    Carries the full :class:`CampaignCell` so a scorecard alone is
    enough to re-run, shrink, or replay any of its cells.
    """

    cell: CampaignCell
    dissipation: float
    truncated: bool
    min_speed: float
    miss_count: int
    episodes: int
    sim_end: float
    events: int
    fingerprint: str
    checked: Tuple[str, ...]
    violations: Tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def key(self) -> str:
        return self.cell.key()

    @property
    def run_key(self) -> str:
        return self.cell.run.key()

    @property
    def faulted(self) -> bool:
        return not self.cell.plan.is_empty

    @property
    def scenario(self) -> str:
        return self.cell.run.scenario.name

    @property
    def monitor(self) -> str:
        return self.cell.run.monitor.label

    def violation_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.invariant] = out.get(v.invariant, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        """The codec's document with the cell's derived ``key`` after ``cell``."""
        doc = codec.encode(self)
        return {"cell": doc.pop("cell"), "key": self.key, **doc}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "CellOutcome":
        return codec.decode(cls, doc)


def _s_min_for(monitor: MonitorSpec) -> Optional[float]:
    """The monitor's known speed floor, when it has one.

    SIMPLE (Algorithm 3) always requests exactly its fixed ``s``, so
    any applied speed below it means the command path corrupted the
    value.  ADAPTIVE's floor depends on runtime tardiness, so no static
    floor is claimed.
    """
    return monitor.param if monitor.kind == "simple" else None


def run_cell(
    cell: CampaignCell, tasksets: Optional[Dict[TaskSetSpec, TaskSet]] = None
) -> CellOutcome:
    """Execute one campaign cell and judge it against the invariants.

    The run is :func:`~repro.runtime.executor.simulate_spec`, the body
    sweep cells run too, plus the cell's fault plane; *tasksets* is the
    optional sharing scope.  The invariants are judged against the task
    set the kernel ran (a traffic spec adds server tasks).  A traced
    cell's default trace name is ``cell-<key prefix>.jsonl``; tracing is
    observation only.
    """
    spec = cell.run
    plane = None if cell.plan.is_empty else FaultPlane(cell.plan)
    out = simulate_spec(
        spec,
        tasksets,
        lambda: (
            f"cell-{cell.key()[:12]}.jsonl",
            {
                "cell_key": cell.key(),
                "plan_key": cell.plan.key(),
                "scenario": spec.scenario.name,
                "monitor": spec.monitor.label,
            },
        ),
        keep_artifacts=True,
        fault_plane=plane,
    )
    report = evaluate_invariants(out, out.kernel.taskset, s_min=_s_min_for(spec.monitor))
    digest = fingerprint_digest(fingerprint(out.trace, out.kernel, out.monitor))
    # Judged: cut the kernel/monitor and kernel/plane cycles, so reference
    # counting frees the cell's kernel, trace and fault plane.
    out.monitor.controller = None
    if plane is not None:
        plane.detach()
    r = out.result
    return CellOutcome(
        cell=cell,
        dissipation=r.dissipation,
        truncated=r.truncated,
        min_speed=r.min_speed,
        miss_count=r.miss_count,
        episodes=r.episodes,
        sim_end=r.sim_end,
        events=r.events,
        fingerprint=digest,
        checked=report.checked,
        violations=report.violations,
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Declarative campaign shape; :func:`build_campaign` expands it."""

    #: Master seed: drives the task-set seed schedule, the cell→plan
    #: assignment and every plan's internal randomness.
    seed: int = 2015
    #: Number of campaign cells (excluding appended baselines).
    cells: int = 200
    #: Zero-fault mode: empty plans, acceptance-gate semantics.
    fault_free: bool = False
    #: Task sets in the grid (consecutive seeds from ``seed``).
    tasksets: int = 8
    #: Platform size assumed by CpuStall plans (the generator default).
    m: int = 4
    #: Per-run horizon and confirmation window.
    horizon: float = 30.0
    confirm_window: float = 0.5
    #: Maximum faults per random plan.
    max_faults: int = 3
    #: Optional per-cell JSONL event traces (observation only).
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        if self.tasksets < 1:
            raise ValueError(f"tasksets must be >= 1, got {self.tasksets}")


def _grid(config: CampaignConfig) -> List[RunSpec]:
    """The underlying run-spec grid: seeds × scenarios × monitor panel.

    Cells run on the ``soa`` kernel: the fault plane reaches either
    backend through the same seam, and diffcheck holds the two to
    identical fingerprints with faults injected.  ``record_intervals``
    is always on — the GEL-v order oracle needs the execution intervals.
    """
    obs = ObsSpec(trace_dir=config.trace_dir)
    kernel = KernelSpec(backend="soa", record_intervals=True)
    specs: List[RunSpec] = []
    for seed in taskset_seeds(config.tasksets, config.seed):
        for sc in standard_scenarios():
            for kind, param in _MONITOR_PANEL:
                specs.append(
                    RunSpec(
                        taskset=TaskSetSpec.generated(seed),
                        scenario=ScenarioSpec.from_scenario(sc),
                        monitor=MonitorSpec(kind, param),
                        kernel=kernel,
                        horizon=config.horizon,
                        confirm_window=config.confirm_window,
                        obs=obs,
                    )
                )
    return specs


def build_campaign(config: CampaignConfig) -> List[CampaignCell]:
    """Expand *config* into the ordered cell list (see module docstring)."""
    grid = _grid(config)
    if config.fault_free:
        if config.cells > len(grid):
            raise ValueError(
                f"fault-free campaign asks for {config.cells} cells but the grid "
                f"has only {len(grid)} (= {config.tasksets} task sets x 3 "
                f"scenarios x {len(_MONITOR_PANEL)} monitors); raise tasksets="
            )
        empty = FaultPlan(seed=config.seed)
        return [CampaignCell(run=spec, plan=empty) for spec in grid[: config.cells]]

    rng = random.Random(f"campaign|{config.seed}")
    cells: List[CampaignCell] = []
    for i in range(config.cells):
        spec = grid[rng.randrange(len(grid))]
        anchor = max(end for _, end in spec.scenario.windows)
        plan = random_plan(
            seed=config.seed * 100_003 + i,
            m=config.m,
            anchor=anchor,
            horizon=config.horizon,
            max_faults=config.max_faults,
        )
        cells.append(CampaignCell(run=spec, plan=plan))
    # Fault-free baselines, one per distinct run spec, first-use order:
    # the scorecard diffs each faulted cell against its baseline.
    empty = FaultPlan(seed=config.seed)
    seen = set()
    for c in list(cells):
        rk = c.run.key()
        if rk not in seen:
            seen.add(rk)
            cells.append(CampaignCell(run=c.run, plan=empty))
    return cells


def run_campaign(
    cells: Sequence[CampaignCell],
    jobs: int = 1,
    progress=None,
) -> "Scorecard":
    """Execute *cells* (serially or on a pool) into a :class:`Scorecard`.

    Through the sweep executors' slice runner
    (:func:`~repro.runtime.shard.run_local`): a serial campaign is one
    task-set sharing scope, a pool slice is one, and worker deaths
    degrade to retry / in-process execution.  Outcomes keep submission
    order and are bit-identical across backends.
    """
    # Imported lazily: repro.runtime.shard builds on this module.
    from repro.runtime.shard import get_kind, run_local

    cells = list(cells)
    if progress is not None:
        progress.begin(len(cells))
    rows, degradation = run_local(
        get_kind("faults"),
        cells,
        jobs,
        on_cell=None if progress is None else lambda _row: progress.cell_done(cached=False),
    )
    if progress is not None:
        progress.finish()
    return Scorecard(
        outcomes=tuple(outcome for outcome, _cached, _wall in rows),
        degradation=degradation,
    )


@codec.document(header=(SCORECARD_FORMAT, SCORECARD_VERSION))
@dataclass(frozen=True)
class Scorecard:
    """A campaign's verdict: every cell outcome plus degradation notes."""

    outcomes: Tuple[CellOutcome, ...]
    degradation: PoolDegradation = field(default_factory=PoolDegradation)

    @property
    def ok(self) -> bool:
        """True when no cell violated any invariant."""
        return all(o.ok for o in self.outcomes)

    def violating(self) -> List[CellOutcome]:
        """Outcomes with at least one violation, campaign order."""
        return [o for o in self.outcomes if not o.ok]

    def find(self, key_prefix: str) -> CellOutcome:
        """The unique outcome whose cell key starts with *key_prefix*."""
        hits = [o for o in self.outcomes if o.key.startswith(key_prefix)]
        if not hits:
            raise KeyError(f"no campaign cell matches key prefix {key_prefix!r}")
        if len(hits) > 1:
            raise KeyError(
                f"key prefix {key_prefix!r} is ambiguous ({len(hits)} cells)"
            )
        return hits[0]

    def baseline_for(self, outcome: CellOutcome) -> Optional[CellOutcome]:
        """The fault-free outcome sharing *outcome*'s run spec, if any."""
        rk = outcome.run_key
        for o in self.outcomes:
            if not o.faulted and o.run_key == rk:
                return o
        return None

    # -- aggregation ---------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Deterministic aggregate figures (what ``render`` prints)."""
        acc = ScorecardSummaryAccumulator(self.degradation)
        for o in self.outcomes:
            acc.add(o)
        return acc.summary()

    def render(self) -> str:
        """Human-readable scorecard (summary + per-violating-cell lines)."""
        s = self.summary()
        lines = [
            "fault campaign scorecard",
            f"  cells: {s['cells']} ({s['faulted']} faulted, "
            f"{s['fault_free']} fault-free baselines)",
            f"  violating cells: {s['violating_cells']}",
            f"  truncated runs: {s['truncated']}",
        ]
        if s["violations"]:
            lines.append("  violations by invariant:")
            for name, n in s["violations"].items():
                lines.append(f"    {name}: {n}")
        else:
            lines.append("  violations: none")
        if s["faulted"]:
            lines.append(
                f"  dissipation inflation vs baseline: "
                f"max {s['max_dissipation_inflation']:.3f} s, "
                f"mean {s['mean_dissipation_inflation']:.3f} s"
            )
            lines.append(f"  worst extra misses vs baseline: {s['max_miss_delta']}")
        if self.degradation.breaks:
            lines.append(
                f"  pool degradation: {self.degradation.breaks} break(s), "
                f"{self.degradation.retried} cell(s) retried, "
                f"{self.degradation.serial_fallback} ran in-process"
            )
        for o in self.violating():
            counts = ", ".join(f"{k}x{n}" for k, n in sorted(o.violation_counts().items()))
            lines.append(
                f"  FAIL {o.key[:12]}  {o.scenario:<6} {o.monitor:<16} "
                f"faults={len(o.cell.plan.faults)}  {counts}"
            )
        return "\n".join(lines)

    # -- persistence ---------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical campaigns,
        whatever backend executed them."""
        return "".join(scorecard_json_chunks(self.outcomes, self.degradation))

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Scorecard":
        """Read a ``repro-scorecard`` document (its summary is derived)."""
        return codec.decode(cls, doc)

    def save(self, path: str) -> None:
        from repro.util.atomicio import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "Scorecard":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class ScorecardSummaryAccumulator:
    """:meth:`Scorecard.summary` computed over outcomes fed one at a time.

    The one implementation of the scorecard summary: the in-memory
    :class:`Scorecard` feeds its outcomes through it, and the streaming
    scorecard writer (:func:`scorecard_json_chunks`, behind the sharded
    merge in :mod:`repro.runtime.shard`) feeds outcomes as they are read
    off shard manifests, without ever materializing the whole list.
    Feed every outcome (in campaign order) through :meth:`add`; the
    ``pool_*`` fields come from the *degradation* record of the
    execution that produced them.

    Memory: O(faulted cells) small tuples plus one baseline entry per
    distinct run spec — never the outcomes themselves (each of which
    drags a full RunSpec + FaultPlan along).
    """

    def __init__(self, degradation: PoolDegradation = PoolDegradation()) -> None:
        self._degradation = degradation
        self._cells = 0
        self._violating = 0
        self._truncated = 0
        self._by_invariant: Dict[str, int] = {}
        #: (run_key, dissipation, miss_count) per faulted cell, in order.
        self._faulted: List[Tuple[str, float, int]] = []
        #: First fault-free outcome per run spec (campaign order wins).
        self._baselines: Dict[str, Tuple[float, int]] = {}
        self._fault_free = 0

    def add(self, outcome: CellOutcome) -> None:
        self._cells += 1
        if not outcome.ok:
            self._violating += 1
        if outcome.truncated:
            self._truncated += 1
        for name, n in outcome.violation_counts().items():
            self._by_invariant[name] = self._by_invariant.get(name, 0) + n
        if outcome.faulted:
            self._faulted.append(
                (outcome.run_key, outcome.dissipation, outcome.miss_count)
            )
        else:
            self._fault_free += 1
            self._baselines.setdefault(
                outcome.run_key, (outcome.dissipation, outcome.miss_count)
            )

    def summary(self) -> Dict[str, Any]:
        inflations: List[float] = []
        miss_deltas: List[int] = []
        for run_key, dissipation, misses in self._faulted:
            base = self._baselines.get(run_key)
            if base is None:
                continue
            inflations.append(dissipation - base[0])
            miss_deltas.append(misses - base[1])
        return {
            "cells": self._cells,
            "faulted": len(self._faulted),
            "fault_free": self._fault_free,
            "violating_cells": self._violating,
            "violations": {k: self._by_invariant[k] for k in sorted(self._by_invariant)},
            "truncated": self._truncated,
            "max_dissipation_inflation": max(inflations) if inflations else 0.0,
            "mean_dissipation_inflation": (
                sum(inflations) / len(inflations) if inflations else 0.0
            ),
            "max_miss_delta": max(miss_deltas) if miss_deltas else 0,
            "pool_breaks": self._degradation.breaks,
            "pool_retried": self._degradation.retried,
            "pool_serial_fallback": self._degradation.serial_fallback,
        }


def scorecard_json_chunks(
    outcomes: Iterable[CellOutcome],
    degradation: PoolDegradation = PoolDegradation(),
    digests: Optional[List[str]] = None,
) -> Iterator[str]:
    """The canonical ``repro-scorecard`` JSON text, in streamed pieces.

    The one writer of the scorecard layout: :meth:`Scorecard.to_json`
    joins the pieces, and the sharded merge
    (:func:`repro.runtime.shard.write_merged_scorecard`) streams them
    into its artifact while *outcomes* are still being read off shard
    manifests.  Keys appear in canonical (sorted) order, so the joined
    text equals the canonical JSON of the whole document.  When
    *digests* is given, the sha256 of each outcome's canonical text is
    appended to it (the provenance manifest's per-cell digests).
    """
    acc = ScorecardSummaryAccumulator(degradation)
    yield '{"degradation":%s,"format":"%s","outcomes":[' % (
        canonical_json(codec.encode(degradation)),
        SCORECARD_FORMAT,
    )
    for i, outcome in enumerate(outcomes):
        acc.add(outcome)
        text = canonical_json(outcome.to_dict())
        if digests is not None:
            digests.append(sha256_hex(text))
        yield "," + text if i else text
    yield '],"summary":%s,"version":%d}' % (
        canonical_json(acc.summary()),
        SCORECARD_VERSION,
    )
