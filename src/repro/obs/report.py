"""Per-cell sweep accounting: what a sweep actually did, cell by cell.

The runtime executors (:mod:`repro.runtime.executor`) build one
:class:`CellReport` per submitted :class:`~repro.runtime.spec.RunSpec`
— cache status, wall-clock time, simulated time, event count, and the
dissipation-truncation flag — and expose them as a :class:`SweepReport`
(``executor.report``).  The report is what ``--metrics-out`` archives
and what the CLI's truncation warnings read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.obs.metrics import Histogram

__all__ = ["CellReport", "SweepReport", "ShardReport", "render_shard_table"]

REPORT_FORMAT = "repro-sweep-report"
REPORT_VERSION = 1


@dataclass(frozen=True)
class CellReport:
    """One sweep cell, as executed."""

    #: Position in the submitted spec list.
    index: int
    #: Content address of the spec (sha256 prefix; "" when unhashed).
    key: str
    #: Scenario name (provenance for humans reading the report).
    scenario: str
    #: Monitor label.
    monitor: str
    #: Served from the result cache (wall_ns then ~0).
    cached: bool
    #: Wall-clock nanoseconds spent simulating this cell.
    wall_ns: int
    #: Simulation time at which the run stopped.
    sim_end: float
    #: Simulator events processed.
    events: int
    #: Recovery episode still open at the horizon (dissipation is a
    #: lower bound, not a measurement).
    truncated: bool
    #: Kernel backend that produced the result (``KernelSpec.backend``),
    #: so reports and telemetry rollups slice by backend without
    #: re-parsing RunSpecs.  The default matches :class:`KernelSpec`.
    backend: str = "reference"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "scenario": self.scenario,
            "monitor": self.monitor,
            "cached": self.cached,
            "wall_ns": self.wall_ns,
            "sim_end": self.sim_end,
            "events": self.events,
            "truncated": self.truncated,
            "backend": self.backend,
        }


@dataclass(frozen=True)
class ShardReport:
    """One shard of a checkpointed campaign, as seen on disk.

    Built by :func:`repro.runtime.shard.campaign_status` from the
    campaign directory alone — manifests and lease files — so it reports
    the durable truth, not any process's in-memory view.
    """

    #: Position in the campaign's shard list.
    index: int
    #: Content address of the shard (campaign key + cell slice).
    shard_id: str
    #: Cells in this shard.
    cells: int
    #: ``"done"`` (manifest present), ``"leased"`` (a worker owns it),
    #: or ``"pending"`` (unowned, no manifest).
    state: str
    #: Manifest writer (done) or current lease holder (leased); "" else.
    owner: str
    #: Wall-clock nanoseconds the owning worker spent (done shards only).
    wall_ns: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "shard_id": self.shard_id,
            "cells": self.cells,
            "state": self.state,
            "owner": self.owner,
            "wall_ns": self.wall_ns,
        }


def render_shard_table(shards: List[ShardReport]) -> str:
    """Human-readable per-shard status (``repro-mc2 sweep status``)."""
    done = sum(1 for s in shards if s.state == "done")
    cells_done = sum(s.cells for s in shards if s.state == "done")
    cells_total = sum(s.cells for s in shards)
    lines = [
        f"{done}/{len(shards)} shards done "
        f"({cells_done}/{cells_total} cells)",
        f"{'shard':<7}{'id':<14}{'cells':>6}  {'state':<8}{'wall':>9}  owner",
    ]
    for s in shards:
        wall = f"{s.wall_ns / 1e6:.0f}ms" if s.wall_ns else "-"
        lines.append(
            f"{s.index:<7}{s.shard_id[:12]:<14}{s.cells:>6}  "
            f"{s.state:<8}{wall:>9}  {s.owner}"
        )
    return "\n".join(lines)


@dataclass
class SweepReport:
    """Every cell of one executor ``run()`` call, plus aggregates."""

    cells: List[CellReport] = field(default_factory=list)

    @property
    def cells_total(self) -> int:
        return len(self.cells)

    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def cells_simulated(self) -> int:
        return sum(1 for c in self.cells if not c.cached)

    @property
    def truncated_cells(self) -> List[CellReport]:
        """Cells whose recovery was still open at the horizon."""
        return [c for c in self.cells if c.truncated]

    @property
    def wall_ns_total(self) -> int:
        return sum(c.wall_ns for c in self.cells)

    @property
    def events_total(self) -> int:
        return sum(c.events for c in self.cells)

    def wall_histogram(self) -> Histogram:
        """Per-cell wall-clock distribution (simulated cells only)."""
        h = Histogram()
        for c in self.cells:
            if not c.cached:
                h.record(c.wall_ns)
        return h

    def by_backend(self) -> Dict[str, Dict[str, Any]]:
        """Per-backend rollup: cells/events/wall sliced by kernel backend.

        Keys are the backend names, so a mixed sweep — e.g. a
        soa-vs-reference comparison grid — reads off its per-core
        throughput without re-parsing RunSpecs.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for c in self.cells:
            agg = out.setdefault(
                c.backend,
                {"cells": 0, "simulated": 0, "events": 0, "wall_ns": 0},
            )
            agg["cells"] += 1
            if not c.cached:
                agg["simulated"] += 1
                agg["wall_ns"] += c.wall_ns
            agg["events"] += c.events
        for agg in out.values():
            wall_s = agg["wall_ns"] / 1e9
            agg["events_per_sec"] = agg["events"] / wall_s if wall_s > 0 else 0.0
        return dict(sorted(out.items()))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document (``--metrics-out`` payload)."""
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "summary": {
                "cells_total": self.cells_total,
                "cells_simulated": self.cells_simulated,
                "cache_hits": self.cache_hits,
                "truncated_cells": len(self.truncated_cells),
                "wall_ns_total": self.wall_ns_total,
                "events_total": self.events_total,
                "cell_wall_ns": self.wall_histogram().summary(),
                "by_backend": self.by_backend(),
            },
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
