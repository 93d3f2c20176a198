"""Exporters: telemetry aggregates -> Prometheus textfiles / JSON snapshots.

The campaign telemetry of :mod:`repro.obs.telemetry` lives as NDJSON
streams inside the campaign directory; this module renders the merged
view in two interchange formats:

* **Prometheus textfile exposition** (:func:`prometheus_lines`,
  :func:`write_prometheus_textfile`) — drop the output where a
  node-exporter ``textfile`` collector picks it up and a running
  campaign shows up on ordinary dashboards: per-worker throughput and
  RSS, campaign totals, per-phase kernel counters.  Metric names carry
  the ``repro_`` prefix; label values are escaped per the exposition
  format rules.
* **Canonical JSON snapshot** (:func:`write_json_snapshot`) — the
  aggregate document as canonical JSON (sorted keys, compact
  separators), written atomically.  Deterministic for the same
  underlying records, so snapshots diff cleanly and tests can assert
  byte-identity.

Both writers go through :mod:`repro.util.atomicio`, so a scraper never
observes a torn export.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Dict, List, Union

from repro.util.atomicio import atomic_write_text

__all__ = [
    "prometheus_escape",
    "prometheus_lines",
    "write_prometheus_textfile",
    "write_json_snapshot",
]

Pathish = Union[str, "os.PathLike[str]"]



def prometheus_escape(value: str) -> str:
    """Escape a label value per the Prometheus exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _num(x: Any) -> str:
    """A Prometheus-friendly number literal (ints stay integral)."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def prometheus_lines(aggregate: Dict[str, Any]) -> List[str]:
    """Render one telemetry aggregate as Prometheus exposition lines.

    Families (all gauges — the scrape reflects file state, not a
    monotonic process counter):

    * ``repro_campaign_{cells_done,cells_run,cache_hits,events,...}``
      with a ``campaign`` label — the totals block;
    * ``repro_campaign_{cells,events}_per_sec`` — summed per-worker
      lifetime rates;
    * ``repro_worker_*`` with ``campaign``/``worker`` (and ``backend``
      on throughput) labels — one series per worker;
    * ``repro_phase_{count,sampled_ns,samples}`` with a ``phase`` label
      — the kernel phase profile.
    """
    campaign = prometheus_escape(str(aggregate.get("campaign", "")))
    base = f'campaign="{campaign}"'
    lines: List[str] = []

    def family(name: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")

    totals = aggregate.get("totals", {})
    for key in sorted(totals):
        name = f"repro_campaign_{key}"
        family(name, f"Campaign total: {key.replace('_', ' ')}.")
        lines.append(f"{name}{{{base}}} {_num(totals[key])}")
    rates = aggregate.get("rates", {})
    for key in sorted(rates):
        name = f"repro_campaign_{key}"
        family(name, f"Campaign throughput: {key.replace('_', ' ')}.")
        lines.append(f"{name}{{{base}}} {_num(rates[key])}")

    workers: Dict[str, Any] = aggregate.get("workers", {})
    worker_fields = (
        ("cells_done", "Cells completed by this worker."),
        ("cells_run", "Cells simulated (cache misses) by this worker."),
        ("cache_hits", "Cells served from the result cache."),
        ("events", "Simulator events processed."),
        ("cells_per_sec", "Lifetime cells/sec for this worker."),
        ("events_per_sec", "Lifetime events/sec for this worker."),
        ("rss_bytes", "Resident set size at the last sample."),
        ("shards_done", "Shards completed by this worker."),
        ("leases_acquired", "Shard leases acquired."),
        ("leases_stolen", "Expired leases stolen."),
        ("last_wall", "Wall-clock time of the last telemetry sample."),
    )
    for key, help_text in worker_fields:
        name = f"repro_worker_{key}"
        family(name, help_text)
        for owner in sorted(workers):
            w = workers[owner]
            labels = f'{base},worker="{prometheus_escape(owner)}"'
            if key in ("cells_per_sec", "events_per_sec") and w.get("backend"):
                labels += f',backend="{prometheus_escape(str(w["backend"]))}"'
            lines.append(f"{name}{{{labels}}} {_num(w.get(key, 0))}")

    phases: Dict[str, Any] = aggregate.get("phases", {})
    if phases:
        for field in ("count", "sampled_ns", "samples"):
            name = f"repro_phase_{field}"
            family(name, f"Kernel phase profile: {field.replace('_', ' ')}.")
            for phase in sorted(phases):
                lines.append(
                    f'{name}{{{base},phase="{prometheus_escape(phase)}"}} '
                    f"{_num(phases[phase].get(field, 0))}"
                )
    return lines


def write_prometheus_textfile(aggregate: Dict[str, Any], path: Pathish) -> pathlib.Path:
    """Atomically write *aggregate* in Prometheus textfile format."""
    dest = pathlib.Path(path)
    atomic_write_text(dest, "\n".join(prometheus_lines(aggregate)) + "\n")
    return dest


def write_json_snapshot(aggregate: Dict[str, Any], path: Pathish) -> pathlib.Path:
    """Atomically write *aggregate* as canonical JSON (deterministic bytes)."""
    # Imported lazily: repro.obs is imported while repro.io initializes.
    from repro.io.canonical import canonical_json

    dest = pathlib.Path(path)
    atomic_write_text(dest, canonical_json(aggregate) + "\n")
    return dest
