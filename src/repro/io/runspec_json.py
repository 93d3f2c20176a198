"""Canonical JSON form of :class:`~repro.runtime.spec.RunSpec`.

The result cache is content-addressed, so the serialization here must be
*canonical*: two equal specs always produce byte-identical JSON.  The
rules are

* keys sorted, separators fixed (no incidental whitespace);
* floats via :func:`json.dumps`'s ``repr``-based formatting (shortest
  round-trippable form — ``0.6`` stays ``0.6`` on every platform);
* optional fields always present (``null`` rather than omitted), so a
  field growing a non-default value never reshuffles the document;
* a ``format``/``version`` header inside the hashed document, so a
  format change automatically invalidates old cache entries rather than
  colliding with them.

``runspec_from_dict`` is the exact inverse, used to audit cache entries
and to rehydrate archived sweep manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

from repro.io.canonical import canonical_json
from repro.runtime.spec import (
    KernelSpec,
    MonitorSpec,
    ObsSpec,
    RunSpec,
    ScenarioSpec,
    TaskSetSpec,
)
from repro.workload.generator import GeneratorParams
from repro.workload.traffic import traffic_from_dict, traffic_to_dict

__all__ = [
    "runspec_to_dict",
    "runspec_from_dict",
    "runspec_canonical_json",
    "runspec_from_json",
    "spec_key",
]

FORMAT = "repro-runspec"
VERSION = 1


def _params_to_dict(params: GeneratorParams) -> Dict[str, Any]:
    doc = dataclasses.asdict(params)
    doc["util_range"] = list(params.util_range)
    return doc


def _params_from_dict(doc: Dict[str, Any]) -> GeneratorParams:
    kwargs = dict(doc)
    if "util_range" in kwargs:
        kwargs["util_range"] = tuple(kwargs["util_range"])
    return GeneratorParams(**kwargs)


def runspec_to_dict(spec: RunSpec) -> Dict[str, Any]:
    """*spec* as a JSON-ready dict (canonical field set, ``null`` defaults).

    The ``obs`` component is result-neutral (observation only) and is
    serialized *only when non-default*, keeping documents for untraced
    specs byte-identical to the pre-obs format.
    """
    doc = _runspec_core_dict(spec)
    if spec.obs != ObsSpec():
        doc["obs"] = {
            "trace_dir": spec.obs.trace_dir,
            "trace_name": spec.obs.trace_name,
        }
    return doc


def _runspec_core_dict(spec: RunSpec) -> Dict[str, Any]:
    """The hashed (result-determining) portion of *spec* — never ``obs``."""
    kernel: Dict[str, Any] = {
        "use_virtual_time": spec.kernel.use_virtual_time,
        "record_intervals": spec.kernel.record_intervals,
        "monitor_latency": spec.kernel.monitor_latency,
        "measure_overhead": spec.kernel.measure_overhead,
    }
    # Emitted only when non-default: reference-backend documents (and
    # hence their cache keys) stay byte-identical to the pre-backend
    # format, while any other backend gets its own key space.
    if spec.kernel.backend != "reference":
        kernel["backend"] = spec.kernel.backend
    doc: Dict[str, Any] = {
        "format": FORMAT,
        "version": VERSION,
        "taskset": {
            "seed": spec.taskset.seed,
            "params": (
                _params_to_dict(spec.taskset.params)
                if spec.taskset.params is not None
                else None
            ),
            "inline": spec.taskset.inline,
        },
        "scenario": {
            "name": spec.scenario.name,
            "windows": [[a, b] for a, b in spec.scenario.windows],
            "overload_level": spec.scenario.overload_level,
        },
        "monitor": {
            "kind": spec.monitor.kind,
            "param": spec.monitor.param,
            "extra": spec.monitor.extra,
        },
        "kernel": kernel,
        "horizon": spec.horizon,
        "confirm_window": spec.confirm_window,
        "level_c_budgets": spec.level_c_budgets,
    }
    # Emitted only when configured: traffic-free documents (and hence
    # their cache keys) stay byte-identical to the pre-traffic format.
    if spec.traffic is not None:
        doc["traffic"] = traffic_to_dict(spec.traffic)
    return doc


def runspec_from_dict(doc: Dict[str, Any]) -> RunSpec:
    """Inverse of :func:`runspec_to_dict` (validates the header)."""
    if doc.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document: format={doc.get('format')!r}")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported {FORMAT} version {doc.get('version')!r}")
    ts = doc["taskset"]
    sc = doc["scenario"]
    mon = doc["monitor"]
    ker = doc.get("kernel", {})
    obs = doc.get("obs", {}) or {}
    return RunSpec(
        taskset=TaskSetSpec(
            seed=ts.get("seed"),
            params=(
                _params_from_dict(ts["params"]) if ts.get("params") is not None else None
            ),
            inline=ts.get("inline"),
        ),
        scenario=ScenarioSpec(
            name=sc["name"],
            windows=tuple((float(a), float(b)) for a, b in sc["windows"]),
            overload_level=sc.get("overload_level", "B"),
        ),
        monitor=MonitorSpec(  # converts param/extra to float unless None
            kind=mon["kind"], param=mon.get("param", 1.0), extra=mon.get("extra")
        ),
        kernel=KernelSpec(
            use_virtual_time=bool(ker.get("use_virtual_time", True)),
            record_intervals=bool(ker.get("record_intervals", False)),
            monitor_latency=float(ker.get("monitor_latency", 0.0)),
            measure_overhead=bool(ker.get("measure_overhead", False)),
            backend=str(ker.get("backend", "reference")),
        ),
        horizon=float(doc["horizon"]),
        confirm_window=float(doc.get("confirm_window", 0.5)),
        level_c_budgets=bool(doc.get("level_c_budgets", True)),
        obs=ObsSpec(
            trace_dir=obs.get("trace_dir"),
            trace_name=obs.get("trace_name"),
        ),
        traffic=(
            traffic_from_dict(doc["traffic"])
            if doc.get("traffic") is not None
            else None
        ),
    )


def runspec_canonical_json(spec: RunSpec) -> str:
    """The canonical (hash-stable) JSON text for *spec*.

    Hashes only the result-determining fields: ``obs`` never appears
    here, so tracing a spec does not change its cache key.
    """
    return canonical_json(_runspec_core_dict(spec))


def runspec_from_json(text: str) -> RunSpec:
    """Parse a spec from (any) JSON text form."""
    return runspec_from_dict(json.loads(text))


def spec_key(spec: RunSpec) -> str:
    """Content address of *spec*: sha256 hex of the canonical JSON."""
    return hashlib.sha256(runspec_canonical_json(spec).encode("utf-8")).hexdigest()
