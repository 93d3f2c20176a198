"""JSON documents of experiment results and figure data.

A :class:`~repro.experiments.metrics.RunResult` document is read back
(the result cache, shard manifests, the service's fetch stream), so it
goes through :mod:`repro.io.codec` under the rules declared on the class
(docs/architecture.md, "Documents").  Batch and figure documents are
export-only archives: they carry enough provenance (scenario, monitor
label, parameters) to tell which configuration produced which numbers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable

from repro.experiments.figures import FigureData
from repro.experiments.metrics import RunResult
from repro.io import codec

__all__ = [
    "run_result_to_dict",
    "run_result_from_dict",
    "results_to_json",
    "figure_to_dict",
    "figure_to_json",
]


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """A RunResult as a JSON-ready dict (``sojourn`` only when set)."""
    return codec.encode(result)


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Inverse of :func:`run_result_to_dict` (the result-cache read path).

    Unknown keys are ignored (forward compatibility); a missing field
    without a default raises :class:`ValueError`, so a truncated cache
    entry reads as corrupt rather than as a zeroed result.
    """
    return codec.decode(RunResult, data)


def results_to_json(results: Iterable[RunResult], indent: int = 2) -> str:
    """Serialize a batch of run results."""
    doc = {
        "format": "repro-results",
        "version": 1,
        "runs": [run_result_to_dict(r) for r in results],
    }
    return json.dumps(doc, indent=indent)


def figure_to_dict(fig: FigureData) -> Dict[str, Any]:
    """A reproduced figure (series of mean/CI points) as a dict."""
    return {
        "figure_id": fig.figure_id,
        "title": fig.title,
        "xlabel": fig.xlabel,
        "ylabel": fig.ylabel,
        "series": [
            {
                "label": s.label,
                "points": [
                    {
                        "x": p.x,
                        "mean": p.ci.mean,
                        "ci_half_width": p.ci.half_width,
                        "confidence": p.ci.confidence,
                        "n": p.ci.n,
                        "truncated_runs": p.truncated_runs,
                    }
                    for p in s.points
                ],
            }
            for s in fig.series
        ],
    }


def figure_to_json(fig: FigureData, indent: int = 2) -> str:
    """Serialize a reproduced figure."""
    doc = {"format": "repro-figure", "version": 1, **figure_to_dict(fig)}
    return json.dumps(doc, indent=indent)
