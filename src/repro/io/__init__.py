"""Serialization: task sets, run specs and experiment results as JSON.

A reproducible evaluation needs workloads and results that can leave the
process: the generator's task sets can be exported, audited, edited and
re-imported, and experiment results can be archived next to the figures
they produced.

* :mod:`repro.io.codec` — the one encode/decode of every document that
  is read back (docs/architecture.md, "Documents").
* :mod:`repro.io.taskset_json` — lossless Task/TaskSet <-> JSON.
* :mod:`repro.io.results_json` — RunResult / figure data <-> JSON.
* :mod:`repro.io.runspec_json` — canonical RunSpec <-> JSON (the hash
  the content-addressed result cache is keyed by).
* :mod:`repro.io.canonical` — the shared canonical-JSON + sha256
  content-addressing convention every artifact layer builds on.

The submodule exports load on first access, so the model and spec
classes can import :mod:`repro.io.codec` without pulling in the
experiments that :mod:`repro.io.results_json` builds on.
"""

import importlib

from repro.io.canonical import canonical_json, doc_digest, sha256_hex

_EXPORTS = {
    "taskset_json": ("task_to_dict", "task_from_dict", "taskset_to_json", "taskset_from_json"),
    "results_json": ("run_result_to_dict", "run_result_from_dict", "results_to_json",
                     "figure_to_dict"),
    "runspec_json": ("runspec_to_dict", "runspec_from_dict", "runspec_canonical_json",
                     "runspec_from_json", "spec_key"),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_LAZY, "canonical_json", "doc_digest", "sha256_hex"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.io' has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.io.{module}"), name)
