"""Content-addressed on-disk cache of sweep results.

Each entry is one JSON file named by the sha256 of its spec's canonical
JSON (sharded two-hex-chars deep, git-object style), holding both the
spec document and the :class:`~repro.experiments.metrics.RunResult` —
the spec rides along for auditability, the key alone addresses the
entry.  Because simulation is deterministic given a spec, a hit is
exactly the result a fresh run would produce; re-running a sweep whose
grid did not change performs zero simulations.

Writes are atomic (temp file + ``os.replace`` + fsync, via
:mod:`repro.util.atomicio`) so concurrent sweeps sharing a cache
directory can only ever observe complete entries — a writer killed at
any instant (including ``kill -9`` mid-write) leaves at most a stray
``*.tmp`` next to the entry, and a torn/corrupt file is treated as a
miss, never an error.

Read-back is *content-address checked*: an entry is only trusted if its
recorded key matches the filename key, its stored spec re-hashes to
that key, and (for entries written with ``result_sha256``) its result
document re-digests to the recorded digest.  A mismatch — bit rot, a
hand-edited file, an entry transplanted between keys — is a miss with a
stderr warning, so a poisoned cache can degrade performance but never
results.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from typing import Optional, Union

from repro.experiments.metrics import RunResult
from repro.io.canonical import doc_digest
from repro.io.codec import keyed_address
from repro.util.atomicio import atomic_write_text

# NOTE: repro.io.results_json is imported lazily inside methods — it
# builds on experiments.figures, which builds on this package.

__all__ = ["ResultCache", "default_cache_dir"]

_FORMAT = "repro-runcache"
_VERSION = 1


def default_cache_dir() -> pathlib.Path:
    """``$XDG_CACHE_HOME/repro-mc2`` (or ``~/.cache/repro-mc2``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = pathlib.Path(base) if base else pathlib.Path.home() / ".cache"
    return root / "repro-mc2"


class ResultCache:
    """Spec-keyed result store under one directory.

    Parameters
    ----------
    directory:
        Cache root (created on first write).  ``None`` selects
        :func:`default_cache_dir`.
    max_entries:
        Optional size cap; when a :meth:`put` pushes the entry count
        past it, the oldest entries (by file modification time) are
        evicted until the cap holds.  ``None`` means unbounded.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path, None] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.directory = pathlib.Path(directory) if directory else default_cache_dir()
        self.max_entries = max_entries

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.json"

    @staticmethod
    def _spec_address(spec_doc: dict) -> str:
        """The content address a stored spec document hashes to: the
        fields :class:`~repro.runtime.spec.RunSpec` keys (not ``obs``)."""
        from repro.runtime.spec import RunSpec

        return keyed_address(RunSpec, spec_doc)

    def _corrupt(self, path: pathlib.Path, why: str) -> None:
        print(
            f"repro-mc2: warning: cache entry {path} failed its "
            f"content-address check ({why}); treating as a miss",
            file=sys.stderr,
        )

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for *key*, or ``None`` on a miss.

        A hit must survive three content-address checks — recorded key
        vs. filename key, stored spec vs. key, stored result vs. its
        recorded digest — so a corrupted or transplanted entry warns on
        stderr and misses instead of silently returning wrong results.
        """
        from repro.io.results_json import run_result_from_dict

        path = self._path(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if doc.get("format") != _FORMAT:
            return None
        if doc.get("key") != key:
            self._corrupt(path, f"recorded key {str(doc.get('key'))[:12]} != {key[:12]}")
            return None
        spec_doc = doc.get("spec")
        if isinstance(spec_doc, dict) and spec_doc:
            try:
                address = self._spec_address(spec_doc)
            except (TypeError, ValueError):
                address = "<unhashable>"
            if address != key:
                self._corrupt(path, f"spec re-hashes to {address[:12]}, not {key[:12]}")
                return None
        recorded_digest = doc.get("result_sha256")
        try:
            result_doc = doc["result"]
            if recorded_digest is not None and doc_digest(result_doc) != recorded_digest:
                self._corrupt(path, "result digest mismatch")
                return None
            return run_result_from_dict(result_doc)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, spec_doc: dict, result: RunResult) -> None:
        """Store *result* under *key*, evicting past ``max_entries``."""
        from repro.io.results_json import run_result_to_dict

        result_doc = run_result_to_dict(result)
        doc = {
            "format": _FORMAT,
            "version": _VERSION,
            "key": key,
            "spec": spec_doc,
            "result": result_doc,
            "result_sha256": doc_digest(result_doc),
        }
        atomic_write_text(self._path(key), json.dumps(doc, indent=2) + "\n")
        if self.max_entries is not None:
            self.prune(self.max_entries)

    def _entries(self) -> list[pathlib.Path]:
        if not self.directory.is_dir():
            return []
        return [
            p
            for shard in self.directory.iterdir()
            if shard.is_dir()
            for p in shard.glob("*.json")
        ]

    def __len__(self) -> int:
        return len(self._entries())

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def prune(self, max_entries: int) -> int:
        """Evict oldest entries beyond *max_entries*; returns evictions."""
        entries = self._entries()
        excess = len(entries) - max_entries
        if excess <= 0:
            return 0
        entries.sort(key=lambda p: (p.stat().st_mtime, p.name))
        evicted = 0
        for p in entries[:excess]:
            try:
                p.unlink()
                evicted += 1
            except OSError:
                pass
        return evicted

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        entries = self._entries()
        for p in entries:
            try:
                p.unlink()
            except OSError:
                pass
        return len(entries)
