"""Canonical JSON + content addressing, shared by every artifact layer.

Every durable artifact in this repo (RunSpec keys, campaign manifests,
merged results, provenance manifests, telemetry aggregates) relies on
the same convention: *canonical JSON* is ``json.dumps`` with sorted
keys, compact separators, and ``allow_nan=False`` — a bijection from a
JSON-able document to one byte string, independent of dict insertion
order.  A document's *content address* is the sha256 hex digest of its
canonical JSON.

Historically each module carried its own ``_CANON`` dict; this module
is the one shared definition so provenance digests, cache
content-address checks, and manifest keys can never drift apart.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Union

__all__ = ["CANON", "canonical_json", "sha256_hex", "doc_digest"]

#: kwargs for ``json.dumps`` producing canonical JSON.
CANON = dict(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(doc: Any) -> str:
    """The canonical JSON text for *doc* (no trailing newline)."""
    return json.dumps(doc, **CANON)


def sha256_hex(data: Union[str, bytes]) -> str:
    """sha256 hex digest of *data* (text is UTF-8 encoded first)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def doc_digest(doc: Any) -> str:
    """Content address of a JSON-able document: sha256 of its canonical JSON.

    This is the per-cell result digest recorded by provenance manifests
    and recomputed by ``repro-mc2 verify``: two documents share a digest
    iff their canonical JSON bytes are identical.
    """
    return sha256_hex(canonical_json(doc))
