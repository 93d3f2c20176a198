"""Canonical JSON form of :class:`~repro.runtime.spec.RunSpec`.

The result cache is content-addressed, so the serialization here must be
*canonical*: two equal specs always produce byte-identical JSON.  The
rules are

* keys sorted, separators fixed (no incidental whitespace);
* floats via :func:`json.dumps`'s ``repr``-based formatting (shortest
  round-trippable form — ``0.6`` stays ``0.6`` on every platform);
* optional fields always present (``null`` rather than omitted), so a
  field growing a non-default value never reshuffles the document —
  except the fields added after the format froze (``kernel.backend``,
  ``traffic``, ``obs``), which are left out at their defaults so older
  keys hold;
* a ``format``/``version`` header inside the hashed document, so a
  format change automatically invalidates old cache entries rather than
  colliding with them.

The document is the :mod:`repro.io.codec` encoding of the spec, under
the rules declared on :class:`~repro.runtime.spec.RunSpec` and its parts
(docs/architecture.md, "Documents"); ``runspec_from_dict`` is its exact,
type-checked inverse, used to audit cache entries and to rehydrate
archived sweep manifests.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.io import codec
from repro.io.canonical import canonical_json
from repro.runtime.spec import RunSpec

__all__ = [
    "runspec_to_dict",
    "runspec_from_dict",
    "runspec_canonical_json",
    "runspec_from_json",
    "spec_key",
]


def runspec_to_dict(spec: RunSpec) -> Dict[str, Any]:
    """*spec* as a JSON-ready dict, ``obs`` included when set."""
    return codec.encode(spec)


def runspec_from_dict(doc: Dict[str, Any]) -> RunSpec:
    """Inverse of :func:`runspec_to_dict` (checks the header and every field)."""
    return codec.decode(RunSpec, doc)


def runspec_canonical_json(spec: RunSpec) -> str:
    """The canonical (hash-stable) JSON text for *spec*, without ``obs``:
    tracing a spec does not change its cache key."""
    return canonical_json(codec.encode(spec, keyed=True))


def runspec_from_json(text: str) -> RunSpec:
    """Parse a spec from (any) JSON text form."""
    return runspec_from_dict(json.loads(text))


def spec_key(spec: RunSpec) -> str:
    """Content address of *spec*: sha256 hex of the canonical JSON."""
    return codec.key(spec)
