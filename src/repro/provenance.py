"""Provenance manifests + attestation-by-re-execution (``repro-provenance`` v1).

Every merged artifact this repo produces is deterministic: a campaign's
cells are content-addressed (RunSpec / FaultPlan sha256 keys), execution
is seeded, and the streaming merges write byte-identical output no
matter how many workers ran, in how many attempts, on which machine.
This module closes the trust loop over that determinism:

* a :class:`ProvenanceManifest` is written next to every merged
  artifact — the input cell keys in merge order, a sha256 digest of
  each cell's result document, the kernel backends that produced
  them, the code version (package version + a sha256 over the
  ``repro`` source tree), and the sha256 of the merged output bytes;
* :func:`verify_manifest` (the body of ``repro-mc2 verify``) attests a
  manifest: it re-hashes the merged artifact, re-checks every cell
  digest recorded *in* the artifact, and re-executes a seeded sample
  (or all) of the cells through the ordinary executor stack
  (:func:`repro.runtime.shard.get_kind`), comparing recomputed digests
  byte-for-byte.  Any divergence names the first divergent cell in a
  machine-readable :class:`VerifyReport`.

Because verification is *re-execution*, no signing infrastructure is
needed: an artifact is trusted iff an independent party, running the
same code over the same content-addressed inputs, reproduces the same
bytes.  The coordinator's ``--verify-fraction`` spot-check mode
(:mod:`repro.serve.coordinator`) applies the same digest comparison to
a seeded fraction of the cells of every delivered shard before
committing it.

Manifest identity: :meth:`ProvenanceManifest.key` hashes only the
result-determining core (campaign, cells+digests, artifact sha256,
kernel) — **not** the ``owners`` stamp (which worker ran which shard)
and **not** the code version.  Same cells ⇒ same manifest key no matter
how the work was interleaved across workers; the owners and code
version ride along as attestation metadata.

Result-neutrality: the manifest is a *sibling* file
(``<artifact>.provenance.json`` via :func:`provenance_path`), written
atomically after the artifact.  Merged artifacts are byte-identical
with or without provenance emission.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.io import codec
from repro.io.canonical import canonical_json, doc_digest, sha256_hex
from repro.util.atomicio import atomic_write_text

__all__ = [
    "PROVENANCE_FORMAT",
    "PROVENANCE_VERSION",
    "VERIFY_REPORT_FORMAT",
    "VERIFY_REPORT_VERSION",
    "ProvenanceError",
    "ProvenanceManifest",
    "CellCheck",
    "VerifyReport",
    "source_tree_digest",
    "code_version",
    "kernel_info",
    "provenance_path",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "verify_manifest",
]

PROVENANCE_FORMAT = "repro-provenance"
PROVENANCE_VERSION = 1
VERIFY_REPORT_FORMAT = "repro-verify-report"
VERIFY_REPORT_VERSION = 1

Pathish = Union[str, "pathlib.Path"]


class ProvenanceError(ValueError):
    """A provenance manifest that is corrupt, forged, or unreadable."""


# ----------------------------------------------------------------------
# Code identity
# ----------------------------------------------------------------------
_SOURCE_DIGEST_CACHE: Dict[str, str] = {}


def source_tree_digest(package_root: Optional[Pathish] = None) -> str:
    """sha256 over the ``repro`` package's Python source tree.

    Every ``*.py`` file under the package directory is hashed in sorted
    relative-path order (path, NUL, content, NUL), so the digest pins
    exactly the code that executed the cells — byte-level, not just the
    declared package version.  Memoized per path: the tree is immutable
    within one process's lifetime for provenance purposes.
    """
    if package_root is None:
        import repro

        package_root = pathlib.Path(repro.__file__).parent
    root = pathlib.Path(package_root)
    cached = _SOURCE_DIGEST_CACHE.get(str(root))
    if cached is not None:
        return cached
    import hashlib

    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        h.update(rel.encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    digest = h.hexdigest()
    _SOURCE_DIGEST_CACHE[str(root)] = digest
    return digest


def code_version() -> Dict[str, str]:
    """The producing code's identity: package version + source digest."""
    import repro

    return {
        "package": getattr(repro, "__version__", "0"),
        "source_sha256": source_tree_digest(),
    }


def kernel_info(kind: str, cells: Sequence[Any]) -> Dict[str, List[str]]:
    """The kernel backends a campaign's cells execute under.

    ``kind="sweep"`` cells are :class:`~repro.runtime.spec.RunSpec`;
    ``kind="faults"`` cells carry their spec as ``cell.run``.  Both are
    reduced to the sorted distinct backend names so the manifest records
    *what simulator core* produced the results.
    """
    backends = set()
    for cell in cells:
        spec = cell if kind == "sweep" else cell.run
        backends.add(spec.kernel.backend)
    return {"backends": sorted(backends)}


# ----------------------------------------------------------------------
# The manifest
# ----------------------------------------------------------------------
@codec.document(
    header=(PROVENANCE_FORMAT, PROVENANCE_VERSION),
    unkeyed=("artifact", "code", "owners"),
    order=("kind", "campaign", "artifact_sha256", "cells", "kernel",
           "artifact", "code", "owners"),
)
@dataclass(frozen=True)
class ProvenanceManifest:
    """One merged artifact's attested lineage (``repro-provenance`` v1).

    ``cells`` is the ordered (cell key, result digest) list — merge
    order, which is campaign cell order.  ``owners`` records which
    worker committed each shard (display/audit metadata; excluded from
    :meth:`key`).  ``code`` pins the producing package version + source
    tree digest (also excluded from :meth:`key`, so golden manifest
    keys survive code changes that do not change result bytes).
    """

    kind: str
    campaign: str
    artifact: str
    artifact_sha256: str
    cells: Tuple[Tuple[str, str], ...]
    kernel: Dict[str, Any] = field(default_factory=dict)
    code: Dict[str, str] = field(default_factory=dict)
    owners: Tuple[Dict[str, Any], ...] = ()

    def _identity_doc(self, keyed: bool = True) -> Dict[str, Any]:
        """The manifest document, by default only its keyed fields."""
        doc = codec.encode(self, keyed=keyed)
        doc["cells"] = [{"key": k, "digest": d} for k, d in self.cells]
        return doc

    def key(self) -> str:
        """Content address of the manifest's result-determining core."""
        return sha256_hex(canonical_json(self._identity_doc()))

    def to_dict(self) -> Dict[str, Any]:
        doc = self._identity_doc(keyed=False)
        doc["key"] = self.key()
        return doc

    def canonical(self) -> str:
        """The canonical JSON text of the full manifest document."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ProvenanceManifest":
        """Read a manifest; :class:`ProvenanceError` names the bad field.

        ``cells`` are written as ``{key, digest}`` objects; a recorded
        ``key`` must match the content it is recomputed from.
        """
        cells = doc.get("cells") if isinstance(doc, dict) else None
        if isinstance(cells, list) and all(isinstance(c, dict) for c in cells):
            doc = dict(doc, cells=[[c.get("key"), c.get("digest")] for c in cells])
        manifest = codec.decode(cls, doc, error=ProvenanceError)
        recorded = doc.get("key")
        if recorded is not None and recorded != manifest.key():
            raise ProvenanceError(
                f"manifest key {str(recorded)[:12]} does not match its "
                f"recomputed content ({manifest.key()[:12]}); the manifest "
                "was tampered with or is from an incompatible version"
            )
        return manifest


def provenance_path(artifact: Pathish) -> pathlib.Path:
    """The manifest's sibling path: ``merged.json`` → ``merged.provenance.json``."""
    p = pathlib.Path(artifact)
    return p.with_name(p.stem + ".provenance.json")


def build_manifest(
    kind: str,
    campaign_key: str,
    cell_keys: Sequence[str],
    cell_digests: Sequence[str],
    artifact: Pathish,
    artifact_sha256: str,
    cells: Sequence[Any] = (),
    owners: Iterable[Dict[str, Any]] = (),
) -> ProvenanceManifest:
    """Assemble a manifest from one merge pass's observations.

    *cell_digests* are the sha256 digests of the canonical per-cell
    result JSON exactly as streamed into the artifact; *cells* (the
    live cell objects, when available) feed :func:`kernel_info`.
    """
    if len(cell_keys) != len(cell_digests):
        raise ValueError(
            f"{len(cell_keys)} cell keys but {len(cell_digests)} digests"
        )
    return ProvenanceManifest(
        kind=kind,
        campaign=campaign_key,
        artifact=pathlib.Path(artifact).name,
        artifact_sha256=artifact_sha256,
        cells=tuple(zip(cell_keys, cell_digests)),
        kernel=kernel_info(kind, cells) if cells else {},
        code=code_version(),
        owners=tuple(dict(o) for o in owners),
    )


def write_manifest(manifest: ProvenanceManifest, path: Pathish) -> pathlib.Path:
    """Atomically write *manifest* as canonical JSON; returns the path."""
    dest = pathlib.Path(path)
    atomic_write_text(dest, manifest.canonical() + "\n")
    return dest


def load_manifest(path: Pathish) -> ProvenanceManifest:
    """Read + validate a manifest; :class:`ProvenanceError` on any damage.

    A truncated file, invalid JSON, wrong format tag, or a recorded
    ``key`` that does not match the recomputed content address all
    raise — a verifier must fail loudly on a doctored manifest, never
    fall back to partial trust.
    """
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProvenanceError(f"cannot read manifest {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ProvenanceError(
            f"manifest {path} is not valid JSON (truncated or corrupt): {exc}"
        ) from exc
    return ProvenanceManifest.from_dict(doc)


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellCheck:
    """One verified cell: expected vs recomputed digest."""

    pos: int
    key: str
    expected: str
    actual: str
    #: ``"artifact"`` (digest of the cell document stored in the merged
    #: artifact) or ``"re-execution"`` (digest of a fresh execution).
    source: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pos": self.pos,
            "key": self.key,
            "expected": self.expected,
            "actual": self.actual,
            "source": self.source,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Machine-readable outcome of one ``repro-mc2 verify`` run."""

    manifest_path: str
    ok: bool
    manifest_key: str = ""
    campaign: str = ""
    kind: str = ""
    cells_total: int = 0
    artifact_path: str = ""
    artifact_expected_sha256: str = ""
    artifact_actual_sha256: str = ""
    artifact_ok: bool = False
    checked: Tuple[CellCheck, ...] = ()
    reexecuted: Tuple[int, ...] = ()
    sample_seed: int = 0
    code_recorded: Dict[str, str] = field(default_factory=dict)
    code_current: Dict[str, str] = field(default_factory=dict)
    error: str = ""

    @property
    def divergent(self) -> List[CellCheck]:
        return [c for c in self.checked if not c.ok]

    @property
    def first_divergent(self) -> Optional[CellCheck]:
        bad = self.divergent
        return min(bad, key=lambda c: c.pos) if bad else None

    @property
    def code_match(self) -> bool:
        return self.code_recorded == self.code_current

    def to_dict(self) -> Dict[str, Any]:
        first = self.first_divergent
        return {
            "format": VERIFY_REPORT_FORMAT,
            "version": VERIFY_REPORT_VERSION,
            "ok": self.ok,
            "manifest": self.manifest_path,
            "manifest_key": self.manifest_key,
            "campaign": self.campaign,
            "kind": self.kind,
            "cells_total": self.cells_total,
            "artifact": {
                "path": self.artifact_path,
                "expected_sha256": self.artifact_expected_sha256,
                "actual_sha256": self.artifact_actual_sha256,
                "ok": self.artifact_ok,
            },
            "checked": [c.to_dict() for c in self.checked],
            "divergent": [c.to_dict() for c in self.divergent],
            "first_divergent": (
                {"pos": first.pos, "key": first.key, "source": first.source}
                if first is not None
                else None
            ),
            "reexecuted": list(self.reexecuted),
            "sample_seed": self.sample_seed,
            "code": {
                "recorded": dict(self.code_recorded),
                "current": dict(self.code_current),
                "match": self.code_match,
            },
            "error": self.error,
        }

    def render(self) -> str:
        """A short human summary (the non-``--json`` CLI output)."""
        lines = []
        if self.error:
            lines.append(f"verify FAILED: {self.error}")
            return "\n".join(lines)
        status = "ok" if self.ok else "FAILED"
        lines.append(
            f"verify {status}: manifest {self.manifest_key[:12]} "
            f"campaign {self.campaign[:12]} [{self.kind}] "
            f"({self.cells_total} cells)"
        )
        art = "matches" if self.artifact_ok else "DIVERGES"
        lines.append(
            f"  artifact {self.artifact_path}: sha256 {art} "
            f"({self.artifact_actual_sha256[:12]} vs "
            f"{self.artifact_expected_sha256[:12]})"
        )
        lines.append(
            f"  cells checked: {len(self.checked)} "
            f"(re-executed {len(self.reexecuted)}, "
            f"seed {self.sample_seed})"
        )
        first = self.first_divergent
        if first is not None:
            lines.append(
                f"  first divergent cell: pos {first.pos} "
                f"key {first.key[:12]} via {first.source} "
                f"(expected {first.expected[:12]}, got {first.actual[:12]})"
            )
        if not self.code_match:
            lines.append(
                "  note: verifying code differs from the producing code "
                f"(recorded {self.code_recorded.get('source_sha256', '?')[:12]}, "
                f"current {self.code_current.get('source_sha256', '?')[:12]})"
            )
        return "\n".join(lines)


def _artifact_cell_docs(artifact_doc: Any, kind: str) -> Optional[List[Any]]:
    """The per-cell documents stored in a merged artifact, or ``None``."""
    if not isinstance(artifact_doc, dict):
        return None
    docs = artifact_doc.get("results" if kind != "faults" else "outcomes")
    return docs if isinstance(docs, list) else None


def _sample_positions(n: int, sample: int, seed: int, all_cells: bool) -> List[int]:
    """The seeded, sorted cell positions to re-execute."""
    if all_cells or sample >= n:
        return list(range(n))
    k = max(1, sample)
    return sorted(random.Random(seed).sample(range(n), k))


def verify_manifest(
    manifest_path: Pathish,
    campaign_path: Optional[Pathish] = None,
    artifact_path: Optional[Pathish] = None,
    all_cells: bool = False,
    sample: int = 4,
    sample_seed: int = 0,
    reexecute: bool = True,
) -> VerifyReport:
    """Attest one provenance manifest; never raises on tampering.

    Three layers, cheapest first:

    1. **manifest integrity** — parse + recorded-key check
       (:func:`load_manifest`); a forged or truncated manifest yields an
       ``error`` report immediately;
    2. **artifact integrity** — sha256 of the merged artifact bytes
       against ``artifact_sha256``, then every cell document *stored in*
       the artifact re-digested against the manifest (this is what names
       the first divergent cell of a byte-flipped or cell-swapped
       artifact);
    3. **re-execution** — a seeded sample (or ``all_cells``) of the
       campaign's cells re-executed through
       :func:`repro.runtime.shard.get_kind` (the exact executor the
       file queue and service workers use) and re-digested.  Requires
       the campaign document (``campaign.json`` next to the manifest,
       or *campaign_path*).

    The report's ``ok`` is true iff every layer passed.
    """
    mpath = pathlib.Path(manifest_path)
    try:
        manifest = load_manifest(mpath)
    except ProvenanceError as exc:
        return VerifyReport(manifest_path=str(mpath), ok=False, error=str(exc))

    apath = (
        pathlib.Path(artifact_path)
        if artifact_path is not None
        else mpath.parent / manifest.artifact
    )
    checks: List[CellCheck] = []
    error = ""
    try:
        blob = apath.read_bytes()
        actual_sha = sha256_hex(blob)
    except OSError as exc:
        blob = b""
        actual_sha = ""
        error = f"cannot read artifact {apath}: {exc}"
    artifact_ok = actual_sha == manifest.artifact_sha256

    # Layer 2: per-cell digests of what the artifact actually contains.
    if blob:
        try:
            artifact_doc = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            artifact_doc = None
        docs = _artifact_cell_docs(artifact_doc, manifest.kind)
        if docs is not None and len(docs) == len(manifest.cells):
            for pos, (doc, (key, expected)) in enumerate(zip(docs, manifest.cells)):
                try:
                    actual = doc_digest(doc)
                except (TypeError, ValueError):
                    actual = "<undigestable>"
                if actual != expected:
                    checks.append(CellCheck(
                        pos=pos, key=key, expected=expected,
                        actual=actual, source="artifact",
                    ))
        elif not artifact_ok and not error:
            error = (
                f"artifact {apath} is corrupt beyond cell attribution "
                "(unparseable or wrong cell count)"
            )

    # Layer 3: seeded re-execution through the ordinary executor stack.
    reexecuted: List[int] = []
    if reexecute and not error:
        if campaign_path is not None:
            cpath = pathlib.Path(campaign_path)
        else:
            # Campaign dirs keep campaign.json; standalone artifacts
            # (serial/pool --merged-out) keep <stem>.campaign.json.
            stem = pathlib.Path(manifest.artifact).stem
            candidates = [
                mpath.parent / "campaign.json",
                mpath.parent / (stem + ".campaign.json"),
            ]
            cpath = next((c for c in candidates if c.exists()), candidates[0])
        try:
            from repro.runtime.shard import ShardedCampaign, get_kind

            with open(cpath, "r", encoding="utf-8") as fh:
                campaign = ShardedCampaign.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            campaign = None
            error = f"cannot load campaign document {cpath}: {exc}"
        if campaign is not None:
            if campaign.campaign_key != manifest.campaign:
                error = (
                    f"campaign document {campaign.campaign_key[:12]} does not "
                    f"match manifest campaign {manifest.campaign[:12]}"
                )
            elif list(campaign.cell_keys) != [k for k, _ in manifest.cells]:
                error = "campaign cell keys do not match the manifest's cells"
            else:
                kind = get_kind(campaign.kind)
                positions = _sample_positions(
                    len(campaign.cells), sample, sample_seed, all_cells
                )
                for pos in positions:
                    key, expected = manifest.cells[pos]
                    actual = doc_digest(
                        kind.result_to_dict(kind.execute(campaign.cells[pos]))
                    )
                    reexecuted.append(pos)
                    if actual != expected:
                        checks.append(CellCheck(
                            pos=pos, key=key, expected=expected,
                            actual=actual, source="re-execution",
                        ))

    ok = artifact_ok and not checks and not error
    return VerifyReport(
        manifest_path=str(mpath),
        ok=ok,
        manifest_key=manifest.key(),
        campaign=manifest.campaign,
        kind=manifest.kind,
        cells_total=len(manifest.cells),
        artifact_path=str(apath),
        artifact_expected_sha256=manifest.artifact_sha256,
        artifact_actual_sha256=actual_sha,
        artifact_ok=artifact_ok,
        checked=tuple(checks),
        reexecuted=tuple(reexecuted),
        sample_seed=sample_seed,
        code_recorded=dict(manifest.code),
        code_current=code_version(),
        error=error,
    )
