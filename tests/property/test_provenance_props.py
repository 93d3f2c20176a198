"""Property tests: provenance manifest identity and canonical digests.

Hypothesis pins the invariants ``repro-mc2 verify`` and the golden
manifest corpus rest on:

* a manifest round-trips ``canonical() -> json.loads -> from_dict``
  exactly, and its content address (``key()``) survives the trip;
* :func:`~repro.io.canonical.doc_digest` is insertion-order blind —
  the same mapping built in any key order digests identically — and
  collision-sensitive to any value change;
* the manifest key is owner/code/artifact-name *invariant* (the same
  cells produce the same key no matter which workers ran them) but
  cell-*sensitive* (any digest, key, order, or count change moves it).
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.canonical import canonical_json, doc_digest, sha256_hex
from repro.provenance import ProvenanceManifest

#: 32 random bytes as 64 hex digits: one cheap draw per digest (a
#: 64-character text draw made manifests() trip hypothesis's too_slow check).
hex_digest = st.binary(min_size=32, max_size=32).map(bytes.hex)

json_scalars = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
json_docs = st.dictionaries(st.text(max_size=10), json_scalars, max_size=8)


@st.composite
def manifests(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    cells = tuple(
        (draw(hex_digest), draw(hex_digest)) for _ in range(n)
    )
    return ProvenanceManifest(
        kind=draw(st.sampled_from(["sweep", "faults"])),
        campaign=draw(hex_digest),
        artifact=draw(st.sampled_from(["merged.json", "out.json"])),
        artifact_sha256=draw(hex_digest),
        cells=cells,
        kernel={"backends": draw(st.lists(st.sampled_from(
            ["reference", "soa"]), max_size=2, unique=True))},
        code={"package": "1", "source_sha256": draw(hex_digest)},
        owners=tuple(
            {"index": i, "shard": draw(hex_digest), "owner": draw(
                st.text(max_size=8))}
            for i in range(draw(st.integers(min_value=0, max_value=3)))
        ),
    )


class TestRoundTrip:
    @given(manifests())
    @settings(max_examples=50)
    def test_canonical_round_trip_is_exact(self, manifest):
        doc = json.loads(manifest.canonical())
        back = ProvenanceManifest.from_dict(doc)
        assert back == manifest
        assert back.key() == manifest.key()
        assert back.canonical() == manifest.canonical()

    @given(manifests())
    @settings(max_examples=50)
    def test_recorded_key_matches_content(self, manifest):
        doc = manifest.to_dict()
        assert doc["key"] == sha256_hex(canonical_json(
            manifest._identity_doc()))


class TestDigestStability:
    @given(json_docs, st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_digest_blind_to_insertion_order(self, doc, rng):
        items = list(doc.items())
        rng.shuffle(items)
        assert doc_digest(dict(items)) == doc_digest(doc)

    @given(json_docs, st.text(max_size=10))
    @settings(max_examples=100)
    def test_digest_sensitive_to_any_change(self, doc, key):
        changed = dict(doc)
        changed[key] = "sentinel-not-" + str(doc.get(key))
        assert doc_digest(changed) != doc_digest(doc)


class TestKeyInvariance:
    @given(manifests(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50)
    def test_key_invariant_to_attribution_metadata(self, manifest, seed):
        """Same cells ⇒ same key, whatever workers/code/name produced
        them — the shard interleaving of a distributed run only moves
        ``owners``, never the identity."""
        rng = random.Random(seed)
        owners = [
            {"index": i, "shard": "%064x" % rng.getrandbits(256),
             "owner": f"w{rng.randrange(100)}"}
            for i in range(rng.randrange(4))
        ]
        relabeled = ProvenanceManifest(
            kind=manifest.kind,
            campaign=manifest.campaign,
            artifact="elsewhere.json",
            artifact_sha256=manifest.artifact_sha256,
            cells=manifest.cells,
            kernel=manifest.kernel,
            code={"package": "2", "source_sha256": "e" * 64},
            owners=tuple(owners),
        )
        assert relabeled.key() == manifest.key()

    @given(manifests())
    @settings(max_examples=50)
    def test_key_sensitive_to_cells(self, manifest):
        key = manifest.key()
        k0, d0 = manifest.cells[0]
        forged_digest = manifest.cells[:0] + (
            (k0, "0" * 64 if d0 != "0" * 64 else "1" * 64),
        ) + manifest.cells[1:]
        assert ProvenanceManifest(
            kind=manifest.kind, campaign=manifest.campaign,
            artifact=manifest.artifact,
            artifact_sha256=manifest.artifact_sha256,
            cells=forged_digest, kernel=manifest.kernel,
        ).key() != key
        if len(manifest.cells) > 1 and manifest.cells[0] != manifest.cells[-1]:
            reordered = tuple(reversed(manifest.cells))
            assert ProvenanceManifest(
                kind=manifest.kind, campaign=manifest.campaign,
                artifact=manifest.artifact,
                artifact_sha256=manifest.artifact_sha256,
                cells=reordered, kernel=manifest.kernel,
            ).key() != key
        truncated = manifest.cells[:-1]
        assert ProvenanceManifest(
            kind=manifest.kind, campaign=manifest.campaign,
            artifact=manifest.artifact,
            artifact_sha256=manifest.artifact_sha256,
            cells=truncated, kernel=manifest.kernel,
        ).key() != key
