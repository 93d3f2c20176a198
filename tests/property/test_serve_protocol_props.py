"""Property tests: the ``repro-serve`` v2 wire protocol framing.

Hypothesis pins the three framing invariants the fabric's durability
story rests on:

* every message type round-trips ``encode -> decode`` exactly;
* a :class:`~repro.serve.protocol.LineDecoder` fed arbitrary torn
  chunkings of a frame stream yields exactly the original messages, in
  order (partial reads never corrupt or duplicate);
* unknown *fields* are ignored on decode (forward compatibility) while
  unknown *types* and non-object frames fail loudly;
* the optional wait fields of ``lease`` and ``jobs`` round-trip, and a
  frame without them decodes to the defaults that ask for an immediate
  answer.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MESSAGE_TYPES,
    JobsRequest,
    LeaseRequest,
    LineDecoder,
    ProtocolError,
    decode_message,
    encode_message,
)

json_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=10,
)


def _field_strategy(f: dataclasses.Field):
    """A value strategy matching the field's declared type."""
    ann = str(f.type)
    if "List[Dict" in ann:
        return st.lists(
            st.dictionaries(st.text(max_size=8), json_scalars, max_size=3),
            max_size=3,
        )
    if "List[str]" in ann:
        return st.lists(st.text(max_size=16), max_size=4)
    if "List[bool]" in ann:
        return st.lists(st.booleans(), max_size=4)
    if "List[int]" in ann:
        return st.lists(st.integers(min_value=0, max_value=2**53), max_size=4)
    if "Dict" in ann:
        return st.dictionaries(st.text(max_size=8), json_values, max_size=3)
    if "bool" in ann:
        return st.booleans()
    if "int" in ann:
        return st.integers(min_value=-(2**53), max_value=2**53)
    if "float" in ann:
        return st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        )
    return st.text(max_size=32)


def _message_strategy(cls):
    kwargs = {f.name: _field_strategy(f) for f in dataclasses.fields(cls)}
    return st.builds(cls, **kwargs)


messages = st.one_of([
    _message_strategy(cls)
    for cls in sorted(MESSAGE_TYPES.values(), key=lambda c: c.TYPE)
])


@given(messages)
@settings(max_examples=100)
def test_every_message_round_trips(msg):
    frame = encode_message(msg)
    assert frame.endswith(b"\n")
    assert frame.count(b"\n") == 1  # canonical JSON never embeds the terminator
    decoded = decode_message(frame[:-1].decode("utf-8"))
    assert type(decoded) is type(msg)
    assert decoded == msg


@given(st.lists(messages, min_size=1, max_size=6), st.data())
@settings(max_examples=100)
def test_torn_chunking_never_corrupts(msgs, data):
    stream = b"".join(encode_message(m) for m in msgs)
    # Cut the stream at arbitrary byte positions (including mid-frame
    # and mid-UTF-8) and feed the pieces one by one.
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(stream)), max_size=8,
    )))
    decoder = LineDecoder()
    out = []
    prev = 0
    for cut in cuts + [len(stream)]:
        out.extend(decoder.feed(stream[prev:cut]))
        prev = cut
    assert out == msgs
    assert decoder.pending == 0


@given(messages, st.dictionaries(
    st.text(min_size=1, max_size=10).filter(lambda s: s != "type"),
    json_values, min_size=1, max_size=4,
))
@settings(max_examples=100)
def test_unknown_fields_are_ignored(msg, extra):
    doc = dataclasses.asdict(msg)
    known = set(doc)
    doc["type"] = msg.TYPE
    doc.update({k: v for k, v in extra.items() if k not in known and k != "type"})
    decoded = decode_message(json.dumps(doc))
    assert decoded == msg


#: The fields a peer sends without the wait fields; the rest are wait fields.
V1_FIELDS = {LeaseRequest: {"owner"}, JobsRequest: set()}
waiting_requests = st.one_of([_message_strategy(cls) for cls in V1_FIELDS])


@given(waiting_requests)
@settings(max_examples=100)
def test_wait_fields_round_trip_and_default_to_answer_at_once(msg):
    assert decode_message(encode_message(msg)[:-1].decode("utf-8")) == msg
    doc = {k: v for k, v in dataclasses.asdict(msg).items()
           if k in V1_FIELDS[type(msg)]}
    doc["type"] = msg.TYPE
    v1 = decode_message(json.dumps(doc))
    sent = {k: v for k, v in doc.items() if k != "type"}
    assert v1 == type(msg)(**sent)  # every wait field at its default
    assert v1.wait_s == 0.0  # which the coordinator answers at once


@given(st.text(min_size=1, max_size=20))
def test_unknown_type_raises(tag):
    if tag in MESSAGE_TYPES:
        return
    with pytest.raises(ProtocolError):
        decode_message(json.dumps({"type": tag}))


@pytest.mark.parametrize("line", [
    "not json at all",
    "[1, 2, 3]",
    '"just a string"',
    "{'single': 'quotes'}",
    '{"no_type_field": true}',
])
def test_garbage_frames_fail_loudly(line):
    with pytest.raises(ProtocolError):
        decode_message(line)


def test_blank_lines_are_skipped():
    decoder = LineDecoder()
    frames = b'\n\n{"type":"telemetry_ok"}\n   \n{"type":"hello_ok"}\n'
    out = list(decoder.feed(frames))
    assert [m.TYPE for m in out] == ["telemetry_ok", "hello_ok"]
    assert decoder.pending == 0
