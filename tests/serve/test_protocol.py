"""Unit tests: ``repro-serve`` v2 framing, addresses, and handshakes.

The hypothesis suite (``tests/property/test_serve_protocol_props.py``)
sweeps the message space; these tests pin concrete frames and the edge
cases a fuzzer is unlikely to phrase — canonical byte layout, the lazy
``LineDecoder.feed`` contract, address parsing, port-file polling, and
the coordinator's version gate.
"""

import json
import threading

import pytest

from repro.serve import protocol as wire
from repro.serve.coordinator import Coordinator
from repro.serve.protocol import (
    LineDecoder,
    ProtocolError,
    decode_message,
    encode_message,
    read_port_file,
    split_host_port,
)


class TestFraming:
    def test_frames_are_canonical_sorted_json(self):
        frame = encode_message(wire.Heartbeat(owner="w1", campaign="c", shard="s"))
        line = frame.decode("utf-8")
        assert line.endswith("\n")
        doc = json.loads(line)
        assert doc == {"type": "heartbeat", "owner": "w1", "campaign": "c", "shard": "s"}
        # Canonical: keys sorted, no whitespace — byte-stable across runs.
        assert line.strip() == json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_round_trip_with_nested_payload(self):
        msg = wire.ShardDone(
            campaign="k" * 64, shard="s" * 64, owner="w1",
            results=[{"scenario": "short", "nested": {"a": [1, 2.5, "x"]}}, {}],
            cached=[True, False], wall_ns=[12345, 6], shard_wall_ns=12351,
        )
        assert decode_message(encode_message(msg)[:-1].decode("utf-8")) == msg

    def test_unknown_fields_dropped(self):
        decoded = decode_message('{"type": "telemetry_ok", "future_field": 1}')
        assert decoded == wire.TelemetryOk()

    def test_unknown_type_and_bad_json_raise(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message('{"type": "warp_core"}')
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message("{nope")
        with pytest.raises(ProtocolError, match="not a JSON object"):
            decode_message("[]")


class TestLineDecoder:
    def test_torn_frame_across_three_reads(self):
        frame = encode_message(wire.SubmitOk(key="k", shards=4, shards_done=1))
        decoder = LineDecoder()
        assert list(decoder.feed(frame[:5])) == []
        assert decoder.pending == 5
        assert list(decoder.feed(frame[5:-1])) == []
        out = list(decoder.feed(frame[-1:]))
        assert out == [wire.SubmitOk(key="k", shards=4, shards_done=1)]
        assert decoder.pending == 0

    def test_two_frames_in_one_read(self):
        data = encode_message(wire.HelloOk()) + encode_message(wire.TelemetryOk())
        out = list(LineDecoder().feed(data))
        assert [m.TYPE for m in out] == ["hello_ok", "telemetry_ok"]

    def test_abandoned_generator_keeps_remaining_frames_buffered(self):
        # feed() is lazy: taking one message and dropping the iterator
        # must leave the rest intact for a later feed(b"") drain.
        data = encode_message(wire.TelemetryOk()) + encode_message(wire.HeartbeatOk())
        decoder = LineDecoder()
        first = next(decoder.feed(data))
        assert first == wire.TelemetryOk()
        rest = list(decoder.feed(b""))
        assert rest == [wire.HeartbeatOk()]
        assert decoder.pending == 0


class TestAddresses:
    def test_host_port(self):
        assert split_host_port("example.com:7777") == ("example.com", 7777)

    def test_bare_port_gets_default_host(self):
        assert split_host_port("7777") == ("127.0.0.1", 7777)
        assert split_host_port(":7777", default_host="0.0.0.0") == ("0.0.0.0", 7777)

    def test_ipv6_brackets(self):
        assert split_host_port("[::1]:7777") == ("::1", 7777)

    def test_bad_port_raises(self):
        with pytest.raises(ValueError, match="bad service address"):
            split_host_port("host:notaport")


class TestPortFile:
    def test_reads_port_once_written(self, tmp_path):
        path = tmp_path / "port"

        def write_later():
            path.write_text("4242\n")

        t = threading.Timer(0.1, write_later)
        t.start()
        try:
            assert read_port_file(str(path), timeout=5.0) == 4242
        finally:
            t.cancel()

    def test_times_out_when_never_written(self, tmp_path):
        with pytest.raises(TimeoutError, match="no port appeared"):
            read_port_file(str(tmp_path / "never"), timeout=0.2)


class TestHandshake:
    def test_version_mismatch_rejected(self, tmp_path):
        coord = Coordinator(tmp_path)
        (ok,) = coord.handle(wire.Hello(role="worker", owner="w"))
        assert ok == wire.HelloOk()
        (err,) = coord.handle(wire.Hello(role="worker", owner="w", version=99))
        assert isinstance(err, wire.ErrorReply)
        assert "protocol mismatch" in err.reason
        (err,) = coord.handle(wire.Hello(role="client", format="other-proto"))
        assert isinstance(err, wire.ErrorReply)

    def test_v1_peer_refused(self, tmp_path):
        # A v1 worker would stream cell_result frames v2 no longer reads.
        assert wire.PROTOCOL_VERSION == 2
        coord = Coordinator(tmp_path)
        v1 = decode_message('{"owner":"w","role":"worker","type":"hello",'
                            '"format":"repro-serve","version":1}')
        (err,) = coord.handle(v1)
        assert isinstance(err, wire.ErrorReply)
        assert "want repro-serve v2, got repro-serve v1" in err.reason
