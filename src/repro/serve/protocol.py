"""``repro-serve`` v1: the coordinator/worker wire protocol.

Framing is line-delimited canonical JSON: every message is one JSON
object (sorted keys, compact separators) terminated by ``"\\n"``.  The
terminator never appears inside a message because canonical JSON
escapes control characters, so a receiver can split on newlines without
parsing — :class:`LineDecoder` buffers the torn tail of a partial read
and yields only complete messages.

Versioning and forward compatibility follow the repo's artifact rules:

* the ``hello`` handshake carries ``format``/``version`` and each side
  rejects a peer speaking a different major version;
* **unknown fields are ignored** on decode (a v1.x peer may add fields
  without breaking v1 receivers) — pinned by the property tests;
* an unknown ``type``, a field of the wrong JSON type or a missing
  required field raises :class:`ProtocolError` naming the field (torn
  frames must fail loudly, not read as zeroed messages); the
  coordinator answers such a frame with one ``error`` reply and reads
  on.

Messages are encoded and decoded by :mod:`repro.io.codec`, the codec of
every document (docs/architecture.md, "Documents"); the ``type`` tag is
added here.

The conversation is strict request/reply over one TCP connection: every
request message has exactly one reply message, except ``fetch`` whose
reply is a stream of ``fetch_cell`` messages closed by ``fetch_done``
(documented here because it is the single exception).  Requests are
idempotent — cells are deterministic, campaign registration is
content-addressed, and shard completion is recorded atomically — so a
client may blindly re-send after a reconnect.

A reply may be *deferred*: a request that asks to wait is parked by the
coordinator until it has something new to say, and still gets exactly
one reply.  Two requests carry the optional fields for it; their v1
defaults ask for an immediate answer, so a frame without them is
answered at once:

* ``lease`` — ``wait_s`` (default ``0.0``): hold a ``no_work`` reply up
  to that many seconds until a shard can be granted; ``once`` (default
  ``False``): a ``--once`` worker, answered at once when ``no_work``
  says ``drained``.  A quarantined owner is always answered at once.
* ``jobs`` — ``wait_for`` (default ``""``): a campaign key;
  ``wait_s`` (default ``0.0``): hold the reply up to that many seconds
  until that campaign is complete.

The coordinator caps every wait at :data:`MAX_WAIT_S`, below the
clients' 30 s socket timeouts, and answers as if the request had not
waited when the cap is reached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple, Type, Union

from repro.io import codec
from repro.io.canonical import canonical_json

__all__ = [
    "PROTOCOL_FORMAT",
    "PROTOCOL_VERSION",
    "MAX_WAIT_S",
    "heartbeat_period",
    "ProtocolError",
    "MESSAGE_TYPES",
    "Message",
    "Hello",
    "HelloOk",
    "ErrorReply",
    "Submit",
    "SubmitOk",
    "LeaseRequest",
    "LeaseGrant",
    "NoWork",
    "CellResult",
    "CellOk",
    "ShardDone",
    "ShardOk",
    "Heartbeat",
    "HeartbeatOk",
    "Telemetry",
    "TelemetryOk",
    "JobsRequest",
    "JobsReply",
    "StatusRequest",
    "StatusReply",
    "FetchRequest",
    "FetchCell",
    "FetchDone",
    "encode_message",
    "decode_message",
    "LineDecoder",
    "split_host_port",
    "read_port_file",
]

PROTOCOL_FORMAT = "repro-serve"
PROTOCOL_VERSION = 1

#: The longest the coordinator defers a reply (seconds); below the 30 s
#: socket timeouts of the worker and client connections.
MAX_WAIT_S = 20.0


def heartbeat_period(ttl: float) -> float:
    """Seconds between a lease holder's heartbeats for a *ttl*-second lease.

    The coordinator re-checks parked lease requests at the same period,
    so a dead worker's shard is re-granted within it once the lease
    expires.
    """
    return max(0.05, ttl / 3.0)


class ProtocolError(ValueError):
    """A frame that cannot be decoded as a ``repro-serve`` message."""


@dataclass(frozen=True)
class Message:
    """Base class: every message is a frozen dataclass with a TYPE tag."""

    TYPE = ""


# ----------------------------------------------------------------------
# Handshake / errors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hello(Message):
    """First message on every connection, both directions start here."""

    TYPE = "hello"
    role: str = "client"  # "worker" | "client"
    owner: str = ""
    format: str = PROTOCOL_FORMAT
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class HelloOk(Message):
    TYPE = "hello_ok"
    format: str = PROTOCOL_FORMAT
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class ErrorReply(Message):
    """Reply to any request the coordinator cannot honour."""

    TYPE = "error"
    reason: str = ""


# ----------------------------------------------------------------------
# Campaign registration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Submit(Message):
    """Register a campaign (the ``campaign.json`` document, verbatim).

    Content-addressed and idempotent: re-submitting an already-known
    campaign is acknowledged with ``created=False`` and changes nothing.
    """

    TYPE = "submit"
    campaign: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SubmitOk(Message):
    TYPE = "submit_ok"
    key: str = ""
    shards: int = 0
    shards_done: int = 0
    created: bool = False


# ----------------------------------------------------------------------
# Work loop: lease -> cell results -> shard done, heartbeats throughout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeaseRequest(Message):
    """Ask for a shard.  ``wait_s > 0`` parks a ``no_work`` answer until
    a shard can be granted (see the module docstring); ``once`` marks a
    worker that exits when the fabric is drained."""

    TYPE = "lease"
    owner: str = ""
    wait_s: float = 0.0
    once: bool = False


@dataclass(frozen=True)
class LeaseGrant(Message):
    """One shard of one campaign, with everything needed to execute it.

    ``cells`` are the cell documents of the granted slice (RunSpec JSON
    for ``kind="sweep"``, CampaignCell JSON for ``kind="faults"``), in
    campaign order; ``cell_keys`` are their content addresses (the
    result-cache keys).  ``ttl`` is the lease's heartbeat deadline in
    seconds — miss it and the coordinator re-grants the shard.
    """

    TYPE = "grant"
    campaign: str = ""
    shard: str = ""
    index: int = 0
    start: int = 0
    stop: int = 0
    kind: str = "sweep"
    cells: List[Dict[str, Any]] = field(default_factory=list)
    cell_keys: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    ttl: float = 60.0


@dataclass(frozen=True)
class NoWork(Message):
    """No shard is currently grantable.

    ``active`` counts registered campaigns with unfinished shards (all
    currently leased to other workers); ``drained`` is true when every
    registered campaign is complete — a ``--once`` worker exits on it.
    ``quarantined`` is true when *this worker* has been quarantined by
    the coordinator's verification spot-check: it will never be granted
    work again and should exit.
    """

    TYPE = "no_work"
    active: int = 0
    drained: bool = True
    quarantined: bool = False


@dataclass(frozen=True)
class CellResult(Message):
    """One executed (or cache-served) cell, streamed as it finishes.

    ``owner`` names the streaming worker so the coordinator can drop
    frames from quarantined workers without failing their connection.
    """

    TYPE = "cell_result"
    campaign: str = ""
    shard: str = ""
    #: Position in the campaign's cell list (not shard-relative).
    pos: int = 0
    doc: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    wall_ns: int = 0
    owner: str = ""


@dataclass(frozen=True)
class CellOk(Message):
    TYPE = "cell_ok"


@dataclass(frozen=True)
class ShardDone(Message):
    """Every cell of the shard has been streamed; commit the manifest."""

    TYPE = "shard_done"
    campaign: str = ""
    shard: str = ""
    owner: str = ""
    shard_wall_ns: int = 0


@dataclass(frozen=True)
class ShardOk(Message):
    """``accepted=False`` + ``reason`` when the coordinator is missing
    cells (e.g. it restarted mid-stream); the worker re-streams them.
    ``quarantined=True`` means the shard failed the coordinator's
    verification spot-check — it was re-queued for another worker and
    this worker must *not* retry it."""

    TYPE = "shard_ok"
    accepted: bool = True
    reason: str = ""
    quarantined: bool = False


@dataclass(frozen=True)
class Heartbeat(Message):
    TYPE = "heartbeat"
    owner: str = ""
    campaign: str = ""
    shard: str = ""


@dataclass(frozen=True)
class HeartbeatOk(Message):
    """``valid=False`` means the lease was lost (TTL expiry + re-grant);
    the worker may keep executing — double execution is harmless."""

    TYPE = "heartbeat_ok"
    valid: bool = True


# ----------------------------------------------------------------------
# Telemetry relay (PR 7 fabric over the wire)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Telemetry(Message):
    """One ``repro-telemetry`` record, relayed verbatim.

    The coordinator appends it to the campaign's ``telemetry/`` stream,
    so ``repro-mc2 status``/``top`` on the serve root see remote workers
    exactly like local ones.
    """

    TYPE = "telemetry"
    campaign: str = ""
    owner: str = ""
    record: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TelemetryOk(Message):
    TYPE = "telemetry_ok"


# ----------------------------------------------------------------------
# Inspection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobsRequest(Message):
    """List the campaigns.  With ``wait_for`` (a campaign key) and
    ``wait_s > 0`` the reply is held until that campaign is complete."""

    TYPE = "jobs"
    wait_for: str = ""
    wait_s: float = 0.0


@dataclass(frozen=True)
class JobsReply(Message):
    """Per-campaign progress: list of ``{key, kind, cells, shards,
    shards_done, leased, merged}`` documents, sorted by key."""

    TYPE = "jobs_ok"
    campaigns: List[Dict[str, Any]] = field(default_factory=list)


@dataclass(frozen=True)
class StatusRequest(Message):
    TYPE = "status"


@dataclass(frozen=True)
class StatusReply(Message):
    """Fleet status rendered server-side from the campaign directories:
    ``aggregate`` is the deterministic telemetry aggregate document,
    ``text`` the human dashboard (one block per campaign)."""

    TYPE = "status_ok"
    aggregate: Dict[str, Any] = field(default_factory=dict)
    text: str = ""


@dataclass(frozen=True)
class FetchRequest(Message):
    """Fetch a completed campaign's per-cell results.

    The only streaming reply: ``fetch_cell`` per cell (campaign order),
    closed by ``fetch_done``.  An ``error`` reply means the campaign is
    unknown or incomplete.
    """

    TYPE = "fetch"
    campaign: str = ""


@dataclass(frozen=True)
class FetchCell(Message):
    TYPE = "fetch_cell"
    pos: int = 0
    doc: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    wall_ns: int = 0


@dataclass(frozen=True)
class FetchDone(Message):
    """Closes a fetch stream.  ``manifest`` carries the campaign's
    ``repro-provenance`` document (empty dict when the merge predates
    provenance), so a fetching client receives the attestation alongside
    the results."""

    TYPE = "fetch_done"
    cells: int = 0
    manifest: Dict[str, Any] = field(default_factory=dict)


#: type tag -> message class (the v1 vocabulary, frozen by the property
#: tests: every entry must round-trip through encode/decode).
MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.TYPE: cls
    for cls in (
        Hello, HelloOk, ErrorReply,
        Submit, SubmitOk,
        LeaseRequest, LeaseGrant, NoWork,
        CellResult, CellOk, ShardDone, ShardOk,
        Heartbeat, HeartbeatOk,
        Telemetry, TelemetryOk,
        JobsRequest, JobsReply,
        StatusRequest, StatusReply,
        FetchRequest, FetchCell, FetchDone,
    )
}


def encode_message(msg: Message) -> bytes:
    """One wire frame: canonical JSON object + ``"\\n"``."""
    doc = codec.encode(msg)
    doc["type"] = msg.TYPE
    return (canonical_json(doc) + "\n").encode("utf-8")


def decode_message(line: Union[str, bytes]) -> Message:
    """Decode one complete line into its message.

    Unknown *fields* are dropped (forward compatibility); an unknown
    *type*, a non-object payload, or a field of the wrong JSON type
    raises :class:`ProtocolError` naming the field.
    """
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"frame is not valid JSON: {line[:80]!r}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(f"frame is not a JSON object: {line[:80]!r}")
    tag = doc.get("type")
    cls = MESSAGE_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ProtocolError(f"unknown message type {tag!r}")
    return codec.decode(cls, doc, error=ProtocolError)


class LineDecoder:
    """Incremental frame decoder: bytes in, complete messages out.

    Feed it whatever the socket produced — including reads torn in the
    middle of a frame — and it yields each message exactly once, in
    order.  The unterminated tail stays buffered until its newline
    arrives; :attr:`pending` exposes the buffered byte count (a clean
    shutdown should end with 0).  :meth:`lines` yields the frames
    undecoded, for a receiver that answers a bad frame and reads on.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending(self) -> int:
        return len(self._buf)

    def lines(self, data: bytes) -> Iterator[bytes]:
        """The complete, non-blank frames buffered so far, each consumed
        as it is yielded."""
        self._buf.extend(data)
        while True:
            nl = self._buf.find(b"\n")
            if nl < 0:
                return
            line = bytes(self._buf[:nl])
            del self._buf[: nl + 1]
            if line.strip():
                yield line

    def feed(self, data: bytes) -> Iterator[Message]:
        for line in self.lines(data):
            yield decode_message(line)


def split_host_port(addr: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``host:port`` (or bare ``port``) service addresses."""
    text = addr.strip()
    if ":" in text:
        host, _, port = text.rpartition(":")
        host = host.strip("[]") or default_host
    else:
        host, port = default_host, text
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"bad service address {addr!r} (want host:port)") from exc


def read_port_file(path: str, timeout: float = 10.0) -> int:
    """Poll *path* for the coordinator's bound port (written on startup)."""
    import time

    deadline = time.monotonic() + timeout
    while True:
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        if time.monotonic() >= deadline:
            raise TimeoutError(f"no port appeared in {path} within {timeout}s")
        time.sleep(0.05)
