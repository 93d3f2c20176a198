"""The ``repro-serve`` worker: lease, execute, stream, heartbeat, retry.

A worker is a thin synchronous client around the same cell executors the
file queue uses (:func:`repro.runtime.shard.get_kind`): it asks the
coordinator for a shard lease, reconstructs the granted cells from their
wire documents, executes them (with the usual spec-keyed
:class:`~repro.runtime.cache.ResultCache` for sweep cells), then streams
one ``cell_result`` per cell followed by ``shard_done``.  A daemon
thread heartbeats the active lease every ``ttl/3`` seconds.  A lease
request asks the coordinator to hold its answer until a shard can be
granted (or, for a ``once`` worker, the fabric is drained), so an idle
worker never sleeps or polls: it asks again as soon as an answer says
there is nothing to do.

Failure handling is deliberately dumb because cells are deterministic:

* **connection lost** (coordinator restart, network partition) — the
  worker reconnects with exponential backoff plus jitter, re-executes
  the shard it was holding if needed, and re-streams *everything*; the
  coordinator's buffers are last-write-wins over identical bytes, so
  duplicate delivery is harmless;
* **lease lost** (heartbeat returns ``valid=False`` after a TTL expiry)
  — the worker finishes anyway; at ``shard_done`` the coordinator
  either accepts the manifest or reports the shard already done, and
  either way the merged artifact is unchanged;
* **shard_done rejected** (coordinator restarted mid-stream and its
  journal predates some cells) — the worker re-streams the full shard
  and retries.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.cache import ResultCache
from repro.runtime.shard import get_kind
from repro.serve import protocol as wire

__all__ = ["WorkerClient", "run_worker"]


class _ConnectionLost(Exception):
    """The coordinator socket died; reconnect and resume idempotently."""


class _Connection:
    """One TCP connection speaking strict request/reply under a lock."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.decoder = wire.LineDecoder()
        self.lock = threading.Lock()

    def rpc(self, msg: wire.Message) -> wire.Message:
        with self.lock:
            try:
                self.sock.sendall(wire.encode_message(msg))
                while True:
                    # Drain frames a previous call left buffered before
                    # touching the socket (feed() is lazy).
                    for reply in self.decoder.feed(b""):
                        return reply
                    data = self.sock.recv(65536)
                    if not data:
                        raise _ConnectionLost("coordinator closed the connection")
                    for reply in self.decoder.feed(data):
                        return reply
            except (OSError, wire.ProtocolError) as exc:
                raise _ConnectionLost(str(exc)) from exc

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class WorkerClient:
    """Lease/execute/stream loop against one coordinator address."""

    def __init__(
        self,
        addr: str,
        owner: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        telemetry: bool = False,
        once: bool = False,
        backoff_base_s: float = 0.5,
        backoff_max_s: float = 30.0,
        max_done_retries: int = 5,
        rng: Optional[random.Random] = None,
        log=print,
    ) -> None:
        import os

        self.host, self.port = wire.split_host_port(addr)
        self.owner = owner or f"{os.uname().nodename}:{os.getpid()}"
        self.cache = cache
        self.telemetry = telemetry
        self.once = once
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.max_done_retries = max_done_retries
        self.rng = rng or random.Random()
        self.log = log
        self.shards_done = 0
        self.cells_run = 0
        self.cache_hits = 0
        self._conn: Optional[_Connection] = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self) -> _Connection:
        conn = _Connection(self.host, self.port)
        reply = conn.rpc(wire.Hello(role="worker", owner=self.owner))
        if isinstance(reply, wire.ErrorReply):
            conn.close()
            raise wire.ProtocolError(reply.reason)
        if not isinstance(reply, wire.HelloOk):
            conn.close()
            raise wire.ProtocolError(f"bad hello reply: {reply.TYPE}")
        return conn

    def _ensure_conn(self) -> _Connection:
        if self._conn is None:
            self._conn = self._connect()
        return self._conn

    def _drop_conn(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter, capped."""
        cap = min(self.backoff_max_s, self.backoff_base_s * (2.0**attempt))
        return self.rng.uniform(0.0, cap)

    # ------------------------------------------------------------------
    # Shard execution
    # ------------------------------------------------------------------
    def _execute_grant(
        self, grant: wire.LeaseGrant
    ) -> List[Tuple[int, Dict[str, Any], bool, int]]:
        """Run every granted cell; returns (pos, doc, cached, wall_ns) rows.

        The grant is one task-set sharing scope; the per-cell loop is
        the file queue's (:func:`repro.runtime.shard.get_kind`).
        """
        kind = get_kind(grant.kind)
        cells = [kind.cell_from_dict(dict(doc)) for doc in grant.cells]
        keys = list(grant.cell_keys[: len(cells)])
        keys += [""] * (len(cells) - len(keys))
        rows: List[Tuple[int, Dict[str, Any], bool, int]] = []
        writer = self._telemetry_writer(grant)
        try:
            for result, was_cached, wall_ns in kind.run_cells(cells, keys, self.cache):
                rows.append(
                    (grant.start + len(rows), kind.result_to_dict(result), was_cached, wall_ns)
                )
                if was_cached:
                    self.cache_hits += 1
                else:
                    self.cells_run += 1
                if writer is not None:
                    writer.cell_done(was_cached, events=result.events, wall_ns=wall_ns)
        finally:
            if writer is not None:
                writer.close()
        return rows

    def _telemetry_writer(self, grant: wire.LeaseGrant):
        if not self.telemetry:
            return None
        from repro.obs.telemetry import TelemetryWriter

        def sink(line: str) -> None:
            # Best-effort relay; telemetry must never wedge execution.
            conn = self._conn
            if conn is None:
                return
            try:
                conn.rpc(wire.Telemetry(
                    campaign=grant.campaign, owner=self.owner,
                    record=json.loads(line),
                ))
            except (_ConnectionLost, ValueError):
                pass

        return TelemetryWriter(
            path=None,
            owner=self.owner,
            campaign=grant.campaign,
            backend="service",
            sink=sink,
        )

    def _stream_shard(
        self,
        grant: wire.LeaseGrant,
        rows: List[Tuple[int, Dict[str, Any], bool, int]],
        shard_wall_ns: int,
    ) -> bool:
        """Deliver every cell then commit; retries handle rejection.

        Returns ``True`` when the shard was committed, ``False`` when
        the coordinator quarantined it (terminal for this owner).
        """
        for attempt in range(self.max_done_retries):
            conn = self._ensure_conn()
            for pos, doc, cached, wall_ns in rows:
                reply = conn.rpc(wire.CellResult(
                    campaign=grant.campaign, shard=grant.shard, pos=pos,
                    doc=doc, cached=cached, wall_ns=wall_ns,
                    owner=self.owner,
                ))
                if isinstance(reply, wire.ErrorReply):
                    raise wire.ProtocolError(reply.reason)
            reply = conn.rpc(wire.ShardDone(
                campaign=grant.campaign, shard=grant.shard,
                owner=self.owner, shard_wall_ns=shard_wall_ns,
            ))
            if isinstance(reply, wire.ShardOk) and reply.accepted:
                return True
            if isinstance(reply, wire.ShardOk) and reply.quarantined:
                # Terminal: the coordinator's spot-check rejected the
                # shard and barred this owner.  Retrying can never
                # succeed; the next lease request learns the verdict.
                self.log(f"[{self.owner}] shard {grant.shard[:12]} "
                         f"quarantined: {reply.reason}")
                return False
            if isinstance(reply, wire.ErrorReply):
                raise wire.ProtocolError(reply.reason)
            reason = getattr(reply, "reason", "")
            self.log(f"[{self.owner}] shard_done rejected "
                     f"(attempt {attempt + 1}): {reason}; re-streaming")
        raise wire.ProtocolError(
            f"shard {grant.shard[:12]} rejected {self.max_done_retries} times"
        )

    def _heartbeat_loop(self, grant: wire.LeaseGrant, stop: threading.Event) -> None:
        period = wire.heartbeat_period(grant.ttl)
        while not stop.wait(period):
            conn = self._conn
            if conn is None:
                return
            try:
                reply = conn.rpc(wire.Heartbeat(
                    owner=self.owner, campaign=grant.campaign, shard=grant.shard,
                ))
            except _ConnectionLost:
                return  # the main loop will notice and reconnect
            if isinstance(reply, wire.HeartbeatOk) and not reply.valid:
                # Lease expired or was re-granted.  Keep executing: the
                # cells are deterministic, so finishing costs at most a
                # redundant (byte-identical) delivery.
                return

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _work_one_grant(self, grant: wire.LeaseGrant) -> None:
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(grant, stop), daemon=True
        )
        beat.start()
        try:
            t0 = time.perf_counter_ns()
            rows = self._execute_grant(grant)
            shard_wall_ns = time.perf_counter_ns() - t0
        finally:
            stop.set()
        beat.join(timeout=5.0)
        # Delivery happens outside the heartbeat so a reconnect during
        # streaming never races the beat thread for the fresh socket.
        while True:
            try:
                committed = self._stream_shard(grant, rows, shard_wall_ns)
                break
            except _ConnectionLost as exc:
                self._drop_conn()
                self._reconnect_with_backoff(f"delivery interrupted: {exc}")
        if committed:
            self.shards_done += 1

    def _reconnect_with_backoff(self, why: str) -> None:
        attempt = 0
        while True:
            delay = self._backoff(attempt)
            self.log(f"[{self.owner}] {why}; reconnecting in {delay:.2f}s")
            time.sleep(delay)
            try:
                self._conn = self._connect()
                return
            except (OSError, _ConnectionLost, wire.ProtocolError) as exc:
                why = f"reconnect failed: {exc}"
                attempt += 1

    def run(self) -> int:
        """Lease/execute/stream until drained (``once``) or interrupted."""
        self.log(f"[{self.owner}] worker connecting to {self.host}:{self.port}")
        while True:
            try:
                conn = self._ensure_conn()
                reply = conn.rpc(wire.LeaseRequest(
                    owner=self.owner, wait_s=wire.MAX_WAIT_S, once=self.once,
                ))
            except _ConnectionLost as exc:
                self._drop_conn()
                self._reconnect_with_backoff(str(exc))
                continue
            if isinstance(reply, wire.LeaseGrant):
                self.log(f"[{self.owner}] leased shard {reply.shard[:12]} "
                         f"({reply.cells and len(reply.cells)} cells, "
                         f"kind={reply.kind})")
                self._work_one_grant(reply)
                continue
            if isinstance(reply, wire.NoWork):
                if reply.quarantined:
                    self.log(f"[{self.owner}] quarantined by the coordinator "
                             "(verification spot-check failed); exiting")
                    return 3
                if self.once and reply.drained:
                    self.log(f"[{self.owner}] drained: shards={self.shards_done} "
                             f"cells={self.cells_run} hits={self.cache_hits}")
                    return 0
                continue  # the coordinator waited as long as it may
            if isinstance(reply, wire.ErrorReply):
                self.log(f"[{self.owner}] coordinator error: {reply.reason}")
                return 1
            self.log(f"[{self.owner}] unexpected reply {reply.TYPE!r}")
            return 1


def run_worker(addr: str, **kwargs: Any) -> int:
    """CLI body for ``repro-mc2 worker``; returns an exit code."""
    client = WorkerClient(addr, **kwargs)
    try:
        return client.run()
    except KeyboardInterrupt:
        return 0
    finally:
        client._drop_conn()
