"""The ``repro-serve`` worker: lease, execute, deliver, heartbeat, retry.

A worker is a thin synchronous client around the file queue's shard
body (:func:`repro.runtime.shard.run_shard`): it asks the coordinator
for a shard lease, reconstructs the granted cells from their wire
documents, executes them (with the usual spec-keyed
:class:`~repro.runtime.cache.ResultCache` for sweep cells), then sends
the shard's manifest columns in one ``shard_done`` frame.  A daemon
thread heartbeats the active lease every ``ttl/3`` seconds.  A lease
request asks the coordinator to hold its answer until a shard can be
granted (or, for a ``once`` worker, the fabric is drained), so an idle
worker never sleeps or polls: it asks again as soon as an answer says
there is nothing to do.

Failure handling is deliberately dumb because cells are deterministic:

* **connection lost** (coordinator restart, network partition) — the
  worker reconnects with exponential backoff plus jitter and sends the
  same ``shard_done`` frame again; a shard commits as one manifest, so
  a frame that did arrive is acknowledged as already done;
* **lease lost** (heartbeat returns ``valid=False`` after a TTL expiry)
  — the worker finishes anyway; at ``shard_done`` the coordinator
  either commits the manifest or reports the shard already done, and
  either way the merged artifact is unchanged.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Any, Optional

from repro.runtime.cache import ResultCache
from repro.runtime.shard import ShardColumns, get_kind, run_shard
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
    """Lease/execute/deliver loop against one coordinator address."""

    def __init__(
        self,
        addr: str,
        owner: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        telemetry: bool = False,
        once: bool = False,
        backoff_base_s: float = 0.5,
        backoff_max_s: float = 30.0,
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
    def _execute_grant(self, grant: wire.LeaseGrant) -> ShardColumns:
        """Run every granted cell; returns the shard's manifest columns.

        The grant is one sharing scope, run by the file queue's
        shard body (:func:`repro.runtime.shard.run_shard`).
        """
        kind = get_kind(grant.kind)
        cells = [kind.cell_from_dict(dict(doc)) for doc in grant.cells]
        keys = list(grant.cell_keys[: len(cells)])
        keys += [""] * (len(cells) - len(keys))
        writer = self._telemetry_writer(grant)
        try:
            columns = run_shard(kind, cells, keys, self.cache, telemetry=writer)
        finally:
            if writer is not None:
                writer.close()
        hits = sum(columns.cached)
        self.cache_hits += hits
        self.cells_run += len(cells) - hits
        return columns

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
        self, grant: wire.LeaseGrant, columns: ShardColumns, shard_wall_ns: int
    ) -> bool:
        """Send the finished shard in one ``shard_done`` frame.

        Returns ``True`` when the shard is committed, ``False`` when the
        coordinator quarantined it (terminal for this owner).
        """
        reply = self._ensure_conn().rpc(wire.ShardDone(
            campaign=grant.campaign, shard=grant.shard, owner=self.owner,
            results=columns.results, cached=columns.cached,
            wall_ns=columns.wall_ns, shard_wall_ns=shard_wall_ns,
        ))
        if isinstance(reply, wire.ShardOk) and reply.accepted:
            return True
        if isinstance(reply, wire.ShardOk) and reply.quarantined:
            # Terminal: the coordinator's spot-check rejected the shard
            # and barred this owner.  Re-sending can never succeed; the
            # next lease request learns the verdict.
            self.log(f"[{self.owner}] shard {grant.shard[:12]} "
                     f"quarantined: {reply.reason}")
            return False
        raise wire.ProtocolError(
            getattr(reply, "reason", "") or f"unexpected reply {reply.TYPE!r}"
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
            columns = self._execute_grant(grant)
            shard_wall_ns = time.perf_counter_ns() - t0
        finally:
            stop.set()
        beat.join(timeout=5.0)
        # Delivery happens outside the heartbeat so a reconnect never
        # races the beat thread for the fresh socket.  A restarted
        # coordinator gets the same frame again.
        while True:
            try:
                committed = self._stream_shard(grant, columns, shard_wall_ns)
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
        """Lease/execute/deliver until drained (``once``) or interrupted.

        The coordinator connection is closed on every way out.
        """
        self.log(f"[{self.owner}] worker connecting to {self.host}:{self.port}")
        try:
            return self._serve()
        finally:
            self._drop_conn()

    def _serve(self) -> int:
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
    try:
        return WorkerClient(addr, **kwargs).run()
    except KeyboardInterrupt:
        return 0
