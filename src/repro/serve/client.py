"""Client side of ``repro-serve``: submit/inspect plus the executor bridge.

:class:`ServiceClient` is the small synchronous client the CLI uses
(``repro-mc2 submit | jobs | status --service``): connect, handshake,
one request and its one reply per call, reconnect with exponential
backoff plus jitter on connection loss — every request it issues is
idempotent, so a retry after a partition is always safe.

:class:`ServiceBackend` plugs the service into the executor seam
(``make_executor(service_addr=...)``): ``run(specs)`` becomes *submit a
content-addressed sweep campaign, wait for the fabric to drain it,
fetch the merged cells*.  Because campaign keys are content-addressed,
re-running the same grid against a warm coordinator is a pure fetch —
the distributed twin of a fully warmed local cache.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.executor import SweepExecutor
from repro.serve import protocol as wire

__all__ = ["ServiceClient", "ServiceBackend"]


class ServiceClient:
    """Synchronous request/reply client for one coordinator address."""

    def __init__(
        self,
        addr: str,
        timeout_s: float = 30.0,
        retries: int = 5,
        backoff_base_s: float = 0.2,
        backoff_max_s: float = 5.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host, self.port = wire.split_host_port(addr)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.rng = rng or random.Random()
        self._sock: Optional[socket.socket] = None
        self._decoder = wire.LineDecoder()

    # -- connection -----------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        self._decoder = wire.LineDecoder()
        self._send(wire.Hello(role="client"))
        reply = self._recv()
        if isinstance(reply, wire.ErrorReply):
            raise wire.ProtocolError(reply.reason)
        if not isinstance(reply, wire.HelloOk):
            raise wire.ProtocolError(f"bad hello reply: {reply.TYPE}")

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _send(self, msg: wire.Message) -> None:
        assert self._sock is not None
        self._sock.sendall(wire.encode_message(msg))

    def _recv(self) -> wire.Message:
        assert self._sock is not None
        while True:
            # feed() is lazy: frames a previous caller left buffered
            # surface on an empty feed before touching the socket.
            for msg in self._decoder.feed(b""):
                return msg
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("coordinator closed the connection")
            for msg in self._decoder.feed(data):
                return msg

    def _rpc(self, msg: wire.Message) -> wire.Message:
        """Send *msg*; return its one reply.

        Every ``repro-serve`` request is idempotent, so connection
        failures are retried from scratch with backoff + jitter.
        """
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                if self._sock is None:
                    self._connect()
                self._send(msg)
                return self._recv()
            except (OSError, ConnectionError, wire.ProtocolError) as exc:
                last = exc
                self.close()
                if attempt < self.retries:
                    cap = min(self.backoff_max_s,
                              self.backoff_base_s * (2.0**attempt))
                    time.sleep(self.rng.uniform(0.0, cap))
        raise ConnectionError(
            f"coordinator {self.host}:{self.port} unreachable "
            f"after {self.retries + 1} attempts: {last}"
        )

    def _call(self, msg: wire.Message, want) -> Any:
        """:meth:`_rpc`, then check that the reply is a *want*."""
        reply = self._rpc(msg)
        if isinstance(reply, wire.ErrorReply):
            raise wire.ProtocolError(reply.reason)
        if not isinstance(reply, want):
            raise wire.ProtocolError(
                f"expected {want.TYPE}, got {reply.TYPE}"
            )
        return reply

    # -- requests -------------------------------------------------------
    def submit(self, campaign_doc: Dict[str, Any]) -> wire.SubmitOk:
        """Register a campaign document (``ShardedCampaign.to_dict()``)."""
        return self._call(wire.Submit(campaign=campaign_doc), wire.SubmitOk)

    def jobs(self) -> List[Dict[str, Any]]:
        return list(self._call(wire.JobsRequest(), wire.JobsReply).campaigns)

    def status(self) -> wire.StatusReply:
        return self._call(wire.StatusRequest(), wire.StatusReply)

    def fetch(self, campaign_key: str) -> List[Tuple[Dict[str, Any], bool, int]]:
        """All merged cells of a complete campaign, in cell order."""
        done = self._call(wire.FetchRequest(campaign=campaign_key), wire.FetchDone)
        if not len(done.results) == len(done.cached) == len(done.wall_ns):
            raise wire.ProtocolError(
                f"fetch columns disagree: {len(done.results)} results, "
                f"{len(done.cached)} cached, {len(done.wall_ns)} wall_ns"
            )
        return list(zip(done.results, done.cached, done.wall_ns))

    def wait(
        self, campaign_key: str, timeout_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block until *campaign_key* has every shard done; returns its row.

        Each ``jobs`` request asks the coordinator to hold its reply
        until the campaign is complete, for at most
        :data:`~repro.serve.protocol.MAX_WAIT_S`, half the socket
        timeout, or what is left of *timeout_s*; the row arrives with
        the final commit.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            wait_s = min(wire.MAX_WAIT_S, self.timeout_s / 2.0)
            if deadline is not None:
                wait_s = min(wait_s, max(0.0, deadline - time.monotonic()))
            request = wire.JobsRequest(wait_for=campaign_key, wait_s=wait_s)
            reply = self._call(request, wire.JobsReply)
            for row in reply.campaigns:
                if row["key"] == campaign_key and row["shards_done"] == row["shards"]:
                    return row
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {campaign_key[:12]} incomplete after {timeout_s}s"
                )


class ServiceBackend(SweepExecutor):
    """A :class:`~repro.runtime.executor.SweepExecutor` routed through a
    coordinator.

    ``_execute`` (the executor seam for cache misses) becomes
    submit → wait → fetch: specs are wrapped into a content-addressed
    ``"sweep"`` campaign, the coordinator's workers drain it, and the
    merged cells come back in spec order.  The local front-end cache,
    report, and stats machinery of the base class apply unchanged, so
    ``sweep --service HOST:PORT`` behaves exactly like any other
    backend — same artifacts, different execution substrate.
    """

    def __init__(
        self,
        addr: str,
        shard_size: int = 16,
        timeout_s: Optional[float] = None,
        cache=None,
        metrics=None,
        progress=None,
        client: Optional[ServiceClient] = None,
    ) -> None:
        super().__init__(cache=cache, metrics=metrics, progress=progress)
        self.addr = addr
        self.shard_size = shard_size
        self.timeout_s = timeout_s
        self.client = client or ServiceClient(addr)

    def close(self) -> None:
        """Close the coordinator connection; a later :meth:`run` reconnects."""
        self.client.close()

    def _execute(self, specs: Sequence[Any]) -> List[Tuple[Any, int]]:
        from repro.io.results_json import run_result_from_dict
        from repro.runtime.shard import ShardedCampaign

        campaign = ShardedCampaign("sweep", list(specs), shard_size=self.shard_size)
        self.client.submit(campaign.to_dict())
        self.client.wait(campaign.campaign_key, timeout_s=self.timeout_s)
        out: List[Tuple[Any, int]] = []
        for doc, _cached, wall_ns in self.client.fetch(campaign.campaign_key):
            out.append((run_result_from_dict(doc), wall_ns))
            self._cell_finished(wall_ns)
        return out
