"""Distributed campaign service: coordinator/worker fabric (``repro-serve``).

The file-based shard queue (:mod:`repro.runtime.shard`) coordinates
workers through a shared directory; this package promotes it into a
long-running client/server fabric for multi-machine campaigns:

* :mod:`repro.serve.protocol` — the versioned, line-delimited JSON wire
  protocol (``repro-serve`` v2);
* :mod:`repro.serve.coordinator` — the asyncio coordinator service: it
  owns the campaign directories, grants shard leases, and commits each
  delivered shard as the file queue does, as one atomic manifest that
  the same streaming merge reads — so merged artifacts stay
  byte-identical to an uninterrupted serial run;
* :mod:`repro.serve.worker` — the thin synchronous worker client:
  lease, run the shard through the file queue's shard body, deliver it
  in one frame, heartbeat, retry with backoff;
* :mod:`repro.serve.client` — the submit/inspect client plus
  :class:`~repro.serve.client.ServiceBackend`, the
  :class:`~repro.runtime.executor.SweepExecutor` that routes ``run()``
  through a coordinator (``make_executor(service_addr=...)``).
"""

from repro.serve.protocol import PROTOCOL_FORMAT, PROTOCOL_VERSION

__all__ = ["PROTOCOL_FORMAT", "PROTOCOL_VERSION"]
