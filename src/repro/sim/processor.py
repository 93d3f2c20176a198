"""Per-CPU run state.

A :class:`Processor` tracks which job currently occupies the CPU and
since when, so the kernel can charge elapsed execution on every event
("advance"), and the trace can record contiguous execution intervals.

Accounting is **anchor-based**: when a job is assigned, the processor
records ``(anchor_time, anchor_remaining)`` and every subsequent
:meth:`advance` recomputes ``remaining = anchor_remaining - (now -
anchor_time)`` from that fixed pair, rather than decrementing the
remaining demand step by step.  Two properties follow:

* **No drift accumulation.**  A job advanced at every intermediate event
  and a job advanced once at the end produce bit-identical ``remaining``
  values — the error is bounded by one subtraction's round-off instead
  of growing with the number of events.  This is what lets the
  kernel advance only the processors an event actually touches while
  staying bit-identical to advancing every processor at every event.
* **Idempotence.**  ``advance(now)`` twice at the same instant is a
  no-op, so shared code paths may advance defensively.
"""

from __future__ import annotations

from typing import Optional

from repro.model.job import Job

__all__ = ["Processor"]


class Processor:
    """One identical unit-speed CPU."""

    def __init__(self, cpu_id: int) -> None:
        self.cpu_id = cpu_id
        #: The job currently executing here, if any.
        self.current: Optional[Job] = None
        #: When the current job last started/resumed/was advanced here.
        self.since: float = 0.0
        #: Accounting anchor: time the current job was installed ...
        self._anchor_time: float = 0.0
        #: ... and its remaining demand at that instant.
        self._anchor_remaining: float = 0.0

    @property
    def is_idle(self) -> bool:
        """Whether no job occupies this CPU."""
        return self.current is None

    def remaining_at(self, now: float) -> float:
        """The current job's remaining demand at *now*, without mutating.

        Exactly the value :meth:`advance` would store — the kernel's
        same-instant completion scan uses this to find exhausted jobs
        without advancing untouched processors.  Raises
        :class:`ValueError` if the CPU is idle.
        """
        if self.current is None:
            raise ValueError(f"cpu {self.cpu_id} is idle")
        return max(0.0, self._anchor_remaining - (now - self._anchor_time))

    def advance(self, now: float) -> float:
        """Charge execution up to *now*; return the amount charged.

        Sets the running job's remaining execution from the assignment
        anchor and moves the accounting point to *now*.  Idle CPUs charge
        nothing.  Idempotent: advancing twice to the same *now* changes
        nothing.
        """
        if self.current is None:
            self.since = now
            return 0.0
        elapsed = now - self.since
        if elapsed < 0:
            raise ValueError(
                f"cpu {self.cpu_id}: advance to {now} precedes accounting point {self.since}"
            )
        if elapsed:
            # Recompute from the anchor (not an incremental decrement):
            # clamped at zero because the elapsed time equals the
            # remaining work at a completion event up to float round-off.
            self.current.remaining = max(
                0.0, self._anchor_remaining - (now - self._anchor_time)
            )
        self.since = now
        return elapsed

    def assign(self, job: Optional[Job], now: float) -> None:
        """Install *job* (or idle the CPU) with accounting from *now*."""
        self.current = job
        self.since = now
        self._anchor_time = now
        self._anchor_remaining = job.remaining if job is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - formatting only
        what = self.current.label if self.current else "idle"
        return f"Processor({self.cpu_id}: {what} since {self.since})"
