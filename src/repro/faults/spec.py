"""Fault specifications and plans.

Every fault is a small frozen dataclass describing *one* environment
degradation over a time window; a :class:`FaultPlan` is an ordered
tuple of faults plus a seed for the plan's own randomness (spike/jitter
coin flips, skew draws).  Plans serialize to canonical JSON — sorted
keys, compact separators, ``allow_nan=False`` — exactly like
:mod:`repro.io.runspec_json`, so :meth:`FaultPlan.key` is a stable
sha256 identity and campaign cells cache like any other sweep cell.

Fault model (all windows are half-open ``[start, end)`` in actual
simulation time):

===================  =================================================
:class:`MonitorOutage`      monitor notifications dropped or queued
:class:`SpeedCommandDelay`  Algorithm-1 speed writes arrive late
:class:`SpeedCommandDrop`   Algorithm-1 speed writes never arrive
:class:`ClockSkew`          bounded non-negative jitter on clock reads
:class:`ExecutionSpike`     extra demand beyond the scenario's PWCETs
:class:`ReleaseJitter`      release timers fire late
:class:`CpuStall`           a processor contributes no supply
===================  =================================================

Randomness is derived per-decision from string-seeded
``random.Random`` instances (CPython seeds str via SHA-512), never from
the builtin ``hash`` — results are identical across processes and
therefore across serial and process-pool campaign backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Annotated, Any, Dict, Tuple, Union

from repro.io import codec
from repro.io.canonical import canonical_json

__all__ = [
    "FAULT_PLAN_FORMAT",
    "FAULT_PLAN_VERSION",
    "MonitorOutage",
    "SpeedCommandDelay",
    "SpeedCommandDrop",
    "ClockSkew",
    "ExecutionSpike",
    "ReleaseJitter",
    "CpuStall",
    "FaultSpec",
    "FaultPlan",
    "fault_to_dict",
    "fault_from_dict",
    "unit_rand",
    "random_plan",
]

FAULT_PLAN_FORMAT = "repro-faultplan"
FAULT_PLAN_VERSION = 1


def unit_rand(seed: int, *parts: Any) -> float:
    """A deterministic draw in ``[0, 1)`` keyed by *seed* and *parts*.

    String seeding keeps the draw identical across processes (the
    builtin ``hash`` is salted per interpreter and must not be used).
    """
    key = f"{seed}|" + "|".join(repr(p) for p in parts)
    return random.Random(key).random()


def _check_window(start: float, end: float) -> None:
    if not (start >= 0.0):
        raise ValueError(f"fault window start must be >= 0, got {start}")
    if not (end > start):
        raise ValueError(f"fault window must satisfy end > start, got [{start}, {end})")


@codec.document(strict=True)
class _Fault:
    """Base of the seven faults: their documents refuse unknown fields."""


@dataclass(frozen=True)
class MonitorOutage(_Fault):
    """Monitor notifications are dropped or queued during the window.

    ``mode="drop"`` loses release/completion notifications outright (the
    monitor's pending estimate goes stale); ``mode="queue"`` buffers
    them and delivers the backlog, in order, at the window end.
    """

    start: float
    end: float
    mode: str = "drop"

    kind = "monitor_outage"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if self.mode not in ("drop", "queue"):
            raise ValueError(f"MonitorOutage.mode must be 'drop' or 'queue', got {self.mode!r}")


@dataclass(frozen=True)
class SpeedCommandDelay(_Fault):
    """Speed commands issued in the window take effect *delay* late."""

    start: float
    end: float
    delay: float

    kind = "speed_command_delay"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not (self.delay > 0.0):
            raise ValueError(f"SpeedCommandDelay.delay must be > 0, got {self.delay}")


@dataclass(frozen=True)
class SpeedCommandDrop(_Fault):
    """Speed commands issued in the window never reach the clock."""

    start: float
    end: float

    kind = "speed_command_drop"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class ClockSkew(_Fault):
    """Virtual-to-actual clock reads in the window come back up to
    *magnitude* late.

    The jitter is non-negative (timers fire late, never early) so the
    SVO early-release guard stays satisfiable; monotonicity of virtual
    time is untouched because the actual→virtual direction is exact.
    """

    start: float
    end: float
    magnitude: float

    kind = "clock_skew"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not (self.magnitude > 0.0):
            raise ValueError(f"ClockSkew.magnitude must be > 0, got {self.magnitude}")


@dataclass(frozen=True)
class ExecutionSpike(_Fault):
    """Jobs released in the window demand *factor*× their scenario
    execution time (extra demand beyond the PWCETs; budgets do not clip
    it).  ``prob`` spikes each job independently."""

    start: float
    end: float
    factor: float
    prob: float = 1.0
    level: str = "C"

    kind = "execution_spike"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not (self.factor > 1.0):
            raise ValueError(f"ExecutionSpike.factor must be > 1, got {self.factor}")
        if not (0.0 < self.prob <= 1.0):
            raise ValueError(f"ExecutionSpike.prob must be in (0, 1], got {self.prob}")
        if self.level not in ("A", "B", "C", "D"):
            raise ValueError(f"ExecutionSpike.level must be A/B/C/D, got {self.level!r}")


@dataclass(frozen=True)
class ReleaseJitter(_Fault):
    """Jobs nominally released in the window are released up to
    *magnitude* late (drawn per job; ``prob`` gates each job).

    Windows are tested against the *nominal* release ``phase + i*T`` —
    for level-C tasks under a slowed clock the realized release drifts
    later, so treat the window as approximate for level C.  Level A is
    exempt (the kernel never delays table-driven releases).
    """

    start: float
    end: float
    magnitude: float
    prob: float = 1.0

    kind = "release_jitter"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not (self.magnitude > 0.0):
            raise ValueError(f"ReleaseJitter.magnitude must be > 0, got {self.magnitude}")
        if not (0.0 < self.prob <= 1.0):
            raise ValueError(f"ReleaseJitter.prob must be in (0, 1], got {self.prob}")


@dataclass(frozen=True)
class CpuStall(_Fault):
    """Processor *cpu* contributes no supply during the window (modelled
    as a synthetic top-priority pinned job; see
    :data:`repro.faults.plane.FAULT_TASK_BASE_ID`)."""

    cpu: int
    start: float
    end: float

    kind = "cpu_stall"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if self.cpu < 0:
            raise ValueError(f"CpuStall.cpu must be >= 0, got {self.cpu}")


#: One fault; documents tell the kinds apart by their ``kind`` and refuse
#: unknown fields.
FaultSpec = Annotated[
    Union[MonitorOutage, SpeedCommandDelay, SpeedCommandDrop, ClockSkew,
          ExecutionSpike, ReleaseJitter, CpuStall],
    "fault",
]


def fault_to_dict(fault: FaultSpec) -> Dict[str, Any]:
    """Serialize one fault as ``{"kind": ..., **fields}``."""
    return codec.encode(fault, FaultSpec)


def fault_from_dict(doc: Dict[str, Any]) -> FaultSpec:
    """Inverse of :func:`fault_to_dict` (validates on construction)."""
    return codec.decode(FaultSpec, doc)


@codec.document(header=(FAULT_PLAN_FORMAT, FAULT_PLAN_VERSION), order=("seed", "faults"))
@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of faults plus the seed for their randomness."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def is_empty(self) -> bool:
        return not self.faults

    # -- canonical serialization -------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return codec.encode(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultPlan":
        return codec.decode(cls, doc)

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def key(self) -> str:
        """sha256 of the canonical JSON — the plan's cache identity."""
        return codec.key(self)

    # -- shrinker helpers --------------------------------------------
    def without(self, index: int) -> "FaultPlan":
        """A copy with fault *index* removed."""
        return FaultPlan(
            faults=self.faults[:index] + self.faults[index + 1 :], seed=self.seed
        )

    def replacing(self, index: int, fault: FaultSpec) -> "FaultPlan":
        """A copy with fault *index* substituted."""
        return FaultPlan(
            faults=self.faults[:index] + (fault,) + self.faults[index + 1 :],
            seed=self.seed,
        )


def random_plan(
    seed: int,
    m: int,
    anchor: float,
    horizon: float,
    max_faults: int = 3,
) -> FaultPlan:
    """A seeded random plan of 1..*max_faults* faults.

    Windows are placed around *anchor* (typically the scenario's last
    overload end, where recovery is in flight and faults bite) and kept
    inside ``[0, horizon)``.  The same seed always yields the same
    plan.
    """
    rng = random.Random(f"faultplan|{seed}")
    count = rng.randint(1, max(1, max_faults))
    faults = []
    for i in range(count):
        start = round(rng.uniform(0.0, max(anchor, 0.1)), 6)
        length = round(rng.uniform(0.05, max(0.1, anchor / 2)), 6)
        end = round(min(horizon, start + length), 6)
        if end <= start:
            end = round(start + 0.05, 6)
        pick = rng.randrange(7)
        if pick == 0:
            faults.append(MonitorOutage(start, end, mode=rng.choice(["drop", "queue"])))
        elif pick == 1:
            faults.append(SpeedCommandDelay(start, end, delay=round(rng.uniform(0.05, 0.5), 6)))
        elif pick == 2:
            faults.append(SpeedCommandDrop(start, end))
        elif pick == 3:
            faults.append(ClockSkew(start, end, magnitude=round(rng.uniform(0.001, 0.05), 6)))
        elif pick == 4:
            faults.append(
                ExecutionSpike(
                    start,
                    end,
                    factor=round(rng.uniform(1.5, 4.0), 6),
                    prob=round(rng.uniform(0.5, 1.0), 6),
                )
            )
        elif pick == 5:
            faults.append(
                ReleaseJitter(start, end, magnitude=round(rng.uniform(0.001, 0.02), 6))
            )
        else:
            faults.append(CpuStall(cpu=rng.randrange(m), start=start, end=end))
    return FaultPlan(faults=tuple(faults), seed=seed)


# Re-export for plan editing without importing dataclasses at call sites.
replace_fault = replace
