"""Tasks and criticality levels.

This module encodes the MC² task model of Sec. 2:

* Four criticality levels A (highest) through D (lowest); each task has a
  single criticality level.
* Each task has a *provisioned* WCET (PWCET) for each analysis level at or
  below its own criticality.  Level-``l`` schedulability analysis considers
  every task of criticality at or above ``l`` with its level-``l`` PWCET.
  In the paper's experiments a task's level-B PWCET is 10x and its level-A
  PWCET 20x its level-C PWCET.
* Level-A and level-B tasks are *partitioned*: each is pinned to one CPU
  (table-driven at A, EDF at B).  Level-C tasks are scheduled globally by a
  GEL/GEL-v scheduler and additionally carry a relative priority point
  ``Y_i`` (eq. 3/6) and a response-time tolerance ``xi_i`` (Def. 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Annotated, Mapping, Optional

from repro.io.codec import document
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["CriticalityLevel", "Task"]


class CriticalityLevel(enum.IntEnum):
    """MC² criticality levels, A (highest) through D (lowest).

    The integer values order levels by *decreasing* criticality, so
    ``CriticalityLevel.A < CriticalityLevel.C`` and "criticality at or
    above level C" is ``level <= CriticalityLevel.C``.
    """

    A = 0
    B = 1
    C = 2
    D = 3

    @property
    def is_hard(self) -> bool:
        """Whether the level carries hard real-time guarantees (A, B)."""
        return self in (CriticalityLevel.A, CriticalityLevel.B)

    def at_or_above(self, other: "CriticalityLevel") -> bool:
        """``True`` iff this level is at least as critical as *other*."""
        return self <= other


@document(omit_default=("relative_pp", "tolerance", "cpu", "phase", "name"))
@dataclass(frozen=True)
class Task:
    """A sporadic MC² task.

    Parameters
    ----------
    task_id:
        Unique non-negative identifier within a :class:`TaskSet`.  Also the
        final scheduling tie-break, so schedules are deterministic.
    level:
        The task's criticality level.
    period:
        ``T_i > 0``: minimum separation between consecutive releases.  For
        level-C tasks under the SVO model, this separation is measured in
        *virtual* time (eq. 5); for levels A/B it is actual time.
    pwcets:
        Mapping from analysis level to PWCET.  Must contain an entry for
        the task's own level; entries for lower-criticality analysis levels
        are optional but required by level-C analysis for A/B tasks.
        Level-D tasks are best-effort and may have an empty mapping.
    relative_pp:
        ``Y_i >= 0``, the relative priority point (level C only; eq. 3/6).
        ``None`` for other levels.
    tolerance:
        ``xi_i >= 0``, the response-time tolerance relative to the PP
        (Def. 1; level C only).  ``None`` means "not configured"; monitors
        require it for level-C tasks.
    cpu:
        Partition assignment for level-A/B tasks (required); must be
        ``None`` for level-C (global) and level-D tasks.
    phase:
        Release offset of job 0 (actual time for A/B, virtual time for C).
    name:
        Optional human-readable label used in traces and examples.
    """

    task_id: int
    level: CriticalityLevel
    period: float
    pwcets: Mapping[Annotated[CriticalityLevel, "PWCET level"], float] = field(
        default_factory=dict
    )
    relative_pp: Optional[float] = None
    tolerance: Optional[float] = None
    cpu: Optional[int] = None
    phase: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError(f"task_id must be >= 0, got {self.task_id}")
        check_positive("period", self.period)
        check_nonnegative("phase", self.phase)
        object.__setattr__(self, "pwcets", dict(self.pwcets))
        for lvl, c in self.pwcets.items():
            check_positive(f"pwcet[{CriticalityLevel(lvl).name}]", c)
        if self.level is not CriticalityLevel.D and self.level not in self.pwcets:
            raise ValueError(
                f"task {self.task_id}: missing PWCET for its own level {self.level.name}"
            )
        # Note: a task MAY carry PWCETs at analysis levels more critical
        # than its own.  Level-l analysis only considers tasks of
        # criticality at or above l, so such entries are ignored by the
        # analysis — but the paper's experiments use them ("all jobs at
        # levels A, B, and C execute for their level-B PWCETs", Sec. 5,
        # with every task's level-B PWCET 10x its level-C PWCET).
        if self.level is CriticalityLevel.C:
            if self.relative_pp is None:
                raise ValueError(f"level-C task {self.task_id} requires relative_pp (Y_i)")
            check_nonnegative("relative_pp", self.relative_pp)
            if self.tolerance is not None:
                check_nonnegative("tolerance", self.tolerance)
            if self.cpu is not None:
                raise ValueError("level-C tasks are scheduled globally; cpu must be None")
        else:
            if self.relative_pp is not None:
                raise ValueError("relative_pp (Y_i) only applies to level-C tasks")
            if self.tolerance is not None:
                raise ValueError("response-time tolerance only applies to level-C tasks")
            if self.level.is_hard and self.cpu is None:
                raise ValueError(
                    f"level-{self.level.name} task {self.task_id} must be pinned to a CPU"
                )
            if self.cpu is not None and self.cpu < 0:
                raise ValueError(f"cpu must be >= 0, got {self.cpu}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def pwcet(self, analysis_level: CriticalityLevel) -> float:
        """The PWCET used when analyzing *analysis_level*.

        Raises :class:`KeyError` if the task has no PWCET at that level
        (e.g. a level-D task, or an A-level PWCET that was never set).
        """
        return self.pwcets[analysis_level]

    def utilization(self, analysis_level: CriticalityLevel) -> float:
        """``C_i(level) / T_i``, the task's utilization at *analysis_level*."""
        return self.pwcet(analysis_level) / self.period

    @property
    def label(self) -> str:
        """Display name: explicit ``name`` or ``tau{task_id}``."""
        return self.name or f"tau{self.task_id}"

    def with_tolerance(self, tolerance: float) -> "Task":
        """Return a copy of this level-C task with ``xi_i`` set."""
        if self.level is not CriticalityLevel.C:
            raise ValueError("tolerances only apply to level-C tasks")
        return Task(
            task_id=self.task_id,
            level=self.level,
            period=self.period,
            pwcets=self.pwcets,
            relative_pp=self.relative_pp,
            tolerance=tolerance,
            cpu=self.cpu,
            phase=self.phase,
            name=self.name,
        )

    def with_relative_pp(self, relative_pp: float) -> "Task":
        """Return a copy of this level-C task with ``Y_i`` replaced."""
        if self.level is not CriticalityLevel.C:
            raise ValueError("relative PPs only apply to level-C tasks")
        return Task(
            task_id=self.task_id,
            level=self.level,
            period=self.period,
            pwcets=self.pwcets,
            relative_pp=relative_pp,
            tolerance=self.tolerance,
            cpu=self.cpu,
            phase=self.phase,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - formatting only
        bits = [
            f"Task({self.label}",
            f"level={self.level.name}",
            f"T={self.period}",
        ]
        if self.level is CriticalityLevel.C:
            bits.append(f"Y={self.relative_pp}")
            if self.tolerance is not None:
                bits.append(f"xi={self.tolerance}")
        if self.cpu is not None:
            bits.append(f"cpu={self.cpu}")
        bits.append(
            "pwcets={" + ", ".join(f"{CriticalityLevel(k).name}:{v}" for k, v in self.pwcets.items()) + "}"
        )
        return ", ".join(bits) + ")"
