"""Jobs: released task instances with actual- and virtual-time bookkeeping.

A job :math:`\\tau_{i,k}` carries (Sec. 2 / Sec. 4 of the paper):

* ``release`` — actual release time :math:`r_{i,k}`;
* ``exec_time`` — actual execution requirement :math:`e_{i,k}` (under the
  SVO model this may exceed any PWCET: that is what overload *is*);
* ``virtual_release`` — :math:`v(r_{i,k})`, recorded at release;
* ``virtual_pp`` — :math:`v(y_{i,k}) = v(r_{i,k}) + Y_i` (eq. 6), the
  GEL-v *scheduling priority* (level C only);
* ``actual_pp`` — :math:`y_{i,k}` in actual time, which is *not known at
  release* because the virtual-clock speed may change before the PP is
  reached.  It starts as ``None`` (the paper's bottom placeholder) and is
  lazily resolved by the kernel per Fig. 5(b)-(d);
* ``completion`` — actual completion time :math:`t^c_{i,k}` once complete.

For levels A/B/D the virtual fields are unused (virtual time affects only
level C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.model.task import CriticalityLevel, Task

__all__ = ["Job"]


# eq=False: jobs are identity objects (one per release), and the kernel
# removes them from its pools by identity.  The generated field-by-field
# __eq__ made every ``list.remove`` an O(n) cascade of Python-level
# comparisons over *mutable* state — a real cost on the per-completion
# path — and left Job unhashable.  Identity semantics make removal a
# C-speed pointer scan and restore hashability.
@dataclass(eq=False)
class Job:
    """One released instance of a :class:`~repro.model.task.Task`."""

    task: Task
    index: int
    release: float
    exec_time: float
    #: Remaining execution requirement; decremented by the simulator.
    remaining: float = field(init=False)
    #: v(r_{i,k}); meaningful for level-C jobs only.
    virtual_release: Optional[float] = None
    #: v(y_{i,k}) = v(r_{i,k}) + Y_i; the GEL-v priority (level C only).
    virtual_pp: Optional[float] = None
    #: y_{i,k} in actual time; None encodes the paper's bottom placeholder.
    actual_pp: Optional[float] = None
    #: t^c_{i,k}; None while the job is incomplete.
    completion: Optional[float] = None
    #: Absolute deadline for level-B (EDF) jobs; None otherwise.
    deadline: Optional[float] = None
    #: CPU currently executing this job (simulator-managed; None if not running).
    running_on: Optional[int] = field(init=False, default=None)
    #: CPU this job last executed on (simulator-managed; for migration counts).
    last_cpu: Optional[int] = field(init=False, default=None)
    #: Scheduling generation stamp (simulator-managed): bumped whenever the
    #: job stops running so tentative completion events can be invalidated.
    generation: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"job index must be >= 0, got {self.index}")
        if self.exec_time < 0:
            raise ValueError(f"exec_time must be >= 0, got {self.exec_time}")
        if self.release < 0:
            raise ValueError(f"release must be >= 0, got {self.release}")
        self.remaining = self.exec_time

    # ------------------------------------------------------------------
    @property
    def jid(self) -> tuple[int, int]:
        """``(task_id, index)`` — the job's unique identity."""
        return (self.task.task_id, self.index)

    @property
    def label(self) -> str:
        """Display name, e.g. ``tau2,6``."""
        return f"{self.task.label},{self.index}"

    @property
    def is_complete(self) -> bool:
        """Whether the job has finished executing."""
        return self.completion is not None

    def is_pending(self, t: float) -> bool:
        """Paper Sec. 2: pending at ``t`` iff ``r_{i,k} <= t < t^c_{i,k}``."""
        if t < self.release:
            return False
        return self.completion is None or t < self.completion

    @property
    def response_time(self) -> Optional[float]:
        """``R_{i,k} = t^c_{i,k} - r_{i,k}``, or ``None`` if incomplete."""
        if self.completion is None:
            return None
        return self.completion - self.release

    @property
    def pp_lateness(self) -> Optional[float]:
        """Completion time relative to the *actual* PP: ``t^c - y``.

        Positive values mean the job completed after its priority point.
        Requires the actual PP to have been resolved; if the job completed
        at or before its PP (``actual_pp is None``, Fig. 5(b)) the lateness
        is reported as ``None`` — by Def. 1 such a job trivially meets any
        non-negative tolerance.
        """
        if self.completion is None or self.actual_pp is None:
            return None
        return self.completion - self.actual_pp

    def meets_tolerance(self) -> bool:
        """Def. 1: ``t^c - y <= xi`` (the monitor's arithmetic, Algorithm 2
        line 10; ``t^c <= y + xi`` can differ from it by one ulp).

        Only meaningful for completed level-C jobs of tasks with a
        configured tolerance.  Jobs whose actual PP was never resolved
        completed at or before their PP and therefore meet any
        non-negative tolerance.
        """
        if self.task.level is not CriticalityLevel.C:
            raise ValueError("tolerances only apply to level-C jobs")
        if self.task.tolerance is None:
            raise ValueError(f"task {self.task.label} has no configured tolerance")
        if self.completion is None:
            raise ValueError(f"job {self.label} is not complete")
        if self.actual_pp is None:
            return True
        return self.completion - self.actual_pp <= self.task.tolerance

    def __repr__(self) -> str:  # pragma: no cover - formatting only
        state = f"done@{self.completion}" if self.is_complete else f"rem={self.remaining}"
        return f"Job({self.label}, r={self.release}, e={self.exec_time}, {state})"
