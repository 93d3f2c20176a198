"""Execution-budget enforcement (paper footnote 2).

MC² optionally enforces per-level execution budgets so that a job cannot
run beyond a chosen PWCET: the kernel stops it when the budget exhausts.
Footnote 2 notes that with budgets at levels A and B, those levels cannot
overrun their *own* PWCETs — but they can still overrun their smaller
level-C PWCETs, so level-C overload remains possible.  Budgets at level C
restore eq. 1 for level C itself.

We model enforcement at job-admission time: a job's execution demand is
clamped to the enforcement PWCET.  This is observationally equivalent to
stopping the job at exhaustion when (as here) an overrunning job has no
further effect after being stopped.

:class:`BudgetEnforcedBehavior` wraps any
:class:`~repro.model.behavior.ExecutionBehavior`, clamping per level:

* level-A jobs to their level-A PWCET,
* level-B jobs to their level-B PWCET,
* level-C jobs to their level-C PWCET (only if ``enforce_c`` is set).
"""

from __future__ import annotations

from repro.model.behavior import ExecutionBehavior
from repro.model.task import CriticalityLevel, Task

__all__ = ["BudgetEnforcedBehavior"]


class BudgetEnforcedBehavior:
    """Clamp an inner behaviour's execution times to per-level budgets."""

    def __init__(
        self,
        inner: ExecutionBehavior,
        enforce_a: bool = True,
        enforce_b: bool = True,
        enforce_c: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        inner:
            The behaviour producing raw (possibly overrunning) demands.
        enforce_a, enforce_b:
            Enforce budgets at levels A/B (the paper's default when
            budgets are in use: A/B cannot exceed their own PWCETs).
        enforce_c:
            Enforce level-C budgets, restoring eq. 1 at level C; the
            paper leaves this optional, so it defaults off.
        """
        self.inner = inner
        #: The levels whose budgets are enforced.
        self.enforced = tuple(
            level
            for level, on in (
                (CriticalityLevel.A, enforce_a),
                (CriticalityLevel.B, enforce_b),
                (CriticalityLevel.C, enforce_c),
            )
            if on
        )

    def exec_time(self, task: Task, job_index: int, release: float) -> float:
        raw = self.inner.exec_time(task, job_index, release)
        level = task.level
        if level in self.enforced:
            cap = task.pwcets.get(level)  # PWCETs are positive, never None
            if cap is not None and cap < raw:
                return cap
        return raw
