"""The SVO release rule (eq. 5) and release-timer management.

Under the *sporadic with virtual time and overload* (SVO) model, the
minimum separation between consecutive releases of a level-C task is
measured in **virtual** time:

.. math:: v(r_{i,k+1}) \\ge v(r_{i,k}) + T_i \\qquad (5)

so slowing the virtual clock stretches actual inter-release times and
sheds level-C utilization — the paper's recovery lever.  Levels A and B
are untouched by virtual time; their separations stay in actual time.

:class:`ReleaseController` owns one task's release state:

* it records ``v(r_{i,k})`` at each release,
* computes the earliest next release — in virtual time for level-C tasks
  (``virt_to_act`` of Algorithm 1's ``schedule_pending_release``), in
  actual time otherwise,
* and is *re-armed* by the kernel after every speed change, mirroring
  Algorithm 1 lines 21-22 (reset each pending release timer to fire at
  ``virt_to_act(v(r_{i,k}))``).

Releases are generated at the earliest legal instant ("periodic in
virtual time"), matching the paper's examples and experiments; an
optional ``release_delay`` hook adds per-release sporadic slack for model
tests.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.virtual_time import VirtualClock
from repro.model.task import CriticalityLevel, Task

__all__ = ["ReleaseController"]

#: Optional sporadic-jitter hook: (task, job_index) -> extra separation.
#: The extra is measured in virtual time for level-C tasks (keeping
#: releases legal under eq. 5) and in actual time otherwise.
DelayFn = Callable[[Task, int], float]


class ReleaseController:
    """Release bookkeeping for a single task under the SVO model."""

    def __init__(self, task: Task, release_delay: Optional[DelayFn] = None) -> None:
        self.task = task
        self._delay = release_delay
        #: Whether this task's separations live in virtual time (level C).
        self.is_virtual: bool = task.level is CriticalityLevel.C
        #: ``T_i``, the minimum separation (virtual time for level C).
        self.period: float = task.period
        #: Index of the next job to release.
        self.next_index: int = 0
        #: Earliest legal release of the next job:
        #: virtual time for level C, actual time for A/B/D.
        self._next_point: float = task.phase
        if release_delay is not None:
            delay = release_delay(task, 0)
            if delay > 0.0:
                self._next_point += delay

    # ------------------------------------------------------------------
    @property
    def next_release_virtual(self) -> float:
        """``v(r_{i,k})`` of the next pending release (level-C tasks only)."""
        if not self.is_virtual:
            raise ValueError(f"task {self.task.label} does not release in virtual time")
        return self._next_point

    def next_release_actual(self, clock: VirtualClock, now: float) -> float:
        """Actual time at which the pending release timer should fire.

        For level-C tasks this is ``virt_to_act(v(r_{i,k}))`` under the
        clock's *current* segment (Algorithm 1 ``schedule_pending_release``).
        If the speed changes before the timer fires, the kernel must call
        this again to re-arm the timer (lines 21-22) — the returned instant
        is only valid until the next speed change.

        For non-virtual tasks the release point is already an actual time.

        The result is clamped at *now*: a release whose earliest legal
        instant has already passed is due immediately.
        """
        point = self._next_point
        if self.is_virtual:
            if point <= clock.act_to_virt(now):
                return now
            return clock.virt_to_act(point)
        return point if point > now else now

    def fire(self, clock: VirtualClock, now: float) -> tuple[int, float]:
        """Record a release at actual time *now*; return ``(index, v(r))``.

        Checks eq. 5 (or its actual-time analogue): the release must not
        precede the earliest legal instant.  Advances the controller to
        the next job: ``v(r_{i,k+1}) >= v(r_{i,k}) + T_i`` for level C,
        ``r_{i,k+1} >= r_{i,k} + T_i`` otherwise, plus any sporadic delay.
        """
        index = self.next_index
        earliest = self._next_point
        tol = earliest * 1e-15  # raised to an absolute floor below
        if self.is_virtual:
            point = clock.act_to_virt(now)
            # Tolerate the float round-off inherent in firing a timer at
            # virt_to_act(next_point): the virtual separation constraint is
            # semantically met because the timer was armed at the earliest
            # legal instant.  The tolerance is relative (with an absolute
            # floor) so it stays above one ulp at large virtual times.
            if tol < 1e-9:
                tol = 1e-9
            if point < earliest - tol:
                raise ValueError(
                    f"release of {self.task.label},{index} at virtual time {point} "
                    f"violates eq. 5 (earliest legal: {earliest})"
                )
        else:
            point = now
            if tol < 1e-12:
                tol = 1e-12
            if point < earliest - tol:
                raise ValueError(
                    f"release of {self.task.label},{index} at {point} violates the "
                    f"minimum separation (earliest legal: {earliest})"
                )
        if point < earliest:  # clamp the tolerated round-off
            point = earliest
        sep = self.period
        if self._delay is not None:
            delay = self._delay(self.task, index + 1)
            if delay > 0.0:
                sep += delay
        self._next_point = point + sep
        self.next_index = index + 1
        return index, point
