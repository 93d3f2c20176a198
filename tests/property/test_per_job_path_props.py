"""The per-job plug-in path matches the bodies it replaced, float for float.

Every release passes through the scenario's execution behaviour (under
level-C budgets) and the SVO release rule (eq. 5).  Their hot paths were
rewritten to do less work per call: windows are ``(start, end)`` pairs
tested in a plain loop, the budget cap is one ``pwcets.get``, and the
release controller compares instead of calling ``max()``.  The functions
below are the earlier bodies, kept verbatim as the reference; each
property draws the edge cases the rewrite could get wrong and asserts
bit-identical results (and identical refusals).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.svo import ReleaseController
from repro.core.virtual_time import VirtualClock
from repro.model.behavior import OverloadWindow, WindowedOverloadBehavior
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.sim.budgets import BudgetEnforcedBehavior


# ----------------------------------------------------------------------
# The earlier bodies (reference)
# ----------------------------------------------------------------------
def old_pwcet_or_fallback(task: Task, level: L) -> float:
    if level in task.pwcets:
        return task.pwcets[level]
    if task.pwcets:
        lvl = max(task.pwcets)
        return task.pwcets[lvl]
    return 0.0


def old_budgeted_windowed(
    windows, overload_level, normal_level, enforce, task, release
) -> float:
    """``WindowedOverloadBehavior`` inside ``BudgetEnforcedBehavior``."""
    in_overload = any(w.contains(release) for w in windows)
    level = overload_level if in_overload else normal_level
    raw = old_pwcet_or_fallback(task, level)
    if enforce.get(task.level) and task.level in task.pwcets:
        return min(raw, task.pwcets[task.level])
    return raw


class OldReleaseController:
    """``ReleaseController``'s earlier ``__init__``/``fire``/``next_release_actual``."""

    def __init__(self, task, release_delay=None):
        self.task = task
        self._delay = release_delay
        self.next_index = 0
        self._next_point = task.phase
        if release_delay is not None:
            self._next_point += max(0.0, release_delay(task, 0))

    @property
    def is_virtual(self):
        return self.task.level is L.C

    def next_release_actual(self, clock, now):
        if self.is_virtual:
            virt_now = clock.act_to_virt(now)
            if self._next_point <= virt_now:
                return now
            return clock.virt_to_act(self._next_point)
        return max(now, self._next_point)

    def fire(self, clock, now):
        index = self.next_index
        if self.is_virtual:
            point = clock.act_to_virt(now)
            if point < self._next_point - max(1e-9, self._next_point * 1e-15):
                raise ValueError(
                    f"release of {self.task.label},{index} at virtual time {point} "
                    f"violates eq. 5 (earliest legal: {self._next_point})"
                )
            point = max(point, self._next_point)
        else:
            point = now
            if point < self._next_point - max(1e-12, self._next_point * 1e-15):
                raise ValueError(
                    f"release of {self.task.label},{index} at {point} violates the "
                    f"minimum separation (earliest legal: {self._next_point})"
                )
            point = max(point, self._next_point)
        sep = self.task.period
        if self._delay is not None:
            sep += max(0.0, self._delay(self.task, index + 1))
        self._next_point = point + sep
        self.next_index = index + 1
        return index, point


def same_float(a: float, b: float) -> bool:
    """Bit-identical floats (``==`` alone would equate 0.0 and -0.0)."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# ----------------------------------------------------------------------
# Behaviours
# ----------------------------------------------------------------------
#: A coarse grid, so release instants land exactly on window bounds.
grid = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)
pwcet = st.sampled_from([0.5, 1.0, 2.5, 10.0])


@st.composite
def window_sets(draw):
    """Non-overlapping windows (possibly none), drawn on the grid."""
    bounds = sorted(set(draw(st.lists(grid, max_size=6))))
    pairs = list(zip(bounds[::2], bounds[1::2]))
    return [OverloadWindow(a, b) for a, b in pairs]


@st.composite
def tasks(draw):
    """Tasks of every level, with and without the overload-level PWCET;
    level-D tasks with no PWCET at all or with a borrowed one."""
    level = draw(st.sampled_from(list(L)))
    levels = [lvl for lvl in L if lvl is not L.D]
    if level is L.D:
        chosen = draw(st.lists(st.sampled_from(levels), unique=True, max_size=2))
    else:
        extra = draw(st.lists(st.sampled_from(levels), unique=True, max_size=3))
        chosen = sorted({level, *extra})
    pwcets = {lvl: draw(pwcet) for lvl in chosen}
    return Task(
        task_id=draw(st.integers(0, 5)),
        level=level,
        period=10.0,
        pwcets=pwcets,
        relative_pp=10.0 if level is L.C else None,
        cpu=0 if level.is_hard else None,
    )


@st.composite
def instants(draw, windows):
    """Instants on, just before and just after window bounds, or anywhere."""
    bounds = [b for w in windows for b in (w.start, w.end)]
    if bounds and draw(st.booleans()):
        t = draw(st.sampled_from(bounds))
        nudge = draw(st.sampled_from([None, -math.inf, math.inf]))
        return t if nudge is None else max(0.0, math.nextafter(t, nudge))
    return draw(grid | st.floats(min_value=0.0, max_value=4.0))


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_budgeted_windowed_behaviour_matches_old_chain(data):
    windows = data.draw(window_sets())
    overload_level = data.draw(st.sampled_from([L.A, L.B, L.C]))
    normal_level = data.draw(st.sampled_from([L.B, L.C, L.D]))
    flags = data.draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    task = data.draw(tasks())
    release = data.draw(instants(windows))
    behavior = BudgetEnforcedBehavior(
        WindowedOverloadBehavior(windows, overload_level, normal_level),
        enforce_a=flags[0],
        enforce_b=flags[1],
        enforce_c=flags[2],
    )
    enforce = {L.A: flags[0], L.B: flags[1], L.C: flags[2]}
    got = behavior.exec_time(task, 0, release)
    want = old_budgeted_windowed(
        windows, overload_level, normal_level, enforce, task, release
    )
    assert same_float(got, want), (got, want)
    assert behavior.inner.in_overload(release) == any(
        w.contains(release) for w in windows
    )


# ----------------------------------------------------------------------
# The release rule (eq. 5)
# ----------------------------------------------------------------------
@st.composite
def release_scripts(draw):
    """A task, a delay table and steps ``(wait, speed, early)``: wait
    that long past the timer, maybe change the speed first, then fire
    ``early`` before the armed instant (0 = on time; a large value trips
    the eq. 5 guard on both controllers alike)."""
    level = draw(st.sampled_from(list(L)))
    period = draw(st.sampled_from([0.1, 0.7, 1.0, 3.3]))
    task = Task(
        task_id=1,
        level=level,
        period=period,
        pwcets={level: period / 4} if level is not L.D else {},
        relative_pp=period if level is L.C else None,
        cpu=0 if level.is_hard else None,
        phase=draw(st.sampled_from([0.0, 0.25, 1.5])),
    )
    delays = draw(
        st.none()
        | st.lists(
            st.sampled_from([-0.5, 0.0, 1e-13, 0.05, 0.3]), min_size=1, max_size=5
        )
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 1e-10, 0.2, 1.7]),
                st.none() | st.sampled_from([0.25, 0.5, 0.6, 0.999, 1.0]),
                st.sampled_from([0.0, 0.0, 0.0, 1e-13, 5e-10, 0.05]),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return task, delays, steps


def drive(ctrl, clock: VirtualClock, steps) -> list:
    """Fire *ctrl* through *steps*; return every observable, or the refusal."""
    seen = []
    now = 0.0
    for wait, speed, early in steps:
        armed = ctrl.next_release_actual(clock, now)
        seen.append(("armed", armed))
        if speed is not None:
            # A speed change between arming and firing re-arms the timer
            # (Algorithm 1 lines 21-22), at an instant no later than it.
            now = max(now, armed - wait)
            clock.change_speed(speed, now)
            armed = ctrl.next_release_actual(clock, now)
            seen.append(("rearmed", armed))
        now = max(now, armed + wait - early)
        try:
            seen.append(("fired", ctrl.fire(clock, now), ctrl._next_point))
        except ValueError as exc:
            seen.append(("refused", str(exc)))
            break
    return seen


@given(release_scripts())
@settings(max_examples=400, deadline=None)
@example((Task(task_id=1, level=L.C, period=1.0, pwcets={L.C: 0.25},
               relative_pp=1.0), None, [(0.0, 0.5, 0.05)]))
def test_release_controller_matches_old_bodies(script):
    task, delays, steps = script
    delay = None
    if delays is not None:
        def delay(t, index, table=tuple(delays)):
            return table[index % len(table)]
    new = ReleaseController(task, release_delay=delay)
    old = OldReleaseController(task, release_delay=delay)
    assert new.is_virtual == old.is_virtual
    got = drive(new, VirtualClock(0.0), steps)
    want = drive(old, VirtualClock(0.0), steps)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a[0] == b[0]
        if a[0] == "refused":
            assert a == b
        elif a[0] == "fired":
            (ia, pa), na = a[1], a[2]
            (ib, pb), nb = b[1], b[2]
            assert ia == ib and same_float(pa, pb) and same_float(na, nb), (a, b)
        else:
            assert same_float(a[1], b[1]), (a, b)


@pytest.mark.parametrize("level", [L.A, L.C])
def test_release_controller_refuses_like_the_old_one(level):
    task = Task(
        task_id=2, level=level, period=1.0, pwcets={level: 0.5},
        relative_pp=1.0 if level is L.C else None,
        cpu=0 if level.is_hard else None, phase=2.0,
    )
    for ctrl in (ReleaseController(task), OldReleaseController(task)):
        with pytest.raises(ValueError, match="earliest legal: 2.0"):
            ctrl.fire(VirtualClock(0.0), 1.0)
