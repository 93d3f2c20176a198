"""Regression tests: float tolerances at large simulated times, and
per-instance ``_IdentityClock`` state.

One double ulp grows linearly with magnitude (ulp(1e6) ~ 1.2e-10,
ulp(1e8) ~ 1.5e-8), so a *fixed* absolute epsilon silently stops doing
its job once the simulated clock is large: a completion event computed
as ``start + remaining`` pops with a round-off residue the comparison
cannot see, and the kernel re-arms the completion a few ulps later —
over and over, effectively live-locking the run.  The engine's
past-event guard has the mirror-image failure: legal same-instant timer
events land a few ulps before ``now`` and get rejected.  Both
tolerances are now relative with an absolute floor; these tests pin
that down at phases where the absolute-only versions break.
"""

import math

import pytest

from repro.model.behavior import ConstantBehavior
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.engine import Engine, past_tolerance
from repro.sim.events import Event, EventKind
from repro.sim.kernel import KernelConfig, MC2Kernel, _IdentityClock, completion_eps
from tests.conftest import make_c_task


def awkward_taskset(phase):
    """Two level-C tasks with decimal periods that are not exactly
    representable in binary — release/completion arithmetic accrues
    round-off every hyperperiod."""
    return TaskSet(
        [
            Task(task_id=0, level=L.C, period=0.7, pwcets={L.C: 0.3},
                 relative_pp=0.7, phase=phase, tolerance=1.0),
            Task(task_id=1, level=L.C, period=1.1, pwcets={L.C: 0.4},
                 relative_pp=1.1, phase=phase, tolerance=1.0),
        ],
        m=1,
    )


class TestToleranceScaling:
    def test_past_tolerance_floor_and_growth(self):
        assert past_tolerance(0.0) == 1e-12
        assert past_tolerance(1.0) == 1e-12
        # Beyond ~1e3 the relative term dominates and tracks ulp(now).
        for now in (1e6, 1e8, 1e10):
            assert past_tolerance(now) == now * 1e-15
            assert past_tolerance(now) > math.ulp(now)

    def test_completion_eps_floor_and_growth(self):
        assert completion_eps(0.0) == 1e-9
        assert completion_eps(1.0) == 1e-9
        for now in (1e7, 1e9, 1e11):
            assert completion_eps(now) == now * 1e-15
            assert completion_eps(now) > math.ulp(now)


class TestEngineAtLargeTimes:
    def test_few_ulp_past_event_accepted(self):
        """An event a few ulps before now (timer round-trip round-off)
        must be schedulable; 1e-12 absolute alone would reject it."""
        eng = Engine()
        now = 1e9
        eng.push(Event(now, EventKind.RELEASE))
        eng.run(lambda ev: None, until=now)
        assert eng.now == now
        nudged = now
        for _ in range(3):
            nudged = math.nextafter(nudged, 0.0)
        assert now - nudged > 1e-12  # the old guard really would trip
        eng.push(Event(nudged, EventKind.RELEASE))  # must not raise
        seen = []
        eng.run(lambda ev: seen.append(ev.time), until=now + 1.0)
        assert seen == [nudged]

    def test_clearly_past_event_still_rejected(self):
        eng = Engine()
        eng.push(Event(1e9, EventKind.RELEASE))
        eng.run(lambda ev: None, until=1e9)
        with pytest.raises(ValueError, match="schedule"):
            eng.push(Event(1e9 - 1e-3, EventKind.RELEASE))


class TestKernelAtLargePhases:
    @pytest.mark.parametrize("phase", [1e7, 1e8, 1e9])
    def test_completions_prompt_at_large_phase(self, phase):
        """Jobs complete at release + exec even when one ulp of ``now``
        dwarfs the old absolute slack (which live-locks these runs)."""
        kernel = MC2Kernel(awkward_taskset(phase), behavior=ConstantBehavior())
        trace = kernel.run(phase + 20.0)
        done = [r for r in trace.jobs if r.completion is not None]
        assert len(done) >= 40  # ~28 + ~18 jobs in 20s, minus stragglers
        for rec in done:
            # Under-utilized single CPU: every job finishes promptly, so a
            # deferred completion would show up as a late outlier here.
            assert rec.completion - rec.release <= 0.8 + 1e-3

    def test_virtual_time_retiming_at_large_phase(self):
        """Speed changes at a large instant: virt<->act round-trips stay
        within the (relative) release-rule tolerance."""
        phase = 1e8
        kernel = MC2Kernel(awkward_taskset(phase), behavior=ConstantBehavior())
        kernel.run_until(phase + 5.0)
        kernel.change_speed(0.5)
        kernel.run_until(phase + 10.0)
        kernel.change_speed(1.0)
        trace = kernel.run(phase + 15.0)
        assert [s for _, s in trace.speed_changes] == [0.5, 1.0]
        done = [r for r in trace.jobs if r.completion is not None]
        assert done, "no jobs completed after retiming"


class TestIdentityClockIsolation:
    def test_state_is_per_instance(self):
        a, b = _IdentityClock(), _IdentityClock()
        a.speed = 0.25
        a.last_act = 42.0
        a.last_virt = 21.0
        assert (b.speed, b.last_act, b.last_virt) == (1.0, 0.0, 0.0)

    def test_two_baseline_kernels_cannot_alias(self):
        """Mutating one kernel's clock must not leak into another —
        the class-attribute version of _IdentityClock failed this."""
        cfg = KernelConfig(use_virtual_time=False)
        ts = TaskSet([make_c_task(0, 4.0, 1.0, y=3.0)], m=1)
        k1 = MC2Kernel(ts, config=cfg)
        k2 = MC2Kernel(TaskSet([make_c_task(0, 4.0, 1.0, y=3.0)], m=1), config=cfg)
        assert k1.clock is not k2.clock
        k1.clock.last_act = 99.0
        assert k2.clock.last_act == 0.0
        # Conversions stay identity regardless of the mutated fields.
        assert k1.clock.act_to_virt(7.0) == 7.0
        assert k2.clock.virt_to_act(7.0) == 7.0

    def test_slots_prevent_stray_attributes(self):
        clk = _IdentityClock()
        with pytest.raises(AttributeError):
            clk.history = []
