"""Regression: lazily-cancelled release timers must not accumulate.

Generation-stamped cancellation (Algorithm 1 line 22) leaves each
re-armed level-C release timer's dead entry in the event heap until it
pops.  Under repeated ``change_speed`` calls — every recovery episode
re-arms *every* pending level-C timer — dead entries used to pile up
faster than they drained, growing the heap (and the events spent
discarding stale pops) with each episode.  Both backends now compact
the heap once stale entries exceed
``COMPACT_STALE_RATIO x len(taskset)``; these tests pin the bound, the
leak it prevents, and the behavioural neutrality of compaction.
"""

import pytest

import repro.sim.kernel
from repro.core.monitor import NullMonitor
from repro.model.behavior import ConstantBehavior
from repro.model.taskset import TaskSet
from repro.sim.backend import create_kernel
from repro.sim.diffcheck import DiffScenario, build_kernel, fingerprint
from repro.sim.kernel import COMPACT_STALE_RATIO, KernelConfig
from tests.conftest import make_c_task

CHURN = 200  # speed changes driven through each kernel


def heap_of(kernel):
    """The raw event-heap list of either backend."""
    if hasattr(kernel, "engine"):
        return kernel.engine.queue._heap
    return kernel._heap


def churned_kernel(backend: str):
    """A started kernel after CHURN alternating speed changes at t=0."""
    ts = TaskSet(
        [make_c_task(i, 4.0 + i, 1.0, y=3.0 + i) for i in range(4)], m=2
    )
    kernel = create_kernel(
        ts, behavior=ConstantBehavior(), config=KernelConfig(backend=backend)
    )
    kernel.attach_monitor(NullMonitor(kernel))
    kernel.start()
    for i in range(CHURN):
        kernel.change_speed(0.5 if i % 2 == 0 else 1.0)
    return kernel


class TestHeapBound:
    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_heap_stays_bounded_under_speed_churn(self, backend):
        kernel = churned_kernel(backend)
        n = len(kernel.taskset)
        # Live timers (<= one per task) + at most ratio x n stale ones
        # awaiting the next trigger + the churn between two triggers.
        bound = (COMPACT_STALE_RATIO + 2) * n + 2
        assert len(heap_of(kernel)) <= bound, (
            f"{backend}: heap grew to {len(heap_of(kernel))} entries "
            f"(> {bound}) under {CHURN} speed changes"
        )

    def test_backends_compact_at_identical_instants(self):
        # Identical trigger arithmetic => identical heap populations.
        ref = churned_kernel("reference")
        soa = churned_kernel("soa")
        assert len(heap_of(ref)) == len(heap_of(soa))

    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_leak_without_compaction(self, backend, monkeypatch):
        """The guarded failure mode: with compaction disabled the heap
        retains one dead entry per task per re-arm."""
        monkeypatch.setattr(repro.sim.kernel, "COMPACT_STALE_RATIO", 10**9)
        kernel = churned_kernel(backend)
        # 4 level-C tasks x CHURN re-arms, minus the few that drain.
        assert len(heap_of(kernel)) > CHURN * 3


class TestBehaviouralNeutrality:
    def test_compaction_only_changes_event_count(self, monkeypatch):
        """Survivors keep their keys, so scheduling is untouched: the
        only fingerprint field compaction may change is the number of
        (stale) events popped."""
        sc = DiffScenario(seed=401, m=2, behavior="LONG", monitor="adaptive",
                          monitor_arg=1.0, horizon=3.0)

        def run(ratio):
            monkeypatch.setattr(repro.sim.kernel, "COMPACT_STALE_RATIO", ratio)
            kernel, monitor = build_kernel(sc, "reference")
            trace = kernel.run(sc.horizon)
            return fingerprint(trace, kernel, monitor)

        compacted = run(2)
        uncompacted = run(10**9)
        assert compacted["events_processed"] <= uncompacted["events_processed"]
        for key in compacted:
            if key != "events_processed":
                assert compacted[key] == uncompacted[key], key

    def test_compaction_triggers_in_recovery_scenario(self, monkeypatch):
        """The default ratio actually fires under a paper overload (the
        bound above is not vacuous)."""
        sc = DiffScenario(seed=401, m=2, behavior="LONG", monitor="adaptive",
                          monitor_arg=1.0, horizon=3.0)
        kernel, _ = build_kernel(sc, "reference")
        calls = []
        orig = kernel._compact_release_timers
        monkeypatch.setattr(
            kernel, "_compact_release_timers",
            lambda: (calls.append(1), orig())[1],
        )
        kernel.run(sc.horizon)
        assert calls, "scenario never triggered compaction"
