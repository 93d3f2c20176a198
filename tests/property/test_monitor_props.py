"""Property tests for the monitor state machine (Algorithm 2, Theorem 1).

We generate random but *consistent* job timelines (releases, completions,
PPs), replay them through the monitor in completion order, and check the
paper's correctness claims against ground truth recomputed directly from
the timeline:

* **Theorem 1 soundness**: whenever the monitor exits recovery having
  accepted candidate idle instant ``c``, every job pending at ``c``
  (ground truth) met its response-time tolerance.
* The clock is only ever slowed while in recovery mode, and every
  slowdown is eventually followed by a restore (given the generated
  timeline drains).
"""

import dataclasses
from typing import List, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.monitor import CompletionReport, SimpleMonitor
from repro.model.task import CriticalityLevel as L
from repro.model.task import Task

XI = 2.0
Y = 3.0


def make_task(tid):
    return Task(task_id=tid, level=L.C, period=4.0, pwcets={L.C: 1.0},
                relative_pp=Y, tolerance=XI)


@dataclasses.dataclass
class TimelineJob:
    tid: int
    k: int
    release: float
    completion: float
    actual_pp: Optional[float]

    @property
    def meets(self):
        # Def. 1 in the monitor's arithmetic (t^c - y > xi is a miss);
        # t^c <= y + xi can disagree with it by one ulp.
        if self.actual_pp is None:
            return True
        return self.completion - self.actual_pp <= XI


@st.composite
def timelines(draw):
    """Jobs with increasing releases and bounded lifetimes."""
    n = draw(st.integers(min_value=1, max_value=12))
    jobs: List[TimelineJob] = []
    t = 0.0
    per_task_next_k = {}
    for _ in range(n):
        t += draw(st.floats(min_value=0.1, max_value=3.0))
        tid = draw(st.integers(min_value=0, max_value=2))
        k = per_task_next_k.get(tid, 0)
        per_task_next_k[tid] = k + 1
        lifetime = draw(st.floats(min_value=0.1, max_value=12.0))
        completion = t + lifetime
        # PP resolved iff the job completed after it.
        pp = t + Y if completion > t + Y else None
        jobs.append(TimelineJob(tid=tid, k=k, release=t, completion=completion,
                                actual_pp=pp))
    return jobs


class Recorder:
    """Records speeds; the instants are in ``Monitor.speed_requests``."""

    def __init__(self):
        self.speeds = []

    def change_speed(self, s):
        self.speeds.append(s)


def replay(jobs):
    """Feed the timeline to a SIMPLE monitor; return exit-time checks."""
    tasks = {tid: make_task(tid) for tid in {j.tid for j in jobs}}
    ctl = Recorder()
    mon = SimpleMonitor(ctl, s=0.5)
    events = []
    for j in jobs:
        events.append((j.release, 0, j))
        events.append((j.completion, 1, j))
    events.sort(key=lambda e: (e[0], e[1]))
    exits = []  # (exit_time, idle_cand at exit)
    for time_, kind, j in events:
        if kind == 0:
            mon.on_job_release((j.tid, j.k))
        else:
            # Ground-truth "ready queue empty": no other job is released
            # and incomplete at this completion instant.
            queue_empty = not any(
                o is not j and o.release <= time_ < o.completion for o in jobs
            )
            was_recovering = mon.recovery_mode
            cand = mon.idle_cand
            mon.on_job_complete(
                CompletionReport(
                    task=tasks[j.tid], job_index=j.k, release=j.release,
                    actual_pp=j.actual_pp, comp_time=j.completion,
                    queue_empty=queue_empty,
                )
            )
            if was_recovering and not mon.recovery_mode:
                # Monitor accepted some candidate; reconstruct which: it is
                # whatever idle_cand was right before this completion, or
                # this completion itself if it re-established one.
                accepted = mon.idle_cand if mon.idle_cand is not None else cand
                exits.append((j.completion, accepted))
    return mon, ctl, exits


@given(timelines())
@settings(max_examples=300)
def test_theorem1_exits_only_at_idle_normal_instants(jobs):
    mon, ctl, exits = replay(jobs)
    for exit_time, cand in exits:
        assert cand is not None
        # Ground truth: every job pending at the accepted candidate met
        # its tolerance (Def. 2 via Theorem 1).
        for j in jobs:
            if j.release <= cand < j.completion:
                assert j.meets, (
                    f"monitor exited recovery at {exit_time} accepting idle "
                    f"instant {cand}, but job ({j.tid},{j.k}) pending there "
                    f"missed its tolerance"
                )


@given(timelines())
@example([TimelineJob(tid=0, k=0, release=0.99999, completion=5.99999, actual_pp=3.99999)])
@settings(max_examples=300)
def test_slowdowns_only_on_genuine_misses(jobs):
    mon, ctl, _ = replay(jobs)
    assert ctl.speeds == [s for _, s in mon.speed_requests]
    slowdowns = [c for c in mon.speed_requests if c[1] < 1.0]
    any_miss = any(not j.meets for j in jobs)
    if not any_miss:
        assert slowdowns == []
    else:
        assert len(slowdowns) >= 1


@given(timelines())
@settings(max_examples=300)
def test_every_restore_follows_a_slowdown(jobs):
    mon, _, _ = replay(jobs)
    depth = 0
    for _, s in mon.speed_requests:
        if s < 1.0:
            depth += 1
        else:
            assert depth > 0, "change_speed(1) without a preceding slowdown"
            depth = 0


@given(timelines())
@settings(max_examples=300)
def test_monitor_drains_when_all_jobs_complete(jobs):
    """After the full timeline (all jobs complete), pend_now is empty."""
    mon, _, _ = replay(jobs)
    assert mon.pend_now == set()
