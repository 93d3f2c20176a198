"""The Sec. 5 task-set generator (avionics-like workloads).

Methodology reproduced from the paper:

* quad-core platform (``m = 4``; configurable);
* levels A and B each occupy 5 % of the system's processor capacity and
  level C occupies 65 %, *assuming all jobs execute for their level-C
  PWCETs*;
* each task's level-B PWCET is 10x and its level-A PWCET 20x its level-C
  PWCET;
* levels A and B are generated one CPU at a time, filling 5 % of each
  CPU's capacity per level (at level-C PWCETs);
* level-A periods from {25, 50, 100} ms; level-B periods random multiples
  of the CPU's largest level-A period, capped at 300 ms; level-C periods
  multiples of 5 ms in [10, 100] ms;
* per-task utilizations at the task's own criticality level from
  "uniform medium" ``U(0.1, 0.4)``; level-C utilization is that value
  scaled by 1/20 for level-A tasks and 1/10 for level-B tasks;
* a task that does not fit its level's remaining capacity has its
  utilization scaled down to fit;
* level-C PWCET = level-C utilization x period;
* level-C relative PPs assigned by G-FL;
* response-time tolerances from the analytical bounds
  (:func:`repro.core.tolerance.assign_tolerances`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.gel import gfl_relative_pp
from repro.core.tolerance import assign_tolerances
from repro.io.codec import document
from repro.model.task import CriticalityLevel, Task
from repro.model.taskset import TaskSet
from repro.util.timeunits import MS
from repro.workload.distributions import (
    LEVEL_A_PERIODS_MS,
    level_b_period_choices_ms,
    level_c_period_choices_ms,
    uniform_utilization,
)

__all__ = ["GeneratorParams", "generate_taskset", "generate_tasksets", "taskset_seeds"]

#: Ignore a residual capacity below this when filling a budget; a task
#: scaled to a sliver of utilization contributes nothing but numerical
#: noise (and a near-zero PWCET breaks the Task > 0 constraint).
_MIN_FILL = 1e-4


@document(strict=True)
@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the Sec. 5 generator (defaults are the paper's values).

    Decoding refuses unknown fields: a misspelt knob must not silently
    fall back to the paper's value.
    """

    m: int = 4
    #: Per-CPU level-A capacity share at level-C PWCETs.
    level_a_share: float = 0.05
    #: Per-CPU level-B capacity share at level-C PWCETs.
    level_b_share: float = 0.05
    #: System-wide level-C capacity share.
    level_c_share: float = 0.65
    #: level-B PWCET = ratio_b x level-C PWCET.
    ratio_b: float = 10.0
    #: level-A PWCET = ratio_a x level-C PWCET.
    ratio_a: float = 20.0
    #: Tolerance margin over the analytical bound (1.0 = the bound itself).
    tolerance_margin: float = 1.0
    #: Assign tolerances from the analytical bounds (Sec. 5 does).
    assign_tolerances: bool = True
    #: Per-task utilization distribution ``U(lo, hi)`` at the task's own
    #: criticality level; the paper's "uniform medium" is (0.1, 0.4).
    #: See workload.distributions.UNIFORM_RANGES for light/heavy.
    util_range: Tuple[float, float] = (0.1, 0.4)
    #: Hard cap on a single level-C task's level-C utilization (heavy
    #: distributions can otherwise exceed the per-CPU availability left
    #: by A/B — the Fig. 3 infeasibility).  None disables the cap.
    level_c_util_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError(f"m must be >= 1, got {self.m}")
        for name in ("level_a_share", "level_b_share", "level_c_share"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.ratio_b < 1.0 or self.ratio_a < self.ratio_b:
            raise ValueError(
                f"need 1 <= ratio_b <= ratio_a, got ratio_b={self.ratio_b}, "
                f"ratio_a={self.ratio_a}"
            )
        lo, hi = self.util_range
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError(f"util_range must satisfy 0 < lo <= hi <= 1, got {self.util_range}")
        if self.level_c_util_cap is not None and not 0.0 < self.level_c_util_cap <= 1.0:
            raise ValueError(f"level_c_util_cap must be in (0, 1], got {self.level_c_util_cap}")


def _pwcets_for(level: CriticalityLevel, c_pwcet: float, p: GeneratorParams) -> dict:
    """Per-analysis-level PWCETs from the level-C PWCET and the paper's ratios."""
    if level is CriticalityLevel.A:
        return {
            CriticalityLevel.A: p.ratio_a * c_pwcet,
            CriticalityLevel.B: p.ratio_b * c_pwcet,
            CriticalityLevel.C: c_pwcet,
        }
    if level is CriticalityLevel.B:
        return {
            CriticalityLevel.B: p.ratio_b * c_pwcet,
            CriticalityLevel.C: c_pwcet,
        }
    # Level-C tasks also carry a level-B PWCET (10x): Sec. 5's overload
    # scenarios make "all jobs at levels A, B, and C execute for their
    # level-B PWCETs".  Level-l analysis ignores it (only tasks of
    # criticality at or above l are considered at level l).
    return {
        CriticalityLevel.B: p.ratio_b * c_pwcet,
        CriticalityLevel.C: c_pwcet,
    }


def generate_taskset(
    seed: int, params: Optional[GeneratorParams] = None
) -> TaskSet:
    """Generate one task set with the Sec. 5 methodology.

    Parameters
    ----------
    seed:
        RNG seed; each of the paper's "20 generated task sets" is one
        seed.
    params:
        Generator knobs (defaults reproduce the paper).

    Returns
    -------
    TaskSet
        A validated, level-C-schedulable task set with G-FL PPs and (by
        default) analytical response-time tolerances.
    """
    p = params if params is not None else GeneratorParams()
    rng = np.random.default_rng(seed)
    tasks: List[Task] = []
    next_id = 0

    # ------------------------------------------------------------------
    # Levels A and B, one CPU at a time.
    # ------------------------------------------------------------------
    for cpu in range(p.m):
        # Level A: fill level_a_share of this CPU (at level-C PWCETs).
        budget = p.level_a_share
        largest_a_ms = 0
        while budget > _MIN_FILL:
            period_ms = int(rng.choice(LEVEL_A_PERIODS_MS))
            u_own = uniform_utilization(rng, *p.util_range)  # utilization at level A
            u_c = u_own / p.ratio_a
            u_c = min(u_c, budget)  # scale down to fit
            budget -= u_c
            period = period_ms * MS
            c_pwcet = u_c * period
            tasks.append(
                Task(
                    task_id=next_id,
                    level=CriticalityLevel.A,
                    period=period,
                    pwcets=_pwcets_for(CriticalityLevel.A, c_pwcet, p),
                    cpu=cpu,
                    name=f"A{next_id}",
                )
            )
            next_id += 1
            largest_a_ms = max(largest_a_ms, period_ms)

        # Level B: random multiples of the largest level-A period here.
        if largest_a_ms == 0:
            largest_a_ms = max(LEVEL_A_PERIODS_MS)
        choices = level_b_period_choices_ms(largest_a_ms)
        budget = p.level_b_share
        while budget > _MIN_FILL:
            period_ms = int(rng.choice(choices))
            u_own = uniform_utilization(rng, *p.util_range)  # utilization at level B
            u_c = u_own / p.ratio_b
            u_c = min(u_c, budget)
            budget -= u_c
            period = period_ms * MS
            c_pwcet = u_c * period
            tasks.append(
                Task(
                    task_id=next_id,
                    level=CriticalityLevel.B,
                    period=period,
                    pwcets=_pwcets_for(CriticalityLevel.B, c_pwcet, p),
                    cpu=cpu,
                    name=f"B{next_id}",
                )
            )
            next_id += 1

    # ------------------------------------------------------------------
    # Level C: global budget of level_c_share * m.
    # ------------------------------------------------------------------
    c_choices = level_c_period_choices_ms()
    budget = p.level_c_share * p.m
    while budget > _MIN_FILL:
        period_ms = int(rng.choice(c_choices))
        u_c = uniform_utilization(rng, *p.util_range)
        if p.level_c_util_cap is not None:
            u_c = min(u_c, p.level_c_util_cap)
        u_c = min(u_c, budget)
        budget -= u_c
        period = period_ms * MS
        c_pwcet = u_c * period
        tasks.append(
            Task(
                task_id=next_id,
                level=CriticalityLevel.C,
                period=period,
                pwcets=_pwcets_for(CriticalityLevel.C, c_pwcet, p),
                relative_pp=gfl_relative_pp(period, c_pwcet, p.m),
                name=f"C{next_id}",
            )
        )
        next_id += 1

    ts = TaskSet(tasks, m=p.m)
    ts.validate_partitioning()
    if p.assign_tolerances:
        ts = assign_tolerances(ts, margin=p.tolerance_margin)
    return ts


def taskset_seeds(count: int, base_seed: int = 2015) -> List[int]:
    """The explicit per-set seed schedule: *count* consecutive seeds.

    This is the single definition of "task set i's seed" — both
    :func:`generate_tasksets` and the sweep layer's
    :class:`~repro.runtime.spec.TaskSetSpec` grids derive from it, so a
    cached :class:`~repro.runtime.spec.RunSpec` names exactly the seed
    that regenerates its task set bit-for-bit.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [base_seed + i for i in range(count)]


def generate_tasksets(
    count: int, base_seed: int = 2015, params: Optional[GeneratorParams] = None
) -> List[TaskSet]:
    """Generate *count* task sets with consecutive seeds (paper: 20)."""
    return [generate_taskset(seed, params) for seed in taskset_seeds(count, base_seed)]
