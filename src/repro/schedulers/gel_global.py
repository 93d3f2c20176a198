"""Level-C global GEL-v job selection.

At every scheduling point the kernel hands this policy the set of
incomplete released level-C jobs and the CPUs currently free of level-A/B
work; the policy returns which jobs should occupy those CPUs.

Selection is by virtual priority point (eq. 6) — the GEL-v priority — and
is *migration-averse*: a selected job already running on one of the free
CPUs stays put, minimizing preemption/migration churn without affecting
which jobs run (the paper's analysis is indifferent to placement, only to
the selected set).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.gel import virtual_priority
from repro.model.job import Job

__all__ = ["select_gel_jobs", "place_gel_jobs"]


def place_gel_jobs(
    chosen: Sequence[Job], free_cpus: Sequence[int]
) -> Dict[int, Optional[Job]]:
    """Place an already-selected priority-ordered job list onto CPUs.

    *chosen* must hold at most ``len(free_cpus)`` jobs in ascending
    priority order.  Placement is migration-averse: a selected job
    already running on a free CPU stays put; the rest fill the remaining
    CPUs in priority order.  Shared by :func:`select_gel_jobs` (which
    sorts the whole pool) and the kernel's dispatcher (which slices the
    same jobs off its sorted ready list) so both produce bit-identical
    placements.
    """
    assignment: Dict[int, Optional[Job]] = dict.fromkeys(free_cpus)
    # First pass: keep running jobs in place; collect the rest in
    # priority order.
    rest = []
    for job in chosen:
        cpu = job.running_on
        if cpu is not None and cpu in assignment and assignment[cpu] is None:
            assignment[cpu] = job
        else:
            rest.append(job)
    # Second pass: put the rest on the remaining CPUs in priority order.
    if rest:
        it = iter([cpu for cpu in free_cpus if assignment[cpu] is None])
        for job in rest:
            assignment[next(it)] = job
    return assignment


def select_gel_jobs(
    jobs: Sequence[Job], free_cpus: Sequence[int]
) -> Dict[int, Optional[Job]]:
    """Assign the highest-priority level-C jobs to *free_cpus*.

    Parameters
    ----------
    jobs:
        Incomplete released level-C jobs (running or ready).
    free_cpus:
        CPUs not occupied by level-A/B work, in ascending order.

    Returns
    -------
    dict
        ``cpu -> job-or-None`` for every CPU in *free_cpus*.  The selected
        set is exactly the ``len(free_cpus)`` earliest-virtual-PP jobs
        (fewer if fewer exist); placement keeps already-running selected
        jobs on their CPUs where possible.
    """
    k = len(free_cpus)
    if k == 0 or not jobs:
        return {cpu: None for cpu in free_cpus}
    chosen = sorted(jobs, key=virtual_priority)[:k]
    return place_gel_jobs(chosen, free_cpus)
