"""Per-level scheduling policies of the MC² architecture (Fig. 1).

Each module implements the *policy* (who should run, given eligible
jobs); the mechanics (preemption, accounting, timers) live in
:mod:`repro.sim.kernel`.  The kernel dispatches from incremental indexes
that select what these policies select;
:func:`repro.sim.diffcheck.scratch_assignment` applies the policies to
the kernel's whole job pools, and the differential checks compare the
two at every dispatch.

* :mod:`repro.schedulers.table_driven` — level A: per-CPU cyclic-executive
  time tables built over the hyperperiod.
* :mod:`repro.schedulers.pedf` — level B: partitioned EDF.
* :mod:`repro.schedulers.gel_global` — level C: global GEL-v selection by
  virtual priority point.
* :mod:`repro.schedulers.best_effort` — level D: FIFO background.
"""

from repro.schedulers.best_effort import pick_best_effort
from repro.schedulers.gel_global import select_gel_jobs
from repro.schedulers.pedf import edf_key, pick_edf
from repro.schedulers.table_driven import (
    TableSlot,
    TimeTable,
    build_preemptive_table,
    build_table,
    pick_table_driven,
    rm_key,
)

__all__ = [
    "TimeTable",
    "TableSlot",
    "build_preemptive_table",
    "rm_key",
    "build_table",
    "pick_table_driven",
    "pick_edf",
    "edf_key",
    "select_gel_jobs",
    "pick_best_effort",
]
