"""Schedule traces: the simulator's stand-in for sched_trace.

A :class:`Trace` records, per job, the quantities the paper's metrics
need (release, actual PP, completion, execution time) and optionally the
full per-CPU execution intervals used by the example-schedule figures,
invariant property tests, and ASCII schedule rendering.

The kernels record *rows*: plain tuples in :class:`JobRecord` /
:class:`ExecutionInterval` field order, appended to ``job_rows`` and
``interval_rows``.  The record objects are built from the rows on the
first read of :attr:`Trace.jobs` / :attr:`Trace.intervals`; a run whose
readers need only values (the per-cell metrics, the fingerprint, the
sojourn samples) never builds them.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.model.job import Job
from repro.model.task import CriticalityLevel, Task

__all__ = ["JobRecord", "ExecutionInterval", "Trace"]


@dataclass(frozen=True)
class JobRecord:
    """Final per-job accounting."""

    task_id: int
    level: CriticalityLevel
    index: int
    release: float
    exec_time: float
    completion: Optional[float]
    #: Actual PP if it was resolved; None means the job completed at or
    #: before its PP (level C) or has no PP (other levels / incomplete).
    actual_pp: Optional[float]
    #: v(r) and v(y) for level-C jobs.
    virtual_release: Optional[float] = None
    virtual_pp: Optional[float] = None

    @property
    def response_time(self) -> Optional[float]:
        """``t^c - r`` or ``None`` if the job never completed."""
        if self.completion is None:
            return None
        return self.completion - self.release

    @property
    def pp_lateness(self) -> Optional[float]:
        """``t^c - y``; ``None`` when incomplete or completed before the PP."""
        if self.completion is None or self.actual_pp is None:
            return None
        return self.completion - self.actual_pp


@dataclass(frozen=True)
class ExecutionInterval:
    """A maximal interval during which one job ran on one CPU."""

    cpu: int
    task_id: int
    job_index: int
    start: float
    end: float

    @property
    def length(self) -> float:
        """Interval duration."""
        return self.end - self.start


#: A job row: :class:`JobRecord`'s field values, in field order.
JobRow = Tuple[
    int, CriticalityLevel, int, float, float,
    Optional[float], Optional[float], Optional[float], Optional[float],
]
#: An interval row: ``(cpu, task_id, job_index, start, end)``.
IntervalRow = Tuple[int, int, int, float, float]

_new = object.__new__


def _job_records(rows: Iterable[JobRow]) -> List[JobRecord]:
    """Build records from rows (the instance dict is filled directly:
    the frozen dataclass ``__init__`` pays one ``object.__setattr__``
    per field, and JobRecord has no ``__post_init__`` to skip)."""
    out = []
    for tid, level, index, rel, exec_time, comp, app, vrel, vpp in rows:
        rec = _new(JobRecord)
        rec.__dict__.update(
            task_id=tid,
            level=level,
            index=index,
            release=rel,
            exec_time=exec_time,
            completion=comp,
            actual_pp=app,
            virtual_release=vrel,
            virtual_pp=vpp,
        )
        out.append(rec)
    return out


def _interval_records(rows: Iterable[IntervalRow]) -> List[ExecutionInterval]:
    """Build intervals from rows (filled like :func:`_job_records`)."""
    out = []
    for cpu, tid, index, start, end in rows:
        iv = _new(ExecutionInterval)
        iv.__dict__.update(cpu=cpu, task_id=tid, job_index=index, start=start, end=end)
        out.append(iv)
    return out


class Trace:
    """Accumulates job records and (optionally) execution intervals."""

    def __init__(self, record_intervals: bool = False) -> None:
        self.record_intervals = record_intervals
        #: Job rows in recording order (see the module docstring); the
        #: kernels append here, one row per job.
        self.job_rows: List[JobRow] = []
        #: Interval rows in recording order (only when record_intervals).
        self.interval_rows: List[IntervalRow] = []
        #: (time, speed) — every virtual-clock speed change the kernel applied.
        self.speed_changes: List[Tuple[float, float]] = []
        # Records built so far from the rows, and how many rows that
        # covers; anything appended to the lists from outside sits after
        # the rows it followed.
        self._jobs: List[JobRecord] = []
        self._jobs_built = 0
        self._intervals: List[ExecutionInterval] = []
        self._intervals_built = 0
        # Lookup indexes over self.jobs (which stays in recording order):
        # (task_id, index) -> position, and task_id -> positions.  Built
        # lazily on first query so recording stays a pure append (it is
        # on the kernel's per-completion path).
        self._by_job: Dict[Tuple[int, int], int] = {}
        self._by_task: Dict[int, List[int]] = {}
        self._indexed = 0

    # ------------------------------------------------------------------
    # Recording API (called by the kernel)
    # ------------------------------------------------------------------
    def record_job(self, job: Job) -> None:
        """Snapshot *job*'s final state (call at completion or at sim end)."""
        task = job.task
        self.job_rows.append((
            task.task_id,
            task.level,
            job.index,
            job.release,
            job.exec_time,
            job.completion,
            job.actual_pp,
            job.virtual_release,
            job.virtual_pp,
        ))

    def record_interval(
        self, cpu: int, job: Job, start: float, end: float
    ) -> None:
        """Record one execution interval (no-op unless enabled, or empty)."""
        if not self.record_intervals or end <= start:
            return
        self.interval_rows.append((cpu, job.task.task_id, job.index, start, end))

    def record_speed_change(self, time: float, speed: float) -> None:
        """Record a virtual-clock speed change."""
        self.speed_changes.append((time, speed))

    # ------------------------------------------------------------------
    # Records (built from the rows on first read)
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> List[JobRecord]:
        """Every job's :class:`JobRecord`, in recording order.

        The list may be appended to (hand-built traces); a record
        appended there follows every row recorded before it.
        """
        rows = self.job_rows
        if self._jobs_built < len(rows):
            self._jobs.extend(_job_records(rows[self._jobs_built:]))
            self._jobs_built = len(rows)
        return self._jobs

    @property
    def intervals(self) -> List[ExecutionInterval]:
        """Every recorded :class:`ExecutionInterval`, in recording order."""
        rows = self.interval_rows
        if self._intervals_built < len(rows):
            self._intervals.extend(_interval_records(rows[self._intervals_built:]))
            self._intervals_built = len(rows)
        return self._intervals

    def job_values(self) -> Sequence[JobRow]:
        """Every job as a row, in recording order, for readers that need
        only values: no record is built unless one was appended to
        :attr:`jobs` from outside, in which case the rows come from the
        records."""
        if len(self._jobs) == self._jobs_built:
            return self.job_rows
        return [astuple(r) for r in self.jobs]  # type: ignore[misc]

    def interval_values(self) -> Sequence[IntervalRow]:
        """Every interval as a row (the :meth:`job_values` twin)."""
        if len(self._intervals) == self._intervals_built:
            return self.interval_rows
        return [astuple(iv) for iv in self.intervals]  # type: ignore[misc]

    def _reindex(self) -> None:
        """Index any records appended since the last query."""
        jobs = self.jobs
        for pos in range(self._indexed, len(jobs)):
            rec = jobs[pos]
            self._by_job[(rec.task_id, rec.index)] = pos
            self._by_task.setdefault(rec.task_id, []).append(pos)
        self._indexed = len(jobs)

    # ------------------------------------------------------------------
    # Queries (used by metrics, tests, figures)
    # ------------------------------------------------------------------
    def jobs_of(self, task_id: int) -> List[JobRecord]:
        """All records of one task, ordered by job index."""
        self._reindex()
        return sorted(
            (self.jobs[i] for i in self._by_task.get(task_id, ())),
            key=lambda j: j.index,
        )

    def job(self, task_id: int, index: int) -> JobRecord:
        """The record of one specific job (raises ``KeyError`` if absent)."""
        self._reindex()
        try:
            return self.jobs[self._by_job[(task_id, index)]]
        except KeyError:
            raise KeyError(f"no record for job ({task_id}, {index})") from None

    def level_jobs(self, level: CriticalityLevel) -> List[JobRecord]:
        """All records at a criticality level."""
        return [j for j in self.jobs if j.level is level]

    def completed(self, level: Optional[CriticalityLevel] = None) -> List[JobRecord]:
        """All completed job records, optionally filtered by level."""
        return [
            j
            for j in self.jobs
            if j.completion is not None and (level is None or j.level is level)
        ]

    def response_times(self, level: CriticalityLevel = CriticalityLevel.C) -> List[float]:
        """Response times of completed jobs at *level* (read from the rows)."""
        return [
            row[5] - row[3]  # completion - release
            for row in self.job_values()
            if row[5] is not None and (level is None or row[1] is level)
        ]

    def max_response_time(self, level: CriticalityLevel = CriticalityLevel.C) -> float:
        """Largest completed response time at *level* (0.0 if none)."""
        rs = self.response_times(level)
        return max(rs) if rs else 0.0

    def intervals_of(self, task_id: int, index: Optional[int] = None) -> List[ExecutionInterval]:
        """Execution intervals of a task (or one job), time-ordered."""
        out = [
            iv
            for iv in self.intervals
            if iv.task_id == task_id and (index is None or iv.job_index == index)
        ]
        return sorted(out, key=lambda iv: iv.start)

    def busy_intervals(self, cpu: int) -> List[ExecutionInterval]:
        """Execution intervals on one CPU, time-ordered."""
        return sorted(
            (iv for iv in self.intervals if iv.cpu == cpu), key=lambda iv: iv.start
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_ascii(
        self,
        tasks: Sequence[Task],
        t_end: float,
        resolution: float = 1.0,
        width_limit: int = 200,
    ) -> str:
        """Render an ASCII schedule (one row per CPU) for small examples.

        Each column covers ``resolution`` time units; the cell shows the
        task id executing for the majority of the column on that CPU
        (``.`` for idle).  Only usable with interval recording enabled.
        """
        if not self.record_intervals:
            raise ValueError("interval recording was disabled for this trace")
        labels = {t.task_id: t.label for t in tasks}
        cpus = sorted({iv.cpu for iv in self.intervals}) or [0]
        cols = min(int(round(t_end / resolution)), width_limit)
        lines = []
        # Time labels written at their exact column offsets (one data
        # column = one character), so tick marks line up with the rows
        # below regardless of label width; a label that would overwrite
        # the previous one (or spill past the row) is skipped.
        ticks = [" "] * cols
        free = 0
        for i in range(0, cols, 5):
            label = f"{i * resolution:g}"
            if i < free or i + len(label) > cols:
                continue
            ticks[i:i + len(label)] = label
            free = i + len(label) + 1
        lines.append("     " + "".join(ticks).rstrip())
        for cpu in cpus:
            cells = []
            ivs = self.busy_intervals(cpu)
            for i in range(cols):
                lo, hi = i * resolution, (i + 1) * resolution
                best, best_len = ".", 0.0
                for iv in ivs:
                    ov = min(hi, iv.end) - max(lo, iv.start)
                    if ov > best_len:
                        best_len = ov
                        best = labels.get(iv.task_id, str(iv.task_id))[-1]
                cells.append(best)
            lines.append(f"CPU{cpu} " + "".join(cells))
        return "\n".join(lines)
