"""Lossless JSON serialization of tasks and task sets.

Format (versioned so future changes stay loadable)::

    {
      "format": "repro-taskset",
      "version": 1,
      "m": 4,
      "tasks": [
        {"task_id": 0, "level": "A", "period": 0.025,
         "pwcets": {"A": 0.01, "B": 0.005, "C": 0.0005},
         "cpu": 0, "phase": 0.0, "name": "A0"},
        {"task_id": 17, "level": "C", "period": 0.05,
         "pwcets": {"B": 0.1, "C": 0.01},
         "relative_pp": 0.042, "tolerance": 0.13, "name": "C17"},
        ...
      ]
    }

Optional fields (``relative_pp``, ``tolerance``, ``cpu``, ``name``,
``phase``) are omitted when absent/default, keeping files diff-friendly:
the rules are declared on :class:`~repro.model.task.Task` and applied by
:mod:`repro.io.codec` (docs/architecture.md, "Documents").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.io import codec
from repro.model.task import Task
from repro.model.taskset import TaskSet

__all__ = ["task_to_dict", "task_from_dict", "taskset_to_json", "taskset_from_json"]

FORMAT = "repro-taskset"
VERSION = 1


@codec.document(header=(FORMAT, VERSION))
@dataclass(frozen=True)
class _TaskSetDocument:
    """The file layout of a task set (a :class:`TaskSet` is not a dataclass)."""

    m: int
    tasks: Tuple[Task, ...] = ()


def task_to_dict(task: Task) -> Dict[str, Any]:
    """One task as a plain JSON-ready dict."""
    return codec.encode(task)


def task_from_dict(data: Dict[str, Any]) -> Task:
    """Inverse of :func:`task_to_dict` (the Task constructor revalidates)."""
    return codec.decode(Task, data)


def taskset_to_json(ts: TaskSet, indent: int = 2) -> str:
    """Serialize a task set to a JSON string."""
    doc = codec.encode(_TaskSetDocument(m=ts.m, tasks=tuple(ts)))
    return json.dumps(doc, indent=indent)


def taskset_from_json(text: str) -> TaskSet:
    """Parse a task set from a JSON string (inverse of :func:`taskset_to_json`)."""
    doc = codec.decode(_TaskSetDocument, json.loads(text))
    return TaskSet(doc.tasks, m=doc.m)
