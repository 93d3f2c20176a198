"""Kernel-backend registry: pluggable simulator cores behind one seam.

Every run path (:func:`repro.sim.kernel.simulate`, the experiment
runner, diffcheck, the benchmark harness) builds its kernel through
:func:`create_kernel`, which resolves ``KernelConfig.backend`` against
this registry:

``"reference"``
    The object-based :class:`~repro.sim.kernel.MC2Kernel` — the
    readable ground truth, one Python object per job/event/processor.
``"soa"``
    The struct-of-arrays hot path (:mod:`repro.sim.soa`): flat parallel
    arrays for job state, pooled event slots, a fused event loop.
    Gated to byte-identical traces against ``"reference"`` by the
    diffcheck property suite and the golden-fingerprint corpus.

Backends share one behavioural contract (see DESIGN.md "Kernel
backends"): identical construction signature, and a uniform surface:

* run — ``start`` / ``run_until`` / ``run`` / ``finish``,
  ``attach_monitor``;
* observe — ``events_processed`` / ``trace`` / ``preemptions`` /
  ``migrations`` / ``pending_c_released_before``;
* the plug-in seam — ``started``, ``now``, ``change_speed(speed)``,
  ``schedule_callback(t, fn)``, ``inject_pinned_job(task, exec_time)``,
  the ``clock`` and ``monitor`` attributes, and the read-only
  ``taskset`` and ``tracer``.

Plug-ins (monitor, execution behaviour, traffic, fault plane) reach a
kernel only through the seam, written as a rely/guarantee contract
(docs/architecture.md "Kernel seam" has it per plug-in).  Every
backend guarantees:

* G1 — a system call reads the kernel's clock: ``change_speed(s)``
  takes effect at ``now``, whenever the caller detected the need;
* G2 — ``schedule_callback(t, fn)`` runs ``fn(t)`` at ``t`` in the
  ``(time, kind, seq)`` event order (after the instant's releases,
  completions and monitor reports), and a dispatch follows it;
* G3 — a job from ``inject_pinned_job`` is released at ``now`` and
  competes from that instant under the level-A order of its CPU;
* G4 — ``clock`` and ``monitor`` are read through the attribute at
  every use, so an object swapped in before ``start()`` sees every call.

A plug-in relies on nothing else, and keeps its side: it swaps
``clock`` / ``monitor`` only while ``started`` is false, schedules no
callback before ``now``, and injects only what
:func:`~repro.sim.kernel.check_pinned_job` accepts.  A third backend
registers a builder with the same signature::

    from repro.sim.backend import kernel_backend_registry
    kernel_backend_registry.register("mine", _build_mine)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.runtime.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.behavior import ExecutionBehavior
    from repro.model.taskset import TaskSet
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.sim.kernel import KernelConfig

__all__ = ["KernelBuilder", "kernel_backend_registry", "create_kernel"]

#: ``(taskset, behavior, config, tracer, metrics) -> kernel``
KernelBuilder = Callable[..., object]

kernel_backend_registry: Registry[KernelBuilder] = Registry("kernel backend")


def _build_reference(taskset, behavior, config, tracer, metrics):
    from repro.sim.kernel import MC2Kernel

    return MC2Kernel(
        taskset, behavior=behavior, config=config, tracer=tracer, metrics=metrics
    )


def _build_soa(taskset, behavior, config, tracer, metrics):
    # Imported lazily: the SoA module is only paid for when selected.
    from repro.sim.soa import SoAKernel

    return SoAKernel(
        taskset, behavior=behavior, config=config, tracer=tracer, metrics=metrics
    )


kernel_backend_registry.register("reference", _build_reference)
kernel_backend_registry.register("soa", _build_soa)


def create_kernel(
    taskset: "TaskSet",
    behavior: Optional["ExecutionBehavior"] = None,
    config: Optional["KernelConfig"] = None,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
):
    """Build the kernel backend selected by ``config.backend``.

    Raises ``ValueError`` (listing the registered names) for an unknown
    backend.
    """
    backend = config.backend if config is not None else "reference"
    builder = kernel_backend_registry.get(backend)
    return builder(taskset, behavior, config, tracer, metrics)
