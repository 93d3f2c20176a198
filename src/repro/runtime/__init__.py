"""Declarative run specifications and sweep executors.

The paper's evaluation is a grid — scenario x parameter x task set — and
every figure, benchmark and CLI sweep walks some slice of it.  This
package turns one grid cell into a frozen, hashable, picklable
:class:`~repro.runtime.spec.RunSpec` and provides the machinery to run
many of them:

* :mod:`repro.runtime.registry` — a string-keyed plugin registry for
  monitor policies, so extensions register themselves instead of
  patching ``if``/``elif`` chains in core modules;
* :mod:`repro.runtime.spec` — ``RunSpec`` and its component specs
  (task-set reference, scenario, monitor, kernel knobs), all plain
  frozen dataclasses with canonical JSON forms (:mod:`repro.io.runspec_json`);
* :mod:`repro.runtime.cache` — a content-addressed on-disk result cache
  keyed by the sha256 of a spec's canonical JSON;
* :mod:`repro.runtime.executor` — ``SerialBackend`` and
  ``ProcessPoolBackend`` sweep executors that check the cache, simulate
  only the missing cells, and report how much work they actually did;
* :mod:`repro.runtime.shard` — the checkpointed, sharded campaign
  orchestrator (``ShardedBackend``, ``run_sharded_campaign``,
  ``resume_campaign``): content-addressed shards, lease files, atomic
  per-shard manifests and streaming merges, so a killed sweep resumes
  from its completed shards instead of restarting.
"""

from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    ProcessPoolBackend,
    SerialBackend,
    SweepExecutor,
    SweepStats,
    make_executor,
    run_spec,
)
from repro.runtime.registry import (
    MonitorKind,
    Registry,
    monitor_registry,
)
from repro.runtime.shard import (
    CampaignStore,
    ShardedBackend,
    ShardedCampaign,
    WorkStats,
    campaign_status,
    iter_campaign_dirs,
    prepare_campaign,
    resume_campaign,
    run_sharded_campaign,
)
from repro.runtime.spec import (
    KernelSpec,
    MonitorSpec,
    ObsSpec,
    RunSpec,
    ScenarioSpec,
    TaskSetSpec,
)

__all__ = [
    "Registry",
    "MonitorKind",
    "monitor_registry",
    "TaskSetSpec",
    "ScenarioSpec",
    "MonitorSpec",
    "KernelSpec",
    "ObsSpec",
    "RunSpec",
    "ResultCache",
    "SweepExecutor",
    "SweepStats",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_executor",
    "run_spec",
    "ShardedCampaign",
    "CampaignStore",
    "ShardedBackend",
    "WorkStats",
    "prepare_campaign",
    "iter_campaign_dirs",
    "campaign_status",
    "run_sharded_campaign",
    "resume_campaign",
]
