"""One closed batch of one workload, in a fresh interpreter.

``run.py`` launches this file once per batch::

    python3 campaign_bench/batch.py --workload W --seed N --batch B \\
        --workdir DIR --launch-ns T --trace 0|1 --out RESULT.json

It imports the simulator, builds the batch's cell list from the seed,
brings up the workload's executor, hands it the whole list, waits for the
merged artifact and its provenance manifest, then checks every cell and
writes one JSON result (timestamps, per-cell wall times and statistics,
failed positions, peak memory).  ``--launch-ns`` is the launcher's
``CLOCK_MONOTONIC`` reading just before this interpreter started, so set-up
time includes interpreter start and ``import repro``.

``--pins`` instead executes every pinned batch of the default seed cell by
cell in this process and writes ``pins/<workload>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import random
import resource
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from metrics import failed_positions

_now = time.monotonic_ns

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PLAN = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
DEFAULT_SEED = PLAN["default_seed"]
#: Worker processes of the multi-process executors: two, or fewer on a
#: host with fewer CPUs.
WORKERS = min(2, os.cpu_count() or 1)


def batch_seed(seed: int, batch: int) -> int:
    """The generator/traffic/campaign seed of batch *batch* of a run."""
    return (seed * 100_003 + batch * 1_009) % (2**32)


# ----------------------------------------------------------------------
# Cell lists (the program only ever sees these generated specs)
# ----------------------------------------------------------------------
def paper_cells(base: int) -> list:
    """Figs. 6-8 grid: SIMPLE/ADAPTIVE x SHORT/LONG/DOUBLE x 0.2..1.0 x sets."""
    from repro.experiments.figures import DEFAULT_SWEEP_VALUES
    from repro.runtime.spec import KernelSpec, MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
    from repro.workload.generator import taskset_seeds
    from repro.workload.scenarios import standard_scenarios

    w = PLAN["workloads"]["paper-serial"]
    kernel = KernelSpec(backend="soa")
    return [
        RunSpec(
            taskset=TaskSetSpec.generated(s),
            scenario=ScenarioSpec.from_scenario(sc),
            monitor=MonitorSpec(kind, x),
            kernel=kernel,
            horizon=w["horizon"],
        )
        for kind in ("simple", "adaptive")
        for sc in standard_scenarios()
        for x in DEFAULT_SWEEP_VALUES
        for s in taskset_seeds(w["tasksets_per_batch"], base)
    ]


def traffic_cells(base: int) -> list:
    """Fig. T1 Poisson load sweep + Fig. T2 MMPP burst sweep, CALM."""
    from repro.experiments.traffic import (
        DEFAULT_BURSTS_PER_CPU,
        DEFAULT_LOADS_PER_CPU,
        DEFAULT_TRAFFIC_MONITORS,
        mmpp_traffic,
        poisson_traffic,
    )
    from repro.runtime.spec import KernelSpec, RunSpec, ScenarioSpec, TaskSetSpec
    from repro.workload.generator import taskset_seeds
    from repro.workload.scenarios import CALM

    w = PLAN["workloads"]["traffic-pool"]
    m = w["m"]
    traffics = [poisson_traffic(x, m, seed=base) for x in DEFAULT_LOADS_PER_CPU]
    traffics += [mmpp_traffic(x, m, seed=base) for x in DEFAULT_BURSTS_PER_CPU]
    kernel = KernelSpec(backend="soa")
    return [
        RunSpec(
            taskset=TaskSetSpec.generated(s),
            scenario=ScenarioSpec.from_scenario(CALM),
            monitor=mon,
            kernel=kernel,
            horizon=w["horizon"],
            traffic=t,
        )
        for mon in DEFAULT_TRAFFIC_MONITORS
        for t in traffics
        for s in taskset_seeds(w["tasksets_per_batch"], base)
    ]


def faults_cells(base: int) -> list:
    """A seeded fault campaign: its faulted cells, then their fault-free baselines.

    Each queued ``MonitorOutage`` becomes a dropping one over the same
    window.  Flushing a queue replays completions with their stale
    completion times, and the reference kernel then raises on some plans
    (the ``known_defect`` of this workload in workloads.json); every
    other fault is the campaign's own.
    """
    from repro.faults.campaign import CampaignConfig, build_campaign
    from repro.faults.spec import MonitorOutage

    def dropped(fault):
        queued = isinstance(fault, MonitorOutage) and fault.mode == "queue"
        return dataclasses.replace(fault, mode="drop") if queued else fault

    w = PLAN["workloads"]["faults-sharded"]
    cells = build_campaign(
        CampaignConfig(
            seed=base,
            cells=w["faulted_cells_per_batch"],
            tasksets=w["tasksets_per_batch"],
            horizon=w["horizon"],
        )
    )
    return [
        dataclasses.replace(
            c, plan=dataclasses.replace(c.plan, faults=tuple(map(dropped, c.plan.faults)))
        )
        for c in cells
    ]


def calm_cells(base: int) -> list:
    """CALM control sweep: light/medium/heavy sets x SIMPLE(0.6), ADAPTIVE(0.5)."""
    from repro.runtime.spec import KernelSpec, MonitorSpec, RunSpec, ScenarioSpec, TaskSetSpec
    from repro.workload.distributions import UNIFORM_RANGES
    from repro.workload.generator import GeneratorParams, taskset_seeds
    from repro.workload.scenarios import CALM

    w = PLAN["workloads"]["calm-service"]
    kernel = KernelSpec(backend="soa")
    monitors = (MonitorSpec("simple", 0.6), MonitorSpec("adaptive", 0.5))
    return [
        RunSpec(
            taskset=TaskSetSpec.generated(s, GeneratorParams(util_range=UNIFORM_RANGES[family])),
            scenario=ScenarioSpec.from_scenario(CALM),
            monitor=mon,
            kernel=kernel,
            horizon=w["horizon"],
        )
        for family in ("light", "medium", "heavy")
        for s in taskset_seeds(w["tasksets_per_batch"], base)
        for mon in monitors
    ]


CELLS: Dict[str, Callable[[int], list]] = {
    "paper-serial": paper_cells,
    "traffic-pool": traffic_cells,
    "faults-sharded": faults_cells,
    "calm-service": calm_cells,
}


# ----------------------------------------------------------------------
# Statistics the result check compares (never keys or backend labels)
# ----------------------------------------------------------------------
def run_stats(result) -> Dict[str, Any]:
    """Statistics of a ``RunResult`` (or the same fields of a ``CellOutcome``)."""
    doc = {
        "dissipation": result.dissipation,
        "truncated": result.truncated,
        "min_speed": result.min_speed,
        "misses": result.miss_count,
        "episodes": result.episodes,
        "sim_end": result.sim_end,
        "events": result.events,
    }
    sojourn = getattr(result, "sojourn", None)
    if sojourn is not None:
        doc["sojourn"] = dataclasses.asdict(sojourn)
    return doc


def outcome_stats(outcome) -> Dict[str, Any]:
    """Statistics of a ``CellOutcome``, with its fingerprint and violations."""
    doc = run_stats(outcome)
    doc["fingerprint"] = outcome.fingerprint
    doc["violations"] = [v.to_dict() for v in outcome.violations]
    return doc


def doc_stats(kind: str, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Statistics of one cell document as stored in a merged artifact."""
    if kind == "faults":
        from repro.faults.campaign import CellOutcome

        return outcome_stats(CellOutcome.from_dict(doc))
    from repro.io.results_json import run_result_from_dict

    return run_stats(run_result_from_dict(doc))


def other_backend(cell) -> Optional[str]:
    """The backend a sampled cell is re-run on; ``None`` if it cannot move.

    soa has no fault plane, so a cell with faults stays on reference.
    """
    plan = getattr(cell, "plan", None)
    if plan is not None and not plan.is_empty:
        return None
    return {"soa": "reference", "reference": "soa"}[getattr(cell, "run", cell).kernel.backend]


def execute(cell, backend: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """Statistics of *cell* executed in this process; ``None`` if it raises.

    *backend* replaces the cell's own kernel backend when given.
    """
    from repro.faults.campaign import CampaignCell, run_cell
    from repro.runtime.executor import run_spec

    run = getattr(cell, "run", cell)
    if backend is not None:
        run = dataclasses.replace(run, kernel=dataclasses.replace(run.kernel, backend=backend))
    try:
        if isinstance(cell, CampaignCell):
            return outcome_stats(run_cell(CampaignCell(run=run, plan=cell.plan)))
        return run_stats(run_spec(run))
    except Exception:
        return None


# ----------------------------------------------------------------------
# Executors: bring up, run one closed batch, tear down
# ----------------------------------------------------------------------
class _FirstCall:
    """Stamps the first return of ``owner.attr`` (e.g. the dispatch instant)."""

    def __init__(self, owner: Any, attr: str) -> None:
        self.owner = owner
        self.attr = attr
        self.original = vars(owner)[attr]
        self.ns: Optional[int] = None
        original = self.original

        def stamped(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.ns is None:
                self.ns = _now()
            return result

        setattr(owner, attr, stamped)

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.original)


@dataclasses.dataclass
class Outcome:
    stats: List[Optional[Dict[str, Any]]]
    walls_ns: List[int]
    artifact: pathlib.Path
    kind: str
    retries: int = 0
    shards: int = 0


class Executor:
    """Serial / pool base: ``make_executor`` with ``merged_out``."""

    workers = 1

    def __init__(self, workdir: pathlib.Path, trace: bool) -> None:
        self.workdir = workdir
        self.trace = trace
        self.children_rss_kb = 0
        self.stamp: Optional[_FirstCall] = None

    def start(self) -> None:
        from repro.runtime.executor import make_executor

        self.artifact = self.workdir / "merged.json"
        self.executor = make_executor(jobs=self.workers, merged_out=str(self.artifact))

    def run(self, cells: list) -> Outcome:
        results = self.executor.run(cells)
        st = self.executor.stats
        return Outcome(
            stats=[run_stats(r) for r in results],
            walls_ns=[c.wall_ns for c in self.executor.report.cells],
            artifact=self.artifact,
            kind="sweep",
            retries=st.pool_retried + st.pool_breaks,
        )

    def stop(self) -> None:
        if self.stamp is not None:
            self.stamp.restore()
        if self.workers > 1:
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            self.children_rss_kb = self.workers * peak


class PoolExecutor(Executor):
    workers = WORKERS

    def start(self) -> None:
        import concurrent.futures

        super().start()
        self.stamp = _FirstCall(concurrent.futures.ProcessPoolExecutor, "submit")


class ShardedExecutor(Executor):
    """``run_sharded_campaign`` with two file-queue worker processes."""

    workers = WORKERS

    def start(self) -> None:
        import concurrent.futures

        self.root = self.workdir / "campaigns"
        self.stamp = _FirstCall(concurrent.futures.ProcessPoolExecutor, "submit")

    def run(self, cells: list) -> Outcome:
        from repro.runtime.shard import CampaignStore, run_sharded_campaign

        scorecard, cdir, stats = run_sharded_campaign(cells, self.root, jobs=self.workers)
        store = CampaignStore(cdir)
        campaign = store.load()
        walls: List[int] = []
        for shard in campaign.shards:
            walls.extend(int(w) for w in store.read_manifest(shard)["wall_ns"])
        return Outcome(
            stats=[outcome_stats(o) for o in scorecard.outcomes],
            walls_ns=walls,
            artifact=store.merged_path,
            kind="faults",
            retries=stats.pool_breaks,
            shards=len(campaign.shards),
        )


class ServiceExecutor(Executor):
    """A local coordinator and two workers, driven by ``make_executor(service_addr=...)``."""

    workers = WORKERS

    def _python(self, args: List[str], log: pathlib.Path) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
        )
        with open(log, "wb") as out:
            return subprocess.Popen(
                [sys.executable, "-u", *args],
                stdout=out,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
                cwd=str(self.workdir),
            )

    def start(self) -> None:
        from repro.runtime.executor import make_executor
        from repro.serve.client import ServiceClient
        from repro.serve.protocol import read_port_file

        self.procs: List[subprocess.Popen] = []
        self.root = self.workdir / "serve-root"
        port_file = self.workdir / "serve.port"
        # The same repro-mc2 arguments either way; traced processes go
        # through serve_entry.py, which installs the span wrappers first.
        cli = ["-m", "repro.cli"]
        worker_cli = cli
        if self.trace:
            cli = [str(HERE / "serve_entry.py"), "--spans", str(self.workdir / "spans")]
            worker_cli = cli + ["--cells", str(self.workdir / "cells.json")]
        coordinator = cli + ["serve", "--root", str(self.root), "--port-file", str(port_file)]
        self.procs.append(self._python(coordinator, self.workdir / "coordinator.log"))
        port = read_port_file(str(port_file), timeout=60.0)
        self.addr = f"127.0.0.1:{port}"
        logs = []
        for i in range(self.workers):
            worker = worker_cli + ["worker", "--connect", self.addr,
                                   "--cache-dir", str(self.workdir / f"cache-{i}")]
            logs.append(self.workdir / f"worker-{i}.log")
            self.procs.append(self._python(worker, logs[-1]))
        deadline = time.monotonic() + 60.0
        for log in logs:
            while b"worker connecting" not in log.read_bytes():
                if time.monotonic() > deadline:
                    raise RuntimeError(f"service worker did not come up ({log.name})")
                time.sleep(0.005)
        self.executor = make_executor(service_addr=self.addr)
        self.stamp = _FirstCall(ServiceClient, "submit")

    def run(self, cells: list) -> Outcome:
        from repro.runtime.shard import iter_campaign_dirs

        results = self.executor.run(cells)
        (cdir,) = iter_campaign_dirs(self.root)
        return Outcome(
            stats=[run_stats(r) for r in results],
            walls_ns=[c.wall_ns for c in self.executor.report.cells],
            artifact=cdir / "merged.json",
            kind="sweep",
        )

    def stop(self) -> None:
        if self.stamp is not None:
            self.stamp.restore()
        procs = getattr(self, "procs", [])
        # Workers first, so none is left polling a vanished coordinator.
        for proc in procs[1:] + procs[:1]:
            self.children_rss_kb += _stop(proc)


def _stop(proc: subprocess.Popen, grace_s: float = 20.0) -> int:
    """SIGINT *proc*, reap it (SIGKILL after *grace_s*); its peak RSS in KiB."""
    if proc.returncode is None:
        try:
            proc.send_signal(signal.SIGINT)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        time.sleep(0.01)


EXECUTORS = {
    "paper-serial": Executor,
    "traffic-pool": PoolExecutor,
    "faults-sharded": ShardedExecutor,
    "calm-service": ServiceExecutor,
}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_artifact(out: Outcome) -> Tuple[List[Optional[dict]], bool]:
    """Per-cell stats as stored in the merged artifact, and the manifest verdict."""
    from repro.provenance import provenance_path, verify_manifest

    report = verify_manifest(provenance_path(out.artifact), reexecute=False)
    doc = json.loads(out.artifact.read_text(encoding="utf-8"))
    docs = doc["outcomes" if out.kind == "faults" else "results"]
    stored: List[Optional[dict]] = [doc_stats(out.kind, d) for d in docs]
    for check in report.checked:
        if check.pos < len(stored):
            stored[check.pos] = None
    return stored, report.ok or bool(report.checked and not report.error)


def load_pins(workload: str) -> List[List[dict]]:
    path = HERE / "pins" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["batches"]


def failed_cells(
    workload: str, seed: int, batch: int, cells: list, out: Outcome
) -> Tuple[List[int], List[str]]:
    """Positions that fail any check, with one reason line per failure kind."""
    failed = set()
    reasons: List[str] = []

    def note(bad: List[int], why: str) -> None:
        new = [p for p in bad if p not in failed]
        if new:
            failed.update(new)
            reasons.append(f"{why}: {len(new)} cell(s), first at {new[0]}")

    n = len(cells)
    note(failed_positions(out.stats, [None] * n), "executor returned no result")
    stored, manifest_ok = check_artifact(out)
    if not manifest_ok:
        note(list(range(n)), "provenance manifest does not verify")
    note(failed_positions(stored, out.stats), "merged artifact disagrees with results")
    if seed == DEFAULT_SEED:
        pins = load_pins(workload)
        if batch < len(pins):
            note(failed_positions(out.stats, pins[batch]), "pinned statistics differ")
    movable = [p for p in range(n) if other_backend(cells[p])]
    k = min(len(movable), PLAN["workloads"][workload]["check_sample"])
    sample = sorted(random.Random(f"{workload}|{seed}|{batch}").sample(movable, k))
    bad = [p for p in sample if out.stats[p] != execute(cells[p], other_backend(cells[p]))]
    note(bad, "re-run on the other backend differs")
    return sorted(failed), reasons


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_batch(args: argparse.Namespace) -> Dict[str, Any]:
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    import repro  # noqa: F401  (the set-up cost users pay)

    t_import = _now()
    log = None
    if args.trace:
        import tracing

        log = tracing.SpanLog(str(workdir / "spans"), "batch", args.workload)
        tracing.install(log)
    cells = CELLS[args.workload](batch_seed(args.seed, args.batch))
    if log is not None:
        log.positions = {cell: i for i, cell in enumerate(cells)}
        if args.workload == "calm-service":
            from repro.io.runspec_json import runspec_to_dict

            (workdir / "cells.json").write_text(
                json.dumps([runspec_to_dict(c) for c in cells]), encoding="utf-8"
            )
    t_built = _now()
    from repro.runtime.shard import ShardedCampaign

    executor = EXECUTORS[args.workload](workdir, bool(args.trace))
    result: Dict[str, Any] = {"cells": len(cells)}
    # The file queue and the service key the cell list inside run(), in
    # ShardedCampaign(), after the executor is up and before dispatch.
    keyed = _FirstCall(ShardedCampaign, "__init__")
    try:
        executor.start()
        t_ready = _now()
        phase = log.open(tracing.LAYERS.index("phase")) if log is not None else None
        out = executor.run(cells)
        t_done = _now()
        if phase is not None:
            log.close(phase)
        batch_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t_dispatch = executor.stamp.ns if executor.stamp and executor.stamp.ns else t_ready
        t_keyed = keyed.ns if keyed.ns is not None and keyed.ns <= t_dispatch else t_ready
    finally:
        keyed.restore()
        executor.stop()
    if log is not None:
        tracing.uninstall()
        log.dump()
    failed, reasons = failed_cells(args.workload, args.seed, args.batch, cells, out)
    result.update(
        t_launch=args.launch_ns,
        t_import=t_import,
        t_built=t_built,
        t_ready=t_ready,
        t_keyed=t_keyed,
        t_dispatch=t_dispatch,
        t_done=t_done,
        walls_ns=out.walls_ns,
        stats=out.stats,
        failed=failed,
        reasons=reasons,
        rss_kb=batch_rss_kb + executor.children_rss_kb,
        workers=executor.workers,
        retries=out.retries,
        shards=out.shards,
    )
    return result


def write_pins(workload: str) -> pathlib.Path:
    """Execute every pinned batch of the default seed serially; store stats.

    Nothing is written if a cell raises.
    """
    import repro  # noqa: F401

    batches = []
    for b in range(PLAN["max_batches"]):
        cells = CELLS[workload](batch_seed(DEFAULT_SEED, b))
        batches.append([execute(c) for c in cells])
        raised = [i for i, doc in enumerate(batches[-1]) if doc is None]
        if raised:
            raise SystemExit(f"{workload}: batch {b} cells {raised} raised; nothing pinned")
        print(f"{workload}: pinned batch {b} ({len(cells)} cells)", flush=True)
    path = HERE / "pins" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(pins_text(workload, batches), encoding="utf-8")
    return path


def pins_text(workload: str, batches: List[List[Optional[dict]]]) -> str:
    """The pins document, one cell's statistics per line."""
    def cell(doc: Optional[dict]) -> str:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    blocks = [" [\n" + ",\n".join("  " + cell(c) for c in batch) + "\n ]" for batch in batches]
    head = json.dumps({"workload": workload, "seed": DEFAULT_SEED})
    return head[:-1] + ', "batches": [\n' + ",\n".join(blocks) + "\n]}\n"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CELLS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--batch", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--launch-ns", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--pins", action="store_true")
    args = ap.parse_args(argv)
    # Started from a background job, this process inherits SIGINT ignored,
    # and so would the service processes it starts, which are stopped by
    # SIGINT; with a handler here they start with the default action.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.pins:
        write_pins(args.workload)
        return 0
    if not (args.workdir and args.out):
        ap.error("--workdir and --out are required for a batch")
    result = run_batch(args)
    tmp = pathlib.Path(args.out + ".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
