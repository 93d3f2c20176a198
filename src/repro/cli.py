"""Command-line interface: ``python -m repro.cli`` (or ``repro-mc2``).

Subcommands:

* ``generate`` — emit a Sec. 5 task set as JSON;
* ``analyze``  — schedulability test + response-time bounds for a task
  set (from a file or freshly generated);
* ``simulate`` — run one overload-recovery experiment and print its
  metrics (optionally as JSON);
* ``figures``  — regenerate one of the paper's figures;
* ``trace``    — summarize or convert JSONL event traces
  (:mod:`repro.obs`);
* ``faults``   — fault-injection campaigns, scorecards, failing-plan
  shrinking and repro replay (:mod:`repro.faults`);
* ``sweep``    — checkpointed-campaign management: ``resume`` drives any
  interrupted campaign under a directory to completion, ``status``
  reports per-shard progress (:mod:`repro.runtime.shard`);
* ``status`` / ``top`` — live fleet dashboards over a campaign
  directory's telemetry streams (:mod:`repro.obs.telemetry`), rendered
  from the files alone — no coordinator process; ``--watch`` refreshes,
  ``--prom-out`` / ``--snapshot-out`` export Prometheus / canonical
  JSON.  ``status --service HOST:PORT`` asks a running coordinator
  instead of reading files;
* ``serve`` / ``worker`` / ``submit`` / ``jobs`` — the distributed
  campaign service (:mod:`repro.serve`): ``serve`` runs the
  coordinator over a campaign root, ``worker`` connects an execution
  client, ``submit`` registers a campaign document, ``jobs`` lists
  per-campaign progress.  Sweeps route through the fabric with
  ``--service HOST:PORT`` on ``simulate``/``figures``/``traffic``.

Examples::

    repro-mc2 generate --seed 2015 -o ts.json
    repro-mc2 analyze ts.json
    repro-mc2 simulate ts.json --scenario SHORT --monitor simple:0.6
    repro-mc2 simulate --trace-dir traces/ --metrics-out run.json
    repro-mc2 figures --figure 6 --tasksets 5
    repro-mc2 figures --figure 7 --jobs 4 --cache-dir ~/.cache/repro-mc2
    repro-mc2 trace summarize traces/run-0123abcd4567.jsonl
    repro-mc2 trace convert traces/run-0123abcd4567.jsonl -o chrome.json
    repro-mc2 faults run --cells 50 --jobs 4 -o scorecard.json
    repro-mc2 faults run --fault-free --cells 200 --jobs 4
    repro-mc2 faults run --cells 50 --checkpoint-dir ckpt/ --jobs 4
    repro-mc2 faults resume ckpt/ --jobs 4
    repro-mc2 faults report scorecard.json
    repro-mc2 faults shrink scorecard.json -o repro.json
    repro-mc2 faults replay repro.json
    repro-mc2 figures --figure 7 --jobs 4 --checkpoint-dir ckpt/
    repro-mc2 sweep status ckpt/
    repro-mc2 sweep resume ckpt/ --jobs 4
    repro-mc2 faults run --cells 50 --checkpoint-dir ckpt/ --jobs 4 --telemetry
    repro-mc2 status ckpt/ --watch
    repro-mc2 top ckpt/
    repro-mc2 status ckpt/ --prom-out metrics.prom --snapshot-out telemetry.json
    repro-mc2 serve --root serve-root/ --port 7777
    repro-mc2 worker --connect 127.0.0.1:7777 --cache-dir ~/.cache/repro-mc2
    repro-mc2 submit serve-root/abc123/campaign.json --connect 127.0.0.1:7777 --wait
    repro-mc2 jobs --connect 127.0.0.1:7777
    repro-mc2 figures --figure 7 --service 127.0.0.1:7777
    repro-mc2 status --service 127.0.0.1:7777 --json

``simulate`` and ``figures`` build declarative
:class:`~repro.runtime.spec.RunSpec` grids and submit them through a
:mod:`repro.runtime.executor` backend: ``--jobs N`` fans the sweep out
over N worker processes, ``--cache-dir`` reuses previously simulated
cells by content address (a re-run of an unchanged grid simulates
nothing), and ``--checkpoint-dir`` makes the sweep *durable* — cells
are executed in content-addressed shards whose results land atomically
on disk, so a killed run (any signal, any worker) is resumed from its
completed shards by ``repro-mc2 sweep resume``.  Observability flags
are observation-only: ``--trace-dir``
streams one JSONL event trace per simulated cell, ``--metrics-out``
archives the per-cell sweep report, ``--progress`` reports live sweep
progress on stderr — none of them changes any result or cache key.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro.analysis.bounds import gel_response_bounds
from repro.analysis.schedulability import check_level_c
from repro.experiments.figures import (
    DEFAULT_SWEEP_VALUES,
    adaptive_sweep,
    figure6,
    figure7,
    figure8,
)
from repro.experiments.overhead import measure_overheads
from repro.io.results_json import run_result_to_dict
from repro.io.taskset_json import taskset_from_json, taskset_to_json
from repro.model.task import CriticalityLevel
from repro.model.taskset import TaskSet
from repro.obs.progress import ProgressReporter
from repro.runtime.executor import SweepExecutor, make_executor
from repro.runtime.spec import (
    KernelSpec,
    MonitorSpec,
    ObsSpec,
    RunSpec,
    ScenarioSpec,
    TaskSetSpec,
)
from repro.sim.backend import kernel_backend_registry
from repro.workload.generator import (
    GeneratorParams,
    generate_taskset,
    generate_tasksets,
    taskset_seeds,
)
from repro.workload.scenarios import DOUBLE, LONG, SHORT

__all__ = ["main", "build_parser", "parse_monitor"]

_SCENARIOS = {"SHORT": SHORT, "LONG": LONG, "DOUBLE": DOUBLE}


def parse_monitor(text: str) -> MonitorSpec:
    """Parse ``kind[:param[:extra]]``, e.g. ``simple:0.6`` or ``clamped:0.6:0.3``."""
    parts = text.split(":")
    kind = parts[0].lower()
    param = float(parts[1]) if len(parts) > 1 else 1.0
    extra = float(parts[2]) if len(parts) > 2 else None
    return MonitorSpec(kind, param, extra)


def _load_taskset(path: Optional[str], seed: int, m: int) -> TaskSet:
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return taskset_from_json(fh.read())
    return generate_taskset(seed, GeneratorParams(m=m))


def _taskset_spec(path: Optional[str], seed: int, m: int) -> TaskSetSpec:
    """The :class:`TaskSetSpec` matching :func:`_load_taskset`'s choice."""
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return TaskSetSpec(inline=fh.read())
    return TaskSetSpec.generated(seed, GeneratorParams(m=m))


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the sweep (default: 1, serial)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed result cache; re-runs only "
                             "simulate cells whose spec changed")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="stream one JSONL event trace per simulated cell "
                             "into DIR (observation only; cached cells are "
                             "not re-simulated and leave no trace)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the per-cell sweep report + executor "
                             "metrics as JSON to FILE")
    parser.add_argument("--progress", action="store_true",
                        help="report live sweep progress (done/total, cache "
                             "hit rate, ETA) on stderr")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="checkpoint the sweep into content-addressed "
                             "shards under DIR; a killed run resumes from "
                             "completed shards (repro-mc2 sweep resume DIR)")
    parser.add_argument("--shard-size", type=int, default=16, metavar="N",
                        help="cells per checkpoint shard (default: 16)")
    parser.add_argument("--telemetry", action="store_true",
                        help="write per-worker NDJSON telemetry streams "
                             "(with kernel phase profiles) into the campaign "
                             "directory for repro-mc2 status/top; requires "
                             "--checkpoint-dir (observation only; results "
                             "are identical)")
    parser.add_argument("--service", metavar="HOST:PORT",
                        help="route the sweep through a running repro-mc2 "
                             "serve coordinator instead of executing locally "
                             "(identical results and artifacts)")
    parser.add_argument("--merged-out", metavar="FILE",
                        help="also write the canonical merged artifact plus "
                             "its repro-provenance manifest (verifiable with "
                             "repro-mc2 verify) to FILE, on every backend")


def _make_executor(args: argparse.Namespace) -> SweepExecutor:
    progress = ProgressReporter() if args.progress else None
    return make_executor(jobs=args.jobs, cache_dir=args.cache_dir, progress=progress,
                         checkpoint_dir=args.checkpoint_dir,
                         shard_size=args.shard_size,
                         telemetry=args.telemetry,
                         service_addr=getattr(args, "service", None),
                         merged_out=getattr(args, "merged_out", None))


def _obs_spec(args: argparse.Namespace) -> ObsSpec:
    return ObsSpec(trace_dir=args.trace_dir)


def _write_metrics(path: str, executor: SweepExecutor) -> None:
    """Archive the sweep report (plus executor metrics) as JSON."""
    doc = executor.report.to_dict()
    doc["metrics"] = executor.metrics.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _warn_truncated(executor: SweepExecutor) -> None:
    """Flag cells whose recovery was still open at the horizon."""
    trunc = executor.report.truncated_cells
    if not trunc:
        return
    print(f"warning: {len(trunc)} of {executor.report.cells_total} cells hit "
          "the simulation horizon with recovery still open; their "
          "dissipation times are lower bounds, not measurements "
          "(a longer horizon would settle them)", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    ap = argparse.ArgumentParser(
        prog="repro-mc2",
        description="MC² overload recovery: analysis, simulation, reproduction.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a Sec. 5 task set as JSON")
    g.add_argument("--seed", type=int, default=2015)
    g.add_argument("--m", type=int, default=4, help="number of CPUs")
    g.add_argument("-o", "--output", help="output path (default: stdout)")

    a = sub.add_parser("analyze", help="schedulability + response-time bounds")
    a.add_argument("taskset", nargs="?", help="task-set JSON file")
    a.add_argument("--seed", type=int, default=2015)
    a.add_argument("--m", type=int, default=4)

    s = sub.add_parser("simulate", help="run one overload-recovery experiment")
    s.add_argument("taskset", nargs="?", help="task-set JSON file")
    s.add_argument("--seed", type=int, default=2015)
    s.add_argument("--m", type=int, default=4)
    s.add_argument("--scenario", choices=sorted(_SCENARIOS), default="SHORT")
    s.add_argument("--monitor", default="simple:0.6",
                   help="kind[:param[:extra]] (simple/adaptive/stepped/clamped/none)")
    s.add_argument("--horizon", type=float, default=30.0)
    s.add_argument("--no-budgets", action="store_true",
                   help="disable level-C execution budgets (harsher overload)")
    s.add_argument("--kernel-backend", choices=sorted(kernel_backend_registry.keys()),
                   default="reference",
                   help="simulator core (default: reference; soa is the "
                        "struct-of-arrays hot path, gated to byte-identical "
                        "traces). Part of the cache key when non-default.")
    s.add_argument("--json", action="store_true", help="emit the result as JSON")
    _add_executor_flags(s)

    f = sub.add_parser("figures", help="regenerate a paper figure")
    f.add_argument("--figure", choices=["6", "7", "8", "9"], required=True)
    f.add_argument("--tasksets", type=int, default=5)
    f.add_argument("--seed", type=int, default=2015)
    _add_executor_flags(f)

    tr = sub.add_parser(
        "traffic",
        help="open-system traffic sweep: overload from Poisson/MMPP "
             "request sources served by level-C/D server tasks",
    )
    tr.add_argument("--figure", choices=["load", "burst"], required=True,
                    help="load: dissipation vs offered load (Poisson); "
                         "burst: minimum s(t) vs burst size (MMPP)")
    tr.add_argument("--tasksets", type=int, default=5)
    tr.add_argument("--seed", type=int, default=2015)
    tr.add_argument("--m", type=int, default=8,
                    help="platform size in CPUs, 6-64 (default: 8); axes "
                         "are per-CPU so sweeps compare across sizes")
    tr.add_argument("--horizon", type=float, default=10.0)
    tr.add_argument("--traffic-seed", type=int, default=0,
                    help="seed for the arrival sources (default: 0)")
    tr.add_argument("--values", type=float, nargs="+", default=None,
                    metavar="X",
                    help="x-axis override: offered loads (load) or burst "
                         "sizes (burst), per CPU")
    _add_executor_flags(tr)

    t = sub.add_parser("trace", help="inspect or convert JSONL event traces")
    tsub = t.add_subparsers(dest="trace_command", required=True)
    tsum = tsub.add_parser("summarize",
                           help="event counts, time range and tasks of a trace")
    tsum.add_argument("file", help="JSONL trace file (from --trace-dir)")
    tsum.add_argument("--json", action="store_true", help="emit the summary as JSON")
    tconv = tsub.add_parser("convert",
                            help="convert to Chrome/Perfetto trace-event JSON")
    tconv.add_argument("file", help="JSONL trace file (from --trace-dir)")
    tconv.add_argument("-o", "--output", required=True,
                       help="output path (open in Perfetto or chrome://tracing)")

    fl = sub.add_parser("faults",
                        help="fault-injection campaigns and repro tooling")
    fsub = fl.add_subparsers(dest="faults_command", required=True)

    fr = fsub.add_parser("run", help="run a seeded fault campaign")
    fr.add_argument("--seed", type=int, default=2015,
                    help="master campaign seed (grid + plans)")
    fr.add_argument("--cells", type=int, default=50,
                    help="campaign cells (faulted mode appends one "
                         "fault-free baseline per distinct run spec)")
    fr.add_argument("--fault-free", action="store_true",
                    help="acceptance-gate mode: empty plans; exits "
                         "non-zero on any invariant violation")
    fr.add_argument("--tasksets", type=int, default=8,
                    help="task sets in the underlying grid")
    fr.add_argument("--m", type=int, default=4,
                    help="platform size assumed by CpuStall plans")
    fr.add_argument("--horizon", type=float, default=30.0)
    fr.add_argument("--max-faults", type=int, default=3,
                    help="maximum faults per random plan")
    fr.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes (default: 1, serial)")
    fr.add_argument("--trace-dir", metavar="DIR",
                    help="stream one JSONL event trace per cell into DIR")
    fr.add_argument("-o", "--out", metavar="FILE",
                    help="write the scorecard JSON to FILE")
    fr.add_argument("--progress", action="store_true",
                    help="report live campaign progress on stderr")
    fr.add_argument("--json", action="store_true",
                    help="emit the scorecard summary as JSON")
    fr.add_argument("--checkpoint-dir", metavar="DIR",
                    help="checkpoint the campaign into durable shards under "
                         "DIR; resume a killed run with faults resume DIR")
    fr.add_argument("--shard-size", type=int, default=16, metavar="N",
                    help="cells per checkpoint shard (default: 16)")
    fr.add_argument("--telemetry", action="store_true",
                    help="write per-worker telemetry streams (with kernel "
                         "phase profiles) into the campaign directory for "
                         "repro-mc2 status/top; requires --checkpoint-dir "
                         "(observation only)")

    fres = fsub.add_parser("resume",
                           help="re-attach to a checkpointed fault campaign "
                                "and drive it to completion")
    fres.add_argument("dir", help="checkpoint directory (or its root)")
    fres.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (default: 1)")
    fres.add_argument("--lease-ttl", type=float, default=60.0, metavar="SEC",
                      help="seconds after which a dead worker's shard lease "
                           "is stolen (default: 60)")
    fres.add_argument("--progress", action="store_true",
                      help="report live campaign progress on stderr")
    fres.add_argument("-o", "--out", metavar="FILE",
                      help="also write the merged scorecard JSON to FILE")
    fres.add_argument("--json", action="store_true",
                      help="emit the scorecard summary as JSON")
    fres.add_argument("--telemetry", action="store_true",
                      help="write per-worker telemetry streams while resuming "
                           "(observation only)")

    fp = fsub.add_parser("report", help="render a saved scorecard")
    fp.add_argument("scorecard", help="scorecard JSON (from faults run -o)")
    fp.add_argument("--json", action="store_true",
                    help="emit the summary as JSON")

    fs = fsub.add_parser("shrink",
                         help="shrink a violating campaign cell to a "
                              "minimal replayable repro")
    fs.add_argument("scorecard", help="scorecard JSON (from faults run -o)")
    fs.add_argument("--cell", metavar="KEYPREFIX",
                    help="cell key prefix (default: first violating cell)")
    fs.add_argument("-o", "--out", metavar="FILE", required=True,
                    help="write the repro artifact JSON to FILE")

    fy = fsub.add_parser("replay", help="re-execute a repro artifact")
    fy.add_argument("repro", help="repro JSON (from faults shrink -o)")
    fy.add_argument("--json", action="store_true",
                    help="emit the replay outcome as JSON")

    sw = sub.add_parser("sweep",
                        help="manage checkpointed campaigns "
                             "(resume interrupted runs, inspect shards)")
    swsub = sw.add_subparsers(dest="sweep_command", required=True)
    swr = swsub.add_parser("resume",
                           help="drive every unfinished campaign under a "
                                "directory to completion and merge")
    swr.add_argument("dir", help="campaign directory or checkpoint root")
    swr.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (default: 1)")
    swr.add_argument("--lease-ttl", type=float, default=60.0, metavar="SEC",
                     help="seconds after which a dead worker's shard lease "
                          "is stolen (default: 60)")
    swr.add_argument("--cache-dir", metavar="DIR",
                     help="content-addressed result cache for sweep cells")
    swr.add_argument("--progress", action="store_true",
                     help="report live progress on stderr")
    swr.add_argument("--telemetry", action="store_true",
                     help="write per-worker telemetry streams while resuming "
                          "(observation only)")
    sws = swsub.add_parser("status",
                           help="per-shard completion/ownership of every "
                                "campaign under a directory")
    sws.add_argument("dir", help="campaign directory or checkpoint root")
    sws.add_argument("--json", action="store_true",
                     help="emit the status as JSON")

    sv = sub.add_parser("serve",
                        help="run the repro-serve coordinator over a "
                             "campaign root (submit/lease/heartbeat/merge)")
    sv.add_argument("--root", required=True, metavar="DIR",
                    help="campaign root directory (created if missing; "
                         "same layout as --checkpoint-dir roots)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    sv.add_argument("--port", type=int, default=0, metavar="N",
                    help="TCP port (default: 0 = ephemeral)")
    sv.add_argument("--port-file", metavar="FILE",
                    help="write the bound port to FILE once listening "
                         "(for scripts using --port 0)")
    sv.add_argument("--lease-ttl", type=float, default=60.0, metavar="SEC",
                    help="seconds without a heartbeat before a worker's "
                         "shard lease is re-granted (default: 60)")
    sv.add_argument("--verify-fraction", type=float, default=0.0, metavar="F",
                    help="re-execute this seeded fraction of each worker's "
                         "committed cells before accepting a shard; a "
                         "divergent shard is re-queued and its worker "
                         "quarantined (default: 0 = trust workers)")
    sv.add_argument("--verify-seed", type=int, default=0, metavar="N",
                    help="seed for the verification sample (default: 0)")

    wk = sub.add_parser("worker",
                        help="connect a worker to a repro-serve coordinator: "
                             "lease shards, execute, stream results")
    wk.add_argument("--connect", required=True, metavar="HOST:PORT",
                    help="coordinator address (or a bare port on localhost)")
    wk.add_argument("--owner", metavar="NAME",
                    help="worker identity (default: host:pid)")
    wk.add_argument("--once", action="store_true",
                    help="exit once every registered campaign is drained "
                         "(default: keep waiting for new campaigns)")
    wk.add_argument("--cache-dir", metavar="DIR",
                    help="content-addressed result cache for sweep cells")
    wk.add_argument("--telemetry", action="store_true",
                    help="relay repro-telemetry records to the coordinator "
                         "so status/top on the serve root see this worker")

    sm = sub.add_parser("submit",
                        help="register a campaign document with a "
                             "running coordinator")
    sm.add_argument("campaign", help="campaign JSON file (a campaign.json "
                                     "document, e.g. from --checkpoint-dir)")
    sm.add_argument("--connect", required=True, metavar="HOST:PORT",
                    help="coordinator address")
    sm.add_argument("--wait", action="store_true",
                    help="block until every shard of the campaign is done")
    sm.add_argument("--timeout", type=float, default=None, metavar="SEC",
                    help="--wait deadline (default: none)")
    sm.add_argument("--json", action="store_true",
                    help="emit the submission acknowledgement as JSON")

    jb = sub.add_parser("jobs",
                        help="list a coordinator's campaigns and progress")
    jb.add_argument("--connect", required=True, metavar="HOST:PORT",
                    help="coordinator address")
    jb.add_argument("--json", action="store_true",
                    help="emit the campaign list as JSON")

    st = sub.add_parser("status",
                        help="live campaign dashboard (shards + telemetry), "
                             "reconstructed from the campaign files alone "
                             "or fetched from a coordinator (--service)")
    st.add_argument("dir", nargs="?",
                    help="campaign directory or checkpoint root "
                         "(omit when using --service)")
    st.add_argument("--service", metavar="HOST:PORT",
                    help="ask a running repro-mc2 serve coordinator instead "
                         "of reading campaign files")
    st.add_argument("--watch", action="store_true",
                    help="refresh the dashboard until interrupted")
    st.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                    help="--watch refresh interval (default: 2.0)")
    st.add_argument("--ttl", type=float, default=15.0, metavar="SEC",
                    help="seconds of telemetry silence before a worker "
                         "counts as stale (default: 15)")
    st.add_argument("--json", action="store_true",
                    help="emit the telemetry aggregate as JSON")
    st.add_argument("--prom-out", metavar="FILE",
                    help="also write a Prometheus textfile export to FILE")
    st.add_argument("--snapshot-out", metavar="FILE",
                    help="also write the canonical JSON aggregate to FILE")

    tp = sub.add_parser("top",
                        help="per-worker telemetry table (cells/s, events/s, "
                             "RSS) for a campaign directory")
    tp.add_argument("dir", help="campaign directory or checkpoint root")
    tp.add_argument("--watch", action="store_true",
                    help="refresh the table until interrupted")
    tp.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                    help="--watch refresh interval (default: 2.0)")
    tp.add_argument("--ttl", type=float, default=15.0, metavar="SEC",
                    help="staleness threshold in seconds (default: 15)")

    vf = sub.add_parser("verify",
                        help="attest a merged artifact against its "
                             "repro-provenance manifest: hash check, "
                             "per-cell digests, seeded re-execution")
    vf.add_argument("manifest",
                    help="a *.provenance.json manifest (or a campaign "
                         "directory containing merged.provenance.json)")
    vf.add_argument("--all", action="store_true",
                    help="re-execute every cell instead of a seeded sample")
    vf.add_argument("--sample", type=int, default=4, metavar="N",
                    help="cells to re-execute when not --all (default: 4)")
    vf.add_argument("--sample-seed", type=int, default=0, metavar="N",
                    help="seed for the re-execution sample (default: 0)")
    vf.add_argument("--campaign", metavar="FILE",
                    help="campaign document for re-execution (default: "
                         "campaign.json / <artifact>.campaign.json next "
                         "to the manifest)")
    vf.add_argument("--artifact", metavar="FILE",
                    help="merged artifact to check (default: the manifest's "
                         "recorded artifact name, next to the manifest)")
    vf.add_argument("--no-reexec", action="store_true",
                    help="skip re-execution; only check the artifact hash "
                         "and the per-cell digests it contains")
    vf.add_argument("--report", metavar="FILE",
                    help="also write the machine-readable VerifyReport "
                         "JSON to FILE")
    vf.add_argument("--json", action="store_true",
                    help="print the VerifyReport as JSON instead of text")

    return ap


def _cmd_generate(args: argparse.Namespace) -> int:
    ts = generate_taskset(args.seed, GeneratorParams(m=args.m))
    text = taskset_to_json(ts)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(ts)} tasks (m={ts.m}) to {args.output}")
    else:
        print(text)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    ts = _load_taskset(args.taskset, args.seed, args.m)
    print(f"{len(ts)} tasks on m={ts.m} CPUs; "
          f"U_C={ts.utilization(CriticalityLevel.C, level=CriticalityLevel.C):.3f}")
    res = check_level_c(ts)
    print(res.explain())
    if not res.schedulable:
        return 1
    bounds = gel_response_bounds(ts)
    print(f"shared delay term x = {bounds.x * 1e3:.3f} ms")
    print(f"{'task':<8}{'T (ms)':>10}{'C (ms)':>10}{'Y (ms)':>10}"
          f"{'bound (ms)':>12}{'xi (ms)':>10}")
    for t in ts.level(CriticalityLevel.C):
        xi = t.tolerance * 1e3 if t.tolerance is not None else float("nan")
        print(f"{t.label:<8}{t.period * 1e3:>10.1f}"
              f"{t.pwcet(CriticalityLevel.C) * 1e3:>10.2f}"
              f"{t.relative_pp * 1e3:>10.2f}"
              f"{bounds.absolute[t.task_id] * 1e3:>12.2f}{xi:>10.2f}")
    return 0


def _cmd_simulate(args: argparse.Namespace, executor: SweepExecutor) -> int:
    spec = RunSpec(
        taskset=_taskset_spec(args.taskset, args.seed, args.m),
        scenario=ScenarioSpec.from_scenario(_SCENARIOS[args.scenario]),
        monitor=parse_monitor(args.monitor),
        kernel=KernelSpec(backend=args.kernel_backend),
        horizon=args.horizon,
        level_c_budgets=not args.no_budgets,
        obs=_obs_spec(args),
    )
    [result] = executor.run([spec])
    if args.json:
        print(json.dumps(run_result_to_dict(result), indent=2))
    else:
        print(result.row())
    _warn_truncated(executor)
    if args.metrics_out:
        _write_metrics(args.metrics_out, executor)
    return 0


def _cmd_figures(args: argparse.Namespace, executor: SweepExecutor) -> int:
    obs = _obs_spec(args)
    refs = [TaskSetSpec.generated(seed)
            for seed in taskset_seeds(args.tasksets, args.seed)]
    if args.figure == "6":
        print(figure6(refs, s_values=DEFAULT_SWEEP_VALUES, executor=executor,
                      obs=obs)
              .render(unit_scale=1e3, unit="ms"))
    elif args.figure in ("7", "8"):
        sweep = adaptive_sweep(refs, a_values=DEFAULT_SWEEP_VALUES,
                               executor=executor, obs=obs)
        fig = figure7(sweep) if args.figure == "7" else figure8(sweep)
        scale, unit = (1e3, "ms") if args.figure == "7" else (1.0, "virtual speed")
        print(fig.render(unit_scale=scale, unit=unit))
    else:
        tasksets = generate_tasksets(args.tasksets, base_seed=args.seed)
        print(measure_overheads(tasksets, horizon=3.0,
                                trim_max_quantile=0.999).render())
        return 0
    stats = executor.stats
    print(f"  [executor] cells: {stats.cells_total}, simulated: "
          f"{stats.cells_simulated}, cache hits: {stats.cache_hits}")
    _warn_truncated(executor)
    if args.metrics_out:
        _write_metrics(args.metrics_out, executor)
    return 0


def _cmd_traffic(args: argparse.Namespace, executor: SweepExecutor) -> int:
    from repro.experiments.traffic import (
        DEFAULT_BURSTS_PER_CPU,
        DEFAULT_LOADS_PER_CPU,
        figure_burst_size,
        figure_offered_load,
        render_sojourn_table,
    )
    from repro.workload.generator import GeneratorParams

    obs = _obs_spec(args)
    refs = [TaskSetSpec.generated(seed, GeneratorParams(m=args.m))
            for seed in taskset_seeds(args.tasksets, args.seed)]
    raw = {}
    if args.figure == "load":
        values = tuple(args.values) if args.values else DEFAULT_LOADS_PER_CPU
        fig = figure_offered_load(
            refs, m=args.m, loads_per_cpu=values, horizon=args.horizon,
            seed=args.traffic_seed, executor=executor, obs=obs,
            results_out=raw,
        )
        print(fig.render(unit_scale=1e3, unit="ms"))
        xlabel = "load/CPU"
    else:
        values = tuple(args.values) if args.values else DEFAULT_BURSTS_PER_CPU
        fig = figure_burst_size(
            refs, m=args.m, bursts_per_cpu=values, horizon=args.horizon,
            seed=args.traffic_seed, executor=executor, obs=obs,
            results_out=raw,
        )
        print(fig.render(unit_scale=1.0, unit="virtual speed"))
        xlabel = "burst/CPU"
    table = render_sojourn_table(raw, xlabel=xlabel)
    if table.count("\n"):  # header plus at least one data row
        print()
        print(table)
    stats = executor.stats
    print(f"  [executor] cells: {stats.cells_total}, simulated: "
          f"{stats.cells_simulated}, cache hits: {stats.cache_hits}")
    _warn_truncated(executor)
    if args.metrics_out:
        _write_metrics(args.metrics_out, executor)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import summarize_trace, write_chrome_trace

    if args.trace_command == "summarize":
        summary = summarize_trace(args.file)
        if args.json:
            print(json.dumps(summary.to_dict(), indent=2))
        else:
            print(summary.render())
        return 0
    n = write_chrome_trace(args.file, args.output)
    print(f"wrote {n} trace events to {args.output}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import (
        CampaignConfig,
        Scorecard,
        build_campaign,
        replay_repro,
        run_campaign,
        shrink_plan,
        write_repro,
    )

    if args.faults_command == "run":
        config = CampaignConfig(
            seed=args.seed,
            cells=args.cells,
            fault_free=args.fault_free,
            tasksets=args.tasksets,
            m=args.m,
            horizon=args.horizon,
            max_faults=args.max_faults,
            trace_dir=args.trace_dir,
        )
        progress = ProgressReporter() if args.progress else None
        if args.checkpoint_dir:
            from repro.runtime.shard import run_sharded_campaign

            scorecard, cdir, stats = run_sharded_campaign(
                build_campaign(config), args.checkpoint_dir, jobs=args.jobs,
                shard_size=args.shard_size, progress=progress,
                meta={"fault_free": args.fault_free},
                telemetry=args.telemetry)
            print(f"checkpointed campaign {cdir} "
                  f"({stats.shards_claimed} shard(s) executed, "
                  f"{stats.shards_skipped} already done)", file=sys.stderr)
        else:
            scorecard = run_campaign(build_campaign(config), jobs=args.jobs,
                                     progress=progress)
        if args.out:
            scorecard.save(args.out)
            print(f"wrote scorecard ({len(scorecard.outcomes)} cells) to {args.out}",
                  file=sys.stderr)
        if args.json:
            print(json.dumps(scorecard.summary(), indent=2, sort_keys=True))
        else:
            print(scorecard.render())
        # Only the fault-free campaign is a gate: a healthy simulator
        # must be violation-free without faults, while a faulted
        # campaign *producing* violations is working as intended.
        return 1 if (args.fault_free and not scorecard.ok) else 0

    if args.faults_command == "resume":
        from repro.runtime.shard import (
            CampaignStore,
            iter_campaign_dirs,
            merge_scorecard,
            resume_campaign,
        )

        dirs = [d for d in iter_campaign_dirs(args.dir)
                if CampaignStore(d).load().kind == "faults"]
        if not dirs:
            print(f"error: no fault campaigns under {args.dir}", file=sys.stderr)
            return 1
        progress = ProgressReporter() if args.progress else None
        exit_code = 0
        for cdir in dirs:
            campaign = CampaignStore(cdir).load()
            stats = resume_campaign(cdir, jobs=args.jobs,
                                    lease_ttl=args.lease_ttl,
                                    progress=progress,
                                    telemetry=args.telemetry)
            print(f"resumed {cdir} ({stats.shards_claimed} shard(s) executed, "
                  f"{stats.shards_skipped} already done)", file=sys.stderr)
            scorecard = merge_scorecard(cdir)
            if args.out:
                scorecard.save(args.out)
                print(f"wrote scorecard ({len(scorecard.outcomes)} cells) "
                      f"to {args.out}", file=sys.stderr)
            if args.json:
                print(json.dumps(scorecard.summary(), indent=2, sort_keys=True))
            else:
                print(scorecard.render())
            # Same gate semantics as `faults run`: the campaign manifest
            # remembers whether it was a fault-free acceptance run.
            if campaign.meta.get("fault_free") and not scorecard.ok:
                exit_code = 1
        return exit_code

    if args.faults_command == "report":
        scorecard = Scorecard.load(args.scorecard)
        if args.json:
            print(json.dumps(scorecard.summary(), indent=2, sort_keys=True))
        else:
            print(scorecard.render())
        return 0

    if args.faults_command == "shrink":
        scorecard = Scorecard.load(args.scorecard)
        if args.cell:
            outcome = scorecard.find(args.cell)
        else:
            violating = scorecard.violating()
            if not violating:
                print("error: scorecard has no violating cells to shrink",
                      file=sys.stderr)
                return 1
            outcome = violating[0]
        result = shrink_plan(outcome.cell)
        write_repro(result, args.out)
        print(f"shrunk {len(result.original.plan.faults)} fault(s) to "
              f"{len(result.plan.faults)} in {result.evaluations} evaluations "
              f"(invariants: {', '.join(result.invariants)})")
        for step in result.steps:
            print(f"  {step}")
        for f in result.plan.faults:
            print(f"  keeps: {f}")
        print(f"wrote repro artifact to {args.out}")
        return 0

    outcome, reproduced = replay_repro(args.repro)
    if args.json:
        print(json.dumps({
            "reproduced": reproduced,
            "violations": [v.to_dict() for v in outcome.violations],
            "fingerprint": outcome.fingerprint,
        }, indent=2, sort_keys=True))
    else:
        counts = ", ".join(f"{k}x{n}" for k, n in
                           sorted(outcome.violation_counts().items()))
        print(f"replay {'reproduced' if reproduced else 'DID NOT reproduce'} "
              f"the failure ({counts or 'no violations'})")
    return 0 if reproduced else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.obs.report import render_shard_table
    from repro.runtime.cache import ResultCache
    from repro.runtime.shard import (
        CampaignStore,
        campaign_status,
        iter_campaign_dirs,
        resume_campaign,
    )

    dirs = iter_campaign_dirs(args.dir)
    if not dirs:
        print(f"error: no campaigns under {args.dir} "
              "(expected campaign.json manifests)", file=sys.stderr)
        return 1

    if args.sweep_command == "status":
        docs = []
        for cdir in dirs:
            campaign = CampaignStore(cdir).load()
            shards = campaign_status(cdir)
            if args.json:
                docs.append({
                    "dir": str(cdir),
                    "kind": campaign.kind,
                    "key": campaign.campaign_key,
                    "cells": len(campaign.cells),
                    "shards": [s.to_dict() for s in shards],
                })
            else:
                print(f"{cdir} [{campaign.kind}] "
                      f"key={campaign.campaign_key[:12]} "
                      f"cells={len(campaign.cells)}")
                print(render_shard_table(shards))
        if args.json:
            print(json.dumps(docs, indent=2))
        return 0

    # resume: drive every campaign (sweep or faults) to completion + merge.
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    progress = ProgressReporter() if args.progress else None
    for cdir in dirs:
        campaign = CampaignStore(cdir).load()
        stats = resume_campaign(cdir, jobs=args.jobs, cache=cache,
                                lease_ttl=args.lease_ttl, progress=progress,
                                telemetry=args.telemetry)
        print(f"resumed {cdir} [{campaign.kind}]: "
              f"{stats.shards_claimed} shard(s) executed, "
              f"{stats.shards_skipped} already done; "
              f"merged -> {CampaignStore(cdir).merged_path}")
    return 0


def _campaign_aggregate(dirs) -> dict:
    """One deterministic telemetry aggregate over every campaign in *dirs*."""
    from repro.obs.telemetry import TelemetryAggregator

    agg = TelemetryAggregator()
    for cdir in dirs:
        agg.add_campaign(cdir)
    return agg.aggregate()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.coordinator import serve

    return serve(args.root, host=args.host, port=args.port,
                 lease_ttl=args.lease_ttl, port_file=args.port_file,
                 verify_fraction=args.verify_fraction,
                 verify_seed=args.verify_seed)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.provenance import verify_manifest
    from repro.util.atomicio import atomic_write_text

    manifest = pathlib.Path(args.manifest)
    if manifest.is_dir():
        manifest = manifest / "merged.provenance.json"
    report = verify_manifest(
        manifest,
        campaign_path=args.campaign,
        artifact_path=args.artifact,
        all_cells=getattr(args, "all"),
        sample=args.sample,
        sample_seed=args.sample_seed,
        reexecute=not args.no_reexec,
    )
    if args.report:
        atomic_write_text(
            args.report,
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ResultCache
    from repro.serve.worker import run_worker

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    return run_worker(args.connect, owner=args.owner, cache=cache,
                      telemetry=args.telemetry, once=args.once)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClient

    with open(args.campaign, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    with ServiceClient(args.connect) as client:
        ack = client.submit(doc)
        row = {"key": ack.key, "shards": ack.shards,
               "shards_done": ack.shards_done, "created": ack.created}
        if args.wait:
            done = client.wait(ack.key, timeout_s=args.timeout)
            row["shards_done"] = done["shards_done"]
            row["merged"] = done.get("merged", False)
    if args.json:
        print(json.dumps(row, indent=2, sort_keys=True))
    else:
        verb = "registered" if ack.created else "already known"
        print(f"campaign {ack.key[:12]} {verb}: "
              f"{row['shards_done']}/{ack.shards} shard(s) done")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClient

    with ServiceClient(args.connect) as client:
        rows = client.jobs()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("no campaigns registered")
        return 0
    print(f"{'key':<14}{'kind':<8}{'cells':>7}{'shards':>8}"
          f"{'done':>6}{'leased':>8}{'merged':>8}{'quar':>6}")
    for row in rows:
        print(f"{row['key'][:12]:<14}{row['kind']:<8}{row['cells']:>7}"
              f"{row['shards']:>8}{row['shards_done']:>6}{row['leased']:>8}"
              f"{str(bool(row['merged'])).lower():>8}"
              f"{row.get('quarantined', 0):>6}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.export import write_json_snapshot, write_prometheus_textfile
    from repro.obs.telemetry import render_status
    from repro.runtime.shard import iter_campaign_dirs

    if args.service:
        from repro.serve.client import ServiceClient

        with ServiceClient(args.service) as client:
            reply = client.status()
        if args.json:
            doc = dict(reply.aggregate)
            doc["source"] = "service"
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(reply.text)
        if args.prom_out:
            write_prometheus_textfile(reply.aggregate, args.prom_out)
        if args.snapshot_out:
            write_json_snapshot(reply.aggregate, args.snapshot_out)
        return 0
    if not args.dir:
        print("error: status needs a campaign directory or --service ADDR",
              file=sys.stderr)
        return 1

    dirs = iter_campaign_dirs(args.dir)
    if not dirs:
        print(f"error: no campaigns under {args.dir} "
              "(expected campaign.json manifests)", file=sys.stderr)
        return 1

    def emit_once() -> None:
        if args.json:
            doc = dict(_campaign_aggregate(dirs))
            doc["source"] = "file"
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for cdir in dirs:
                print(str(cdir))
                print(render_status(cdir, ttl=args.ttl))
        if args.prom_out or args.snapshot_out:
            agg = _campaign_aggregate(dirs)
            if args.prom_out:
                write_prometheus_textfile(agg, args.prom_out)
            if args.snapshot_out:
                write_json_snapshot(agg, args.snapshot_out)

    try:
        while True:
            if args.watch:
                print("\x1b[2J\x1b[H", end="")
            emit_once()
            if not args.watch:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.telemetry import render_top
    from repro.runtime.shard import iter_campaign_dirs

    dirs = iter_campaign_dirs(args.dir)
    if not dirs:
        print(f"error: no campaigns under {args.dir} "
              "(expected campaign.json manifests)", file=sys.stderr)
        return 1
    try:
        while True:
            if args.watch:
                print("\x1b[2J\x1b[H", end="")
            for cdir in dirs:
                print(str(cdir))
                print(render_top(cdir, ttl=args.ttl))
            if not args.watch:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "telemetry", False) and "checkpoint_dir" in vars(args)
            and not args.checkpoint_dir):
        # Only checkpointed campaign workers have a telemetry writer;
        # anywhere else the flag would profile into the void.
        parser.error("--telemetry needs --checkpoint-dir (telemetry streams "
                     "are written into the checkpointed campaign directory)")
    # A sweep command runs on one executor, closed when the command ends.
    sweeps = {
        "simulate": _cmd_simulate,
        "figures": _cmd_figures,
        "traffic": _cmd_traffic,
    }
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "trace": _cmd_trace,
        "faults": _cmd_faults,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "status": _cmd_status,
        "top": _cmd_top,
        "verify": _cmd_verify,
    }
    try:
        if args.command in sweeps:
            with _make_executor(args) as executor:
                return sweeps[args.command](args, executor)
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError as exc:
            # Still not an error, but don't swallow it silently: a close
            # failure here can hide a genuinely broken output path.
            print(f"warning: closing stdout after broken pipe failed: {exc}",
                  file=sys.stderr)
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
