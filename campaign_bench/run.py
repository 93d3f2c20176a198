"""Campaign benchmark: four executor workloads, checked results, traced layers.

Run from the root of a checkout::

    python3 campaign_bench/run.py --workload paper-serial --seed 2015 \\
        --seconds 30 --trace 0

Each run launches closed batches of the workload (``batch.py``, one fresh
interpreter per batch) until ``--seconds`` is spent, checks every cell of
every batch, and prints one line per metric followed by a JSON object as
the last line of standard output.  ``--trace 0`` reports the end-to-end
metrics as measured; ``--trace 1`` runs batch 0 once untraced and once
with the span wrappers of ``tracing.py`` installed, and reports the
per-layer metrics and the tracing overhead.  ``--trace-out FILE`` also
writes the traced batch's spans as ordinal-sorted lines (see
``tracing.ordinal_lines``).

The metrics and their units are the ones ``BENCHMARK.json`` lists; the
workloads, their input sizes and the layers each one stresses are
described in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracing  # noqa: E402

PLAN = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Wall-clock budget of one run beyond which no further batch starts.
RUN_CAP_S = 140.0
#: A batch that has not finished by then is killed (with its processes).
BATCH_TIMEOUT_S = 120.0

# ----------------------------------------------------------------------
# Batches
# ----------------------------------------------------------------------
def launch_batch(
    workload: str, seed: int, batch: int, trace: bool, workdir: pathlib.Path,
    timeout_s: float,
) -> Dict[str, Any]:
    """Run one batch in a fresh interpreter; a crash yields ``{"crashed": ...}``."""
    bdir = workdir / f"b{batch}-t{int(trace)}"
    out = workdir / f"b{batch}-t{int(trace)}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, str(HERE / "batch.py"),
        "--workload", workload, "--seed", str(seed), "--batch", str(batch),
        "--workdir", str(bdir), "--trace", str(int(trace)), "--out", str(out),
    ]
    launch = time.monotonic_ns()
    proc = subprocess.Popen(
        cmd + ["--launch-ns", str(launch)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        env=env,
        cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return {"crashed": f"batch {batch} timed out after {timeout_s:.0f} s", "bdir": str(bdir)}
    except BaseException:
        # Interrupted (SIGINT, or SIGTERM via main): take the batch's
        # whole process group down with us and reap it.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0 or not out.exists():
        tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
        return {"crashed": f"batch {batch} exited {proc.returncode}: " + " | ".join(tail),
                "bdir": str(bdir)}
    result = json.loads(out.read_text(encoding="utf-8"))
    result["bdir"] = str(bdir)
    return result


def _timed_s(r: Dict[str, Any]) -> float:
    """Wall seconds from the first cell dispatched to the merged artifact."""
    return (r["t_done"] - r["t_dispatch"]) / 1e9


def tail_sample_size(workload: str) -> int:
    """Cells a complete run always has: its tail percentile is fixed by this."""
    return PLAN["min_batches"] * PLAN["workloads"][workload]["cells_per_batch"]


def untraced_run(workload: str, seed: int, seconds: float, workdir: pathlib.Path
                 ) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Batches until *seconds* are spent; the end-to-end metrics."""
    cells_per_batch = PLAN["workloads"][workload]["cells_per_batch"]
    start = time.monotonic()
    done: List[Dict[str, Any]] = []
    notes: List[str] = []
    attempted = failed = 0
    for b in range(PLAN["max_batches"]):
        left = RUN_CAP_S - (time.monotonic() - start)
        r = launch_batch(workload, seed, b, False, workdir, min(BATCH_TIMEOUT_S, left))
        attempted += r.get("cells", cells_per_batch)
        if "crashed" in r:
            failed += cells_per_batch
            notes.append(r["crashed"])
            break
        done.append(r)
        failed += len(r["failed"])
        notes.extend(f"batch {b}: {why}" for why in r["reasons"])
        spent = time.monotonic() - start
        if b + 1 >= PLAN["min_batches"] and spent * (b + 2) / (b + 1) > seconds:
            break
        if spent > RUN_CAP_S / 2:
            break
    values: Dict[str, float] = {"ok_ratio": 1.0 - metrics.failed_ratio(failed, attempted)}
    if done:
        walls = [w / 1e6 for r in done for w in r["walls_ns"]]
        values.update({
            "cells_per_s": sum(r["cells"] for r in done) / sum(_timed_s(r) for r in done),
            "setup_s": metrics.median([(r["t_dispatch"] - r["t_launch"]) / 1e9 for r in done]),
            "cell_p50_ms": metrics.median(walls),
        })
        n_rule = min(len(walls), tail_sample_size(workload))
        if n_rule > 10:
            values["cell_tail_ms"], pct, n = metrics.tail_percentile(walls, n_rule=n_rule)
        else:  # only after a crash cut the run short
            values["cell_tail_ms"], pct, n = max(walls), 100, len(walls)
        values["peak_rss_mb"] = max(r["rss_kb"] for r in done) / 1024.0
        notes.append(
            f"{len(done)} batches, {sum(r['cells'] for r in done)} cells, "
            f"{sum(_timed_s(r) for r in done):.2f} s timed; cell_tail_ms is p{pct} of n={n} cells"
        )
    return values, attempted, failed, notes


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def layer_metrics(
    workload: str, traced: Dict[str, Any], plain: Dict[str, Any],
    trace_out: Optional[str] = None,
) -> Dict[str, float]:
    """Per-layer numbers of the traced batch (setup split from the plain one).

    Spans count from the moment the executor is handed the cell list
    until the merged artifact is written, in every process.
    """
    window = (traced["t_ready"], traced["t_done"])
    total: Dict[str, int] = {}
    own: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    logs = []
    for path in sorted(pathlib.Path(traced["bdir"], "spans").glob("*.spans")):
        header, spans = tracing.load(path)
        t, s, c = metrics.self_times(*spans[:4], window=window)
        for src, dst in ((t, total), (s, own), (c, calls)):
            for layer, v in src.items():
                name = tracing.LAYERS[layer]
                dst[name] = dst.get(name, 0) + v
        for k, v in header["counters"].items():
            counters[k] = counters.get(k, 0) + v
        if trace_out:
            logs.append(spans)
    if trace_out:
        lines = tracing.ordinal_lines(workload, logs)
        pathlib.Path(trace_out).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def ms(name: str) -> float:
        return total.get(name, 0) / 1e6

    stats = [st for st in traced["stats"] if st is not None]
    events = sum(st["events"] for st in stats)
    walls = sum(traced["walls_ns"])
    timed = traced["t_done"] - traced["t_dispatch"]
    kernel_self = own.get("sim.kernel.run", 0)
    gets = calls.get("runtime.cache.get", 0)
    retries = traced["retries"]
    if traced["shards"]:
        retries += max(0, calls.get("runtime.shard.manifest", 0) - traced["shards"])
    n = tail_sample_size(workload)
    pct = metrics.tail_pct(n)
    return {
        # Build + key the cell list vs. bring the executor up; the file
        # queue and the service key inside run(), after the executor is up.
        "setup.import_ms": (plain["t_import"] - plain["t_launch"]) / 1e6,
        "setup.cells_ms": (plain["t_built"] - plain["t_import"]
                           + plain["t_keyed"] - plain["t_ready"]) / 1e6,
        "setup.executor_ms": (plain["t_ready"] - plain["t_built"]
                              + plain["t_dispatch"] - plain["t_keyed"]) / 1e6,
        "workload.materialize.calls": calls.get("workload.materialize", 0),
        "workload.materialize.ms": ms("workload.materialize"),
        "workload.traffic.expand_ms": ms("workload.traffic.expand"),
        "workload.traffic.sojourn_ms": ms("workload.traffic.sojourn"),
        "model.behavior.calls": calls.get("model.behavior", 0),
        "model.behavior.ms": ms("model.behavior"),
        "core.release.calls": calls.get("core.release", 0),
        "core.release.ms": ms("core.release"),
        "core.monitor.calls": calls.get("core.monitor", 0),
        "core.monitor.ms": ms("core.monitor"),
        "experiments.stop_check.calls": calls.get("experiments.stop_check", 0),
        "experiments.stop_check.ms": ms("experiments.stop_check"),
        "experiments.stop_check.per_event": calls.get("experiments.stop_check", 0) / max(events, 1),
        "sim.kernel.self_ms": kernel_self / 1e6,
        "sim.kernel.ns_per_event": kernel_self / max(events, 1),
        "sim.kernel.share": kernel_self / max(walls, 1),
        "sim.kernel.share_base_ms": walls / 1e6,
        "sim.kernel.events": events,
        "sim.kernel.build_ms": ms("sim.kernel.build"),
        "sim.kernel.finish_ms": ms("sim.kernel.finish"),
        "sim.fingerprint_ms": ms("sim.fingerprint"),
        "faults.plane_ms": ms("faults.plane"),
        "faults.invariants_ms": ms("faults.invariants"),
        "faults.violations": sum(len(st.get("violations", ())) for st in stats),
        "runtime.cell_overhead_ms": (walls - total.get("experiments.run", 0)) / 1e6,
        "runtime.cache.put.calls": calls.get("runtime.cache.put", 0),
        "runtime.cache.put.ms": ms("runtime.cache.put"),
        "runtime.cache.hit_ratio": counters.get("runtime.cache.hits", 0) / gets if gets else 0.0,
        "runtime.shard.lease.calls": calls.get("runtime.shard.lease", 0),
        "runtime.shard.lease.lost": counters.get("runtime.shard.lease.lost", 0),
        "runtime.shard.heartbeat.calls": calls.get("runtime.shard.heartbeat", 0),
        "runtime.shard.heartbeat.ms": ms("runtime.shard.heartbeat"),
        "runtime.shard.manifest_ms": ms("runtime.shard.manifest"),
        "runtime.shard.scan_ms": ms("runtime.shard.scan"),
        "runtime.shard.idle_ms": own.get("runtime.shard.work", 0) / 1e6,
        "runtime.merge_ms": own.get("runtime.merge", 0) / 1e6,
        "runtime.parallel_efficiency": walls / (traced["workers"] * timed),
        "runtime.retries": retries,
        "io.key.calls": calls.get("io.key", 0),
        "io.key.ms": ms("io.key"),
        "io.encode.calls": calls.get("io.encode", 0),
        "io.encode.ms": ms("io.encode"),
        "io.decode.calls": calls.get("io.decode", 0),
        "io.decode.ms": ms("io.decode"),
        "provenance.emit_ms": ms("provenance.emit"),
        "serve.client.submit_ms": ms("serve.client.submit"),
        "serve.client.wait_ms": ms("serve.client.wait"),
        "serve.client.fetch_ms": ms("serve.client.fetch"),
        "serve.coordinator.lease.calls": calls.get("serve.coordinator.lease", 0),
        "serve.coordinator.cell.calls": calls.get("serve.coordinator.cell", 0),
        "serve.coordinator.cell.ms": ms("serve.coordinator.cell"),
        "serve.coordinator.commit.ms": ms("serve.coordinator.commit"),
        "serve.coordinator.heartbeat.calls": calls.get("serve.coordinator.heartbeat", 0),
        "serve.worker.execute_ms": ms("serve.worker.execute"),
        "serve.worker.fabric_ms": ms("serve.worker") - ms("serve.worker.execute"),
        "serve.retries": counters.get("serve.rejections", 0) + counters.get("serve.reconnects", 0),
        "trace.overhead": _timed_s(traced) / _timed_s(plain),
        "trace.unattributed_ms": own.get("phase", 0) / 1e6,
        "trace.unattributed_share": own.get("phase", 0) / max(total.get("phase", 0), 1),
        "cell_tail.pct": pct,
        "cell_tail.n": n,
    }


def traced_run(workload: str, seed: int, workdir: pathlib.Path, trace_out: Optional[str]
               ) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Batch 0 untraced, then traced; per-layer metrics and tracing overhead."""
    plain = launch_batch(workload, seed, 0, False, workdir, BATCH_TIMEOUT_S / 2)
    traced = launch_batch(workload, seed, 0, True, workdir, BATCH_TIMEOUT_S / 2)
    notes = [r["crashed"] for r in (plain, traced) if "crashed" in r]
    if notes:
        cells = 2 * PLAN["workloads"][workload]["cells_per_batch"]
        return {}, cells, cells, notes
    notes.extend(f"untraced: {why}" for why in plain["reasons"])
    notes.extend(f"traced: {why}" for why in traced["reasons"])
    changed = [i for i, (a, b) in enumerate(zip(traced["stats"], plain["stats"])) if a != b]
    if changed:
        notes.append(f"tracing changed the statistics of {len(changed)} cell(s)")
    failed = len(plain["failed"]) + len(set(traced["failed"]) | set(changed))
    values = layer_metrics(workload, traced, plain, trace_out)
    return values, plain["cells"] + traced["cells"], failed, notes


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, default=PLAN["default_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", metavar="FILE")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            values, attempted, failed, notes = traced_run(
                args.workload, args.seed, workdir, args.trace_out)
            table = BENCH["per_layer"]
        else:
            values, attempted, failed, notes = untraced_run(
                args.workload, args.seed, args.seconds, workdir)
            table = BENCH["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    w = PLAN["workloads"][args.workload]
    print(f"workload {args.workload} (seed {args.seed}): {w['input']}")
    print(f"  executor: {w['executor']}")
    for note in notes:
        print(f"  {note}")
    out: Dict[str, Dict[str, Any]] = {}
    for metric in table:
        name, unit = metric["name"], metric["unit"]
        value = values.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<36} {metrics.failed_ratio(failed, attempted):>14.6g} ratio"
          f" ({failed} of {attempted} cells)")
    correct = failed == 0 and bool(values)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
