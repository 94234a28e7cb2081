#!/usr/bin/env python3
"""Benchmark runner for the priority-STAR torus simulator.

Builds the simulator and the benchmark program from source, then runs one
workload for a fixed host time as a series of operations.  Each operation
is one fresh process (so its peak RSS is its own) that runs the workload
once from its spec; its simulated statistics must equal the reference for
(workload, seed), or the operation counts as failed.

    python3 perfbench/run.py --workload bcast16 --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (medians over the operations);
--trace 1 runs the workload once untraced and once with every public seam
decorated, and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it holds the host fingerprint and per-operation detail.

Other entry points:
    --record SEEDS   write the reference statistics for SEEDS (comma list)
                     to perfbench/references.json
    --tiny           smoke-test sizes (see perfbench/smoke.py)
    --references F   gate against F instead of perfbench/references.json

Run from the repository root.  Build products go to $CARGO_TARGET_DIR
(default .bench_build), spans to .bench_out.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bcast16", "mix_asym", "serve_guarded")
DEFAULT_REFERENCES = HERE / "references.json"
# A child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 150
# Seconds of one calibration pass (src/calib.hpp) on the reference host:
# the tuning VM when it ran fastest.  An operation's host-speed factor is
# its calibration time over this; end-to-end times are divided by it, so
# they read as seconds on the reference host (perfbench/NOTES.md).
CALIB_REFERENCE_S = 0.060

# Every metric the benchmark prints, with its unit.  BENCHMARK.json must
# list exactly these (perfbench/smoke.py checks it).
END_TO_END = {
    "events_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Service metrics: measured on serve_guarded only, so they are printed on
# its detail line and as per-layer values, not as end-to-end metrics.
SERVICE = {
    "ckpt_stall_p50_ms": "ms",
    "ckpt_stall_p90_ms": "ms",
    "snapshot_kb": "KB",
    "restore_ms": "ms",
}
PER_LAYER = {
    "sim.events": "count",
    "sim.pending_p50": "count",
    "sim.pending_max": "count",
    "sim.hold_ns": "ns",
    "net.self_ns_per_event": "ns",
    "net.transmissions": "count",
    "net.utilization_mean": "ratio",
    "net.wait_mean": "time_units",
    "net.drops": "count",
    "net.inflight_tasks_end": "count",
    "queueing.fifo_ns": "ns",
    "queueing.backlog_mean": "count",
    "routing.on_task_calls": "count",
    "routing.on_receive_calls": "count",
    "routing.on_receive_ns": "ns",
    "routing.setup_s": "s",
    "topology.setup_s": "s",
    "harness.setup_s": "s",
    "core.setup_s": "s",
    "core.rounds": "count",
    "core.events_per_round": "count",
    "core.shard_imbalance": "ratio",
    "core.speedup": "x",
    "traffic.arrivals": "count",
    "traffic.arrivals_per_event": "ratio",
    "traffic.gate_calls": "count",
    "traffic.gate_ns": "ns",
    "obs.observer_calls": "count",
    "obs.observer_ns": "ns",
    "obs.share": "ratio",
    "obs.trace_bytes": "bytes",
    "obs.trace_bytes_per_event": "bytes",
    "fault.link_failures": "count",
    "fault.drops": "count",
    "recovery.retransmissions": "count",
    "recovery.retries_exhausted": "count",
    "recovery.hook_calls": "count",
    "recovery.hook_ns": "ns",
    "overload.shed_copies": "count",
    "overload.hook_calls": "count",
    "overload.hook_ns": "ns",
    "adversary.denied": "count",
    "adversary.quarantines": "count",
    "adversary.honest_delivered": "ratio",
    "service.save_ms_p50": "ms",
    "service.snapshot_bytes": "bytes",
    "service.restore_ms": "ms",
    "service.advance_ms_p50": "ms",
    "service.rss_growth_mb": "MB",
    "trace_overhead_x": "x",
}


# Children still running; a SIGTERM or SIGINT kills and reaps them first.
ACTIVE_CHILDREN = set()


def stop_children(signum, _frame):
    for proc in list(ACTIVE_CHILDREN):
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures and builds the benchmark program; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    binary = out / "pstar_perfbench"
    if not binary.exists():
        raise BenchError("build produced no " + str(binary))
    return binary


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the simulator sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "none"


def fingerprint(threads):
    cache = build_dir() / "CMakeCache.txt"
    build_type = "unknown"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "build_type": build_type,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
    }


def shard_jobs():
    """Worker threads of mix_asym's reference and core.speedup runs: one
    per shard, at most one per core.  Its operations use one."""
    return max(1, min(3, len(os.sched_getaffinity(0))))


def run_child(binary, workload, seed, mode, tiny, spans=None):
    """One fresh process; returns (parsed JSON or None, error text)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--jobs", str(shard_jobs())]
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    ACTIVE_CHILDREN.add(proc)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        ACTIVE_CHILDREN.discard(proc)
    if proc.returncode != 0:
        return None, "exit {}: {}".format(
            proc.returncode, err.decode(errors="replace").strip()[-500:])
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "unparsable output"


def load_references(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def reference_for(binary, refs, workload, seed, tiny):
    """The recorded reference, or one computed now through the product's
    one-call path (run_reference in src/workloads.hpp)."""
    size = "tiny" if tiny else "full"
    recorded = refs.get(size, {}).get(workload, {}).get(str(seed))
    if recorded is not None:
        return recorded, "recorded"
    doc, err = run_child(binary, workload, seed, "reference", tiny)
    if doc is None:
        raise BenchError("reference run failed: " + err)
    return doc["stats"], "computed"


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(samples, q):
    s = sorted(samples)
    return s[min(len(s) - 1, int(q * len(s)))] if s else 0.0


def run_untraced(binary, args, ref):
    attempted = failed = 0
    ops = []
    errors = []
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < args.seconds:
        attempted += 1
        doc, err = run_child(binary, args.workload, args.seed, "op",
                             args.tiny)
        if doc is None:
            failed += 1
            errors.append(err)
            continue
        problems = check_op(doc, ref)
        if problems:
            failed += 1
            errors.append("; ".join(problems))
            continue
        ops.append(doc)
    for o in ops:
        factor = statistics.mean(o["calib_s"]) / CALIB_REFERENCE_S
        o["host_factor"] = factor
        o["ref_run_s"] = o["run_s"] / factor
        o["ref_wall_s"] = o["wall_s"] / factor
        o["ref_setup_s"] = o["setup_s"] / factor
    metrics = {}
    if ops:
        metrics = {
            "events_per_s": median([o["stats"]["events"] / o["ref_run_s"]
                                    for o in ops]),
            "wall_s": median([o["ref_wall_s"] for o in ops]),
            "setup_s": median([o["ref_setup_s"] for o in ops]),
            "peak_rss_mb": median([o["peak_rss_mb"] for o in ops]),
        }
    # Per operation, as measured (host seconds) and the host-speed factor.
    detail = {"operations": len(ops), "errors": errors[:5],
              "per_op": {k: [round(v, 6) for v in vals] for k, vals in {
                  "host_factor": [o["host_factor"] for o in ops],
                  "events_per_host_s": [o["stats"]["events"] / o["run_s"]
                                        for o in ops],
                  "host_setup_s": [o["setup_s"] for o in ops],
                  "host_wall_s": [o["wall_s"] for o in ops],
                  "peak_rss_mb": [o["peak_rss_mb"] for o in ops]}.items()}}
    detail["host_medians"] = {k: median(v) for k, v in
                              detail["per_op"].items()}
    if args.workload == "serve_guarded" and ops:
        # p90 is the highest percentile with at least ten of an
        # operation's samples beyond it (120 snapshots per operation).
        detail["service"] = {
            "ckpt_stall_p50_ms": {
                "value": median([percentile(o["ckpt_ms"], 0.5) for o in ops]),
                "unit": SERVICE["ckpt_stall_p50_ms"]},
            "ckpt_stall_p90_ms": {
                "value": median([percentile(o["ckpt_ms"], 0.9) for o in ops
                                 if len(o["ckpt_ms"]) >= 100]),
                "unit": SERVICE["ckpt_stall_p90_ms"]},
            "ckpt_samples_per_op": [len(o["ckpt_ms"]) for o in ops],
            "snapshot_kb": {"value": ops[-1]["snapshot_bytes"] / 1024.0,
                            "unit": SERVICE["snapshot_kb"]},
            "restore_ms": {"value": median([median(o["restore_ms"])
                                            for o in ops]),
                           "unit": SERVICE["restore_ms"]},
            "restore_samples_per_op": [len(o["restore_ms"]) for o in ops],
        }
    return (attempted, failed,
            {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail)


def check_op(doc, ref):
    problems = []
    if doc["stats"] != ref:
        diff = {k: (doc["stats"].get(k), ref.get(k)) for k in ref
                if doc["stats"].get(k) != ref.get(k)}
        problems.append("simulated statistics differ from the reference: "
                        + json.dumps(diff))
    if not doc.get("roundtrip_ok", True):
        problems.append("a restored session did not re-serialize to the "
                        "same snapshot bytes")
    return problems


def run_traced(binary, args, ref):
    """Repeats the trace-mode child for --seconds (at least once); each
    per-layer value is the median over the children."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / "spans-{}-{}.json".format(args.workload, args.seed)
    attempted = failed = 0
    docs = []
    errors = []
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < args.seconds:
        attempted += 1
        doc, err = run_child(binary, args.workload, args.seed, "trace",
                             args.tiny, spans)
        problems = [err] if doc is None else (
            check_op(doc, ref) + check_op(doc["untraced"], ref))
        if doc is not None and not doc["fidelity"]:
            problems.append("the traced run's (or, on mix_asym, the "
                            "one-thread run's) simulated statistics differ "
                            "from the untraced run's")
        if doc is not None and set(doc["layers"]) != set(PER_LAYER):
            problems.append("per-layer names differ from the benchmark's "
                            "table: " + str(sorted(set(doc["layers"]) ^
                                                   set(PER_LAYER))))
        if problems:
            failed += 1
            errors += problems
        else:
            docs.append(doc)
    metrics = {k: (median([d["layers"][k] for d in docs]), u)
               for k, u in PER_LAYER.items()} if docs else {}
    detail = {"operations": len(docs), "errors": errors[:5],
              "spans": str(spans.relative_to(ROOT)),
              "zero_on_this_workload": sorted(
                  k for k, (v, _) in metrics.items() if v == 0)}
    return attempted, failed, metrics, detail


def record(binary, seeds, tiny, path):
    refs = load_references(path)
    size = "tiny" if tiny else "full"
    for workload in WORKLOADS:
        for seed in seeds:
            doc, err = run_child(binary, workload, seed, "reference", tiny)
            if doc is None:
                raise BenchError("reference run failed: " + err)
            refs.setdefault(size, {}).setdefault(workload, {})[str(seed)] = \
                doc["stats"]
            log("recorded {} {} seed {}".format(size, workload, seed))
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--references", default=str(DEFAULT_REFERENCES))
    ap.add_argument("--record", metavar="SEEDS")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)

    try:
        binary = build()
        if args.record:
            record(binary, [int(s) for s in args.record.split(",")],
                   args.tiny, args.references)
            return 0
        if args.workload is None:
            raise BenchError("--workload is required")
        refs = load_references(args.references)
        ref, gate = reference_for(binary, refs, args.workload, args.seed,
                                  args.tiny)
        if args.trace:
            attempted, failed, metrics, detail = run_traced(binary, args, ref)
        else:
            attempted, failed, metrics, detail = run_untraced(binary, args, ref)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2

    threads = shard_jobs() if args.workload == "mix_asym" and args.trace else 1
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "tiny": args.tiny, "reference": gate,
            "host": fingerprint(threads)}
    info.update(detail)
    print(json.dumps(info))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
