"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload committee-byz --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the traced variant and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Problems
found by the correctness checks go to standard error.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Times the set-up is repeated in fresh processes for ``setup_s``.
SETUP_PROBES = 7
#: A served job slower than this is reported on standard error (jobs
#: take well under a second; a stalled one shows as a throughput dip).
SLOW_JOB_S = 5.0

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scheduler.events": "count", "scheduler.schedule_ns": "ns",
    "scheduler.loop_self_ns": "ns",
    "network.sends": "count", "network.send_self_ns": "ns",
    "network.deliver_self_ns": "ns", "network.live_delivery_ratio": "ratio",
    "network.us_per_message": "us",
    "routing.paths": "count", "routing.path_self_ns": "ns",
    "routing.hops_per_send": "count",
    "adversary.latency_draws": "count", "adversary.latency_self_ns": "ns",
    "adversary.transform_self_ns": "ns",
    "rng.derive_seed_calls": "count", "rng.derive_seed_ns": "ns",
    "protocols.deliveries": "count", "protocols.deliver_self_ns": "ns",
    "protocols.step_self_ns": "ns",
    "messages.size_bits_calls": "count", "messages.size_bits_self_ns": "ns",
    "assignment.calls": "count", "assignment.self_ns": "ns",
    "source.requests": "count", "source.bits_served": "count",
    "source.request_self_ns": "ns", "bitarrays.self_ns": "ns",
    "telemetry.sites_per_download": "count",
    "sync.rounds": "count", "sync.round_self_ns": "ns",
    "pool.tasks": "count", "pool.payload_bytes": "bytes",
    "pool.dispatch_ms": "ms", "cache.hits": "count",
    "service.queue_wait_ms": "ms", "service.exec_ms": "ms",
    "service.http_rtt_ms": "ms", "service.dedup_hits": "count",
    "service.tasks_executed": "count",
    "wire.frames": "count", "wire.bytes": "bytes", "wire.encode_ns": "ns",
    "wire.decode_ns": "ns", "net.request_rtt_us": "us",
    "net.retries": "count",
    "trace.overhead_pct": "%",
}


def p90(values):
    """The 90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process until it is
    ready for its first timed operation."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--probe"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.read()
    if child.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe of {workload} failed")
    return elapsed


# -- per-layer metrics from tracer snapshots -----------------------------------

def layer_metrics(snapshots: list[dict], *, ops: int,
                  us_per_message: float, extra: dict) -> dict:
    """Per-operation means of the traced layers.  ``snapshots`` are
    tracer snapshots (summed); ``ops`` divides them."""
    stats: dict[str, list] = {}
    counts: dict[str, float] = {}
    for snapshot in snapshots:
        for name, (calls, total, self_ns) in snapshot["stats"].items():
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_ns
        for name, value in snapshot["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def calls(layer):
        return ratio(stats.get(layer, [0, 0, 0])[0], ops)

    def self_ns(layer):
        return ratio(stats.get(layer, [0, 0, 0])[2], ops)

    rounds = counts.get("sync_rounds", 0)
    request = stats.get("net.request", [0, 0, 0])
    metrics = {
        "scheduler.events": ratio(counts.get("events", 0), ops),
        "scheduler.schedule_ns": self_ns("scheduler.schedule"),
        "scheduler.loop_self_ns": self_ns("scheduler.loop"),
        "network.sends": calls("network.send"),
        "network.send_self_ns": self_ns("network.send"),
        "network.deliver_self_ns": self_ns("network.deliver"),
        "network.live_delivery_ratio": ratio(
            counts.get("deliveries_live", 0),
            counts.get("deliveries_popped", 0)),
        "network.us_per_message": us_per_message,
        "routing.paths": calls("routing.path"),
        "routing.path_self_ns": self_ns("routing.path"),
        "routing.hops_per_send": ratio(counts.get("route_hops", 0),
                                       stats.get("routing.path",
                                                 [0])[0]),
        "adversary.latency_draws": calls("adversary.latency"),
        "adversary.latency_self_ns": self_ns("adversary.latency"),
        "adversary.transform_self_ns": self_ns("adversary.transform"),
        "rng.derive_seed_calls": calls("rng.derive_seed"),
        "rng.derive_seed_ns": self_ns("rng.derive_seed"),
        "protocols.deliveries": calls("protocols.deliver"),
        "protocols.deliver_self_ns": self_ns("protocols.deliver"),
        "protocols.step_self_ns": self_ns("protocols.step"),
        "messages.size_bits_calls": calls("messages.size_bits"),
        "messages.size_bits_self_ns": self_ns("messages.size_bits"),
        "assignment.calls": calls("assignment"),
        "assignment.self_ns": self_ns("assignment"),
        "source.requests": calls("source.request"),
        "source.bits_served": ratio(counts.get("bits_served", 0), ops),
        "source.request_self_ns": self_ns("source.request"),
        "bitarrays.self_ns": self_ns("bitarrays"),
        "sync.rounds": ratio(rounds, ops),
        "sync.round_self_ns": ratio(stats.get("sync.engine",
                                              [0, 0, 0])[2], rounds),
        "wire.frames": calls("wire.encode"),
        "wire.bytes": ratio(counts.get("wire_bytes", 0), ops),
        "wire.encode_ns": self_ns("wire.encode"),
        "wire.decode_ns": self_ns("wire.decode"),
        "net.request_rtt_us": ratio(request[1], request[0]) / 1000.0,
    }
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics


# -- download workloads ----------------------------------------------------------

def run_downloads(workload, seconds: float, trace: bool, trace_path: Path):
    from perfbench.tracer import Tracer
    from perfbench.workloads import counting_backend

    problems_by_op = []
    walls, traced_walls, snapshots = [], [], []
    messages, retries = 0, 0
    tracer = Tracer() if trace else None
    sites = 0.0
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        # Collect the previous download's garbage outside the timed
        # region, so no download pays for another's cycles.
        gc.collect()
        download = workload.download(index)
        problems = list(download.problems)
        walls.append(download.wall_s)
        if trace:
            tracer.reset()
            gc.collect()
            tracer.install()
            try:
                traced = workload.download(index, tracer=tracer)
            finally:
                tracer.uninstall()
            snapshot = tracer.snapshot()
            snapshot["counts"]["events"] = traced.events
            snapshot["counts"]["bits_served"] = traced.bits_served
            snapshots.append(snapshot)
            traced_walls.append(traced.wall_s)
            messages += download.m
            retries += traced.retries
            problems += [f"traced: {problem}"
                         for problem in traced.problems]
            for field in ("q", "t", "m", "events", "outputs"):
                if getattr(traced, field) != getattr(download, field):
                    problems.append(f"traced download differs in {field}")
            if index == 0:
                backend = counting_backend()
                workload.download(index, telemetry=backend)
                sites = backend.sites
        problems_by_op.append(problems)
        index += 1
    if trace:
        untraced_median = statistics.median(walls)
        metrics = layer_metrics(
            snapshots, ops=len(snapshots),
            us_per_message=ratio(sum(walls) * 1e6, messages),
            extra={
                "telemetry.sites_per_download": sites,
                "net.retries": ratio(retries, len(snapshots)),
                "trace.overhead_pct": 100.0 * (
                    statistics.median(traced_walls) / untraced_median - 1),
            })
        tracer.write(trace_path, {"workload": workload.name})
    else:
        metrics = {
            "op_p50_s": statistics.median(walls),
            "op_p90_s": p90(walls),
            "ops_per_s": len(walls) / sum(walls),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return problems_by_op, [], metrics


# -- the served workload ----------------------------------------------------------

def _serve_half(workload, seconds, *, traced, trace_dir):
    workload.setup(traced=traced, trace_dir=trace_dir)
    try:
        jobs, wall = workload.drive(seconds)
        stats = workload.stats()
        rss = workload.server.peak_rss_mb()
    finally:
        stop_problems = workload.teardown()
    for job in jobs:
        if job.latency_s > SLOW_JOB_S:
            print(f"operation {job.index}: slow {job.entry['kind']} job, "
                  f"{job.latency_s:.1f} s", file=sys.stderr)
    per_job, run_problems = workload.check(jobs, stats)
    return jobs, wall, stats, rss, per_job, run_problems + stop_problems


def run_serve(workload, seconds: float, trace: bool, trace_dir: Path):
    if not trace:
        jobs, wall, _stats, rss, per_job, run_problems = _serve_half(
            workload, seconds, traced=False, trace_dir=None)
        latencies = [job.latency_s for job in jobs]
        return per_job, run_problems, {
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": p90(latencies),
            "ops_per_s": len(jobs) / wall,
            "peak_rss_mb": rss,
        }
    half = seconds / 2
    jobs_u, wall_u, _s, _r, per_job_u, problems_u = _serve_half(
        workload, half, traced=False, trace_dir=None)
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("*.jsonl"):
        stale.unlink()
    jobs, wall, stats, _rss, per_job, problems = _serve_half(
        workload, half, traced=True, trace_dir=trace_dir)
    tasks = [json.loads(line)
             for path in sorted(trace_dir.glob("worker-*.jsonl"))
             for line in path.read_text().splitlines()]
    with open(trace_dir / "server.jsonl", encoding="utf-8") as handle:
        server = json.loads(handle.readline())
    ops = len(jobs)
    compute_ns = sum(task["compute_ns"] for task in tasks)
    # Simulator tasks only: sync-backend tasks make no Network.send.
    sim_tasks = [task for task in tasks
                 if not task["stats"].get("sync.engine", [0])[0]]
    sends = sum(task["stats"].get("network.send", [0])[0]
                for task in sim_tasks)
    sim_ns = sum(task["compute_ns"] for task in sim_tasks)
    created = [job.record for job in jobs if job.created and job.record]
    metrics = layer_metrics(
        tasks, ops=ops, us_per_message=ratio(sim_ns / 1000.0, sends),
        extra={
            "pool.tasks": ratio(len(tasks), ops),
            "pool.payload_bytes": mean(task["payload_bytes"]
                                       for task in tasks),
            "pool.dispatch_ms": (mean(server["task_ns"])
                                 - ratio(compute_ns, len(tasks))) / 1e6,
            "cache.hits": ratio(stats["cache_hits"], ops),
            "service.queue_wait_ms": 1000.0 * mean(server["queue_wait_s"]),
            "service.exec_ms": 1000.0 * mean(
                record["finished_at"] - record["started_at"]
                for record in created),
            "service.http_rtt_ms": 1000.0 * mean(
                rtt for job in jobs for rtt in job.rtts),
            "service.dedup_hits": ratio(stats["dedup_hits"], ops),
            "service.tasks_executed": ratio(stats["tasks_executed"], ops),
            "trace.overhead_pct": 100.0 * ((len(jobs_u) / wall_u)
                                           / (ops / wall) - 1),
        })
    return per_job_u + per_job, problems_u + problems, metrics


# -- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready', tear down, exit "
                             "(how setup_s is measured)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workloads.WORK)
    os.environ["PYTHONPATH"] = os.pathsep.join((str(ROOT), str(SRC)))
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.probe:
        workload.setup()
        print("ready", flush=True)
        workload.teardown()
        return 0

    if not args.trace:
        setup_s = statistics.median(probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES))
    trace_dir = workloads.WORK / "trace"
    trace_name = f"{args.workload}-seed{args.seed}"
    if workload.kind == "serve":
        per_op, run_problems, metrics = run_serve(
            workload, args.seconds, bool(args.trace),
            trace_dir / trace_name)
    else:
        workload.setup()
        try:
            per_op, run_problems, metrics = run_downloads(
                workload, args.seconds, bool(args.trace),
                trace_dir / f"{trace_name}.jsonl")
        finally:
            workload.teardown()
    failed = sum(1 for problems in per_op if problems)
    for index, problems in enumerate(per_op):
        for problem in problems:
            print(f"operation {index}: {problem}", file=sys.stderr)
    for problem in run_problems:
        print(f"run: {problem}", file=sys.stderr)
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        metrics["setup_s"] = setup_s
    result = {
        "correct": not run_problems,
        "attempted": len(per_op),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
