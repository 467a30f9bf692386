"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-large --seed 1 --seconds 15 --trace 0

``--trace 0`` sets the system up ``SETUP_REPEATS`` times (``setup_s`` is the
median), then repeats whole rounds of the workload for ``--seconds`` and
prints the end-to-end metrics.  ``--trace 1`` sets up once with the tracer
installed, measures the workload once untraced and once traced, checks that
both produced identical placements and costs, and prints the per-layer
metrics, the tracer's overhead among them.

The host's speed drifts within minutes, so a fixed loop is timed before and
after every set-up and round, and the compute figures are divided by that
host factor (``workloads.host_factor``); the run record keeps the wall ones.

The program is built from the ``src`` directory of the checkout; without it
the benchmark exits with an error before measuring anything.  Run records
(machine stamp, load, calibration, generator lateness, counts) and traced
spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUTPUT = ROOT / ".perfbench"

def calibrate() -> float:
    """``host.calib_ms``: tells a slow host from a slow program."""
    from workloads import HOST_LOOP, host_loop_ms

    return host_loop_ms(repeats=5, size=2 * HOST_LOOP)


def git_sha() -> str:
    """The commit of the checkout, read from ``.git`` when it is a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure(workload, service, seconds: float) -> list:
    """Whole rounds until *seconds* pass and at least ``min_rounds`` are done.

    The host's reference loop is timed before and after every round.
    """
    from workloads import host_factor, host_loop_ms

    rounds = []
    started = time.perf_counter()
    while True:
        before = host_loop_ms()
        result = workload.round(service, len(rounds))
        result.host = host_factor(before)
        rounds.append(result)
        if (
            time.perf_counter() - started >= seconds
            and len(rounds) >= workload.min_rounds
        ):
            return rounds


class GcTimer:
    """Sums garbage-collector pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total = 0.0
        self._started = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._started

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def stop_children() -> None:
    """Wait for every process the run started, the resource tracker too.

    Shard workers are joined by their engine's ``close()``.  The
    multiprocessing resource tracker, which the shared-memory probe starts
    before the shards fork, is not a child the parent waits for: left alone
    it outlives the run and is never reaped.  Stopping it closes its pipe
    and waits for it to exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(5.0)
        if child.is_alive():
            child.terminate()
            child.join()
    resource_tracker._resource_tracker._stop()


def end_to_end(workload, rounds, setups: list[float], peak_mb: float) -> dict:
    return {
        "throughput_qps": workload.throughput(rounds),
        "decision_p50_ms": workload.decision_ms(rounds, 0.50),
        "decision_p90_ms": workload.decision_ms(rounds, 0.90),
        "cost_per_query": workload.cost_per_query(rounds),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setups),
    }


def layer_metrics(tracer, setup_tracer_stats, workload, rounds, untraced_qps, extra):
    """Every per-layer metric, in BENCHMARK.json order (0 where a layer idles)."""
    setup = setup_tracer_stats
    traced_qps = workload.throughput(rounds)
    counters: dict = {}
    for r in rounds:
        for name, value in r.counters.items():
            counters[name] = counters.get(name, 0) + value
    latency_pairs = [pair for r in rounds for pair in r.extra.get("engine_latency", [])]
    queue_waits = [
        (latency - tracer.epoch_seconds[query_id]) * 1e3
        for query_id, latency in latency_pairs
        if query_id in tracer.epoch_seconds
    ]
    transport = [value for r in rounds for value in r.extra.get("transport_ms", [])]
    frames = sum(r.extra.get("frames", 0) for r in rounds)
    framed = sum(r.extra.get("framed_queries", 0) for r in rounds)
    fallbacks = guards = 0
    for model, fallbacks_seen, guards_seen in tracer.models.values():
        fallbacks += model.stats.fallbacks - fallbacks_seen
        guards += model.stats.guard_activations - guards_seen
    retrain_ms = tracer.samples.get("adaptive.retrain_ms") or setup["retrain_ms"]
    epochs = tracer.calls("online.submit")
    # Search and fit count the set-up and the traced rounds, as adaptive does.
    expansions = setup["expansions"] + tracer.counts["search.expansions"]
    solve_s = setup["solve_s"] + tracer.total("search.solve")
    sharded = workload.name == "serve-sharded"
    metrics = {
        "registry.put_ms": setup["put_ms"],
        "registry.history_ms": tracer.mean("registry.history", 1e3),
        "registry.history_writes": tracer.calls("registry.history"),
        "search.expansions": expansions,
        "search.solve_s": solve_s,
        "search.expansions_per_s": expansions / solve_s,
        "fit.s": setup["fit_s"] + tracer.total("fit.tree"),
        "fit.examples": setup["fit_examples"] + tracer.counts["fit.examples"],
        "adaptive.retrains": tracer.calls("adaptive.retrain") + setup["retrains"],
        "adaptive.retrain_ms": statistics.median(retrain_ms) if retrain_ms else 0.0,
        "adaptive.expansions": tracer.counts["adaptive.expansions"]
        + setup["adaptive_expansions"],
        "features.calls": tracer.calls("features.extract_into"),
        "features.extract_us": tracer.mean("features.extract_into", 1e6),
        "model.calls": tracer.calls("model.decide"),
        "model.decide_us": tracer.mean("model.decide", 1e6),
        "model.fallbacks": fallbacks,
        "model.guard_activations": guards,
        "batch.schedule_ms": tracer.mean("batch.schedule", 1e3),
        "batch.decisions": tracer.counts["batch.decisions"],
        "batch.cost_row_us": tracer.mean("batch.cost_row", 1e6),
        "cost.price_ms": tracer.mean("cost.price", 1e3),
        "online.epochs": epochs,
        "online.queries_per_epoch": (
            tracer.counts["online.arrivals"] / epochs if epochs else 0.0
        ),
        "online.submit_us": tracer.mean("online.submit", 1e6),
        "online.cache_hits": counters.get("cache_hits", 0),
        "online.retrains": counters.get("retrains", 0),
        "faults.vm_failures": counters.get("vm_failures", 0),
        "faults.requeues": counters.get("requeues", 0),
        "faults.retries": counters.get("retries", 0),
        "engine.submit_us": tracer.mean("engine.submit", 1e6),
        "engine.queue_wait_ms": statistics.median(queue_waits) if queue_waits else 0.0,
        "engine.late": sum(r.extra.get("late", 0) for r in rounds),
        "shard.frames": frames,
        "shard.queries_per_frame": framed / frames if frames else 0.0,
        "shard.router_submit_us": tracer.mean("shard.router_submit", 1e6),
        "shard.transport_ms": (
            statistics.median(transport) if sharded and transport else 0.0
        ),
        "shard.worker_peak_rss_mb": extra["worker_peak_rss_mb"],
        "shm.publish_ms": setup["publish_ms"],
        "shm.bytes_shipped": setup["bytes_shipped"],
        "proc.cpu_s": extra["cpu_s"],
        "proc.gc_pause_ms": extra["gc_pause_ms"],
        "host.calib_ms": extra["calib_ms"],
        "trace.qps_ratio": traced_qps / untraced_qps,
        "trace.spans_dropped": tracer.dropped,
    }
    for layer, milliseconds in tracer.self_ms_by_layer().items():
        metrics[f"self.{layer}_ms"] = milliseconds
    return metrics


def setup_stats(tracer) -> dict:
    """What the traced set-up did: training, search, registry writes, shipping."""
    return {
        "put_ms": tracer.mean("registry.put", 1e3),
        "expansions": tracer.counts["search.expansions"],
        "solve_s": tracer.total("search.solve"),
        "fit_s": tracer.total("fit.tree"),
        "fit_examples": tracer.counts["fit.examples"],
        "retrains": tracer.calls("adaptive.retrain"),
        "retrain_ms": list(tracer.samples.get("adaptive.retrain_ms", [])),
        "adaptive_expansions": tracer.counts["adaptive.expansions"],
        "publish_ms": tracer.mean("shm.publish", 1e3),
        "bytes_shipped": tracer.counts["shm.bytes_shipped"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {source}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    import numpy
    import tracing
    import workloads
    from repro.serving.metrics import percentile

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUTPUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUTPUT, prefix="run-"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": git_sha(),
            "loadavg_before": os.getloadavg(),
        },
    }
    calib_before = calibrate()
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    services = []
    try:
        if args.trace:
            result, rounds, problems = traced_run(workload, args, services, tracing)
        else:
            result, rounds, problems = untraced_run(workload, args, services)
    finally:
        for service in services:
            service.close()
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    if sorted(result) != sorted(metric["name"] for metric in expected):
        problems.append("the metrics printed differ from BENCHMARK.json")
    calib_after = calibrate()
    attempted = sum(r.extra.get("decided", r.queries) for r in rounds)
    failed = sum(r.extra.get("decided", r.queries) for r in rounds if r.problems)
    if problems and not failed:
        failed = attempted
    record["machine"]["loadavg_after"] = os.getloadavg()
    record.update(
        {
            "host.calib_ms": [calib_before, calib_after],
            "rounds": len(rounds),
            "round_host": [r.host for r in rounds],
            "round_rates": [r.queries / r.seconds for r in rounds],
            "round_p50_ms": [percentile(r.latencies_ms, 0.5) for r in rounds],
            "round_p90_ms": [percentile(r.latencies_ms, 0.9) for r in rounds],
            "self_peak_rss_mb": workloads.self_peak_rss_mb(),
            "children_peak_rss_mb": workloads.children_peak_rss_mb(),
            "generator_late": sum(r.extra.get("late", 0) for r in rounds),
            "generator_lateness_ms": sum(r.extra.get("lateness_ms", 0.0) for r in rounds),
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:50],
            "metrics": result,
        }
    )
    (OUTPUT / "runs").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUTPUT / "runs" / name).write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
        f"{attempted} queries, calibration {calib_before:.1f}/{calib_after:.1f} ms"
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": units.get(key, "?")}
                    for key, value in result.items()
                },
            }
        )
    )
    return 1 if problems else 0


def check_rounds(workload, rounds) -> list[str]:
    """Round problems, plus placements that differ between identical rounds."""
    problems = [problem for r in rounds for problem in r.problems]
    if workload.repeats_inputs:
        for index, r in enumerate(rounds[1:], start=1):
            if r.digests != rounds[0].digests:
                problems.append(f"round {index}: placements differ from round 0")
    return problems


def untraced_run(workload, args, services):
    """Set up ``SETUP_REPEATS`` times, then measure; end-to-end metrics."""
    from workloads import SETUP_REPEATS, host_factor, host_loop_ms, peak_rss_mb

    setups = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        before = host_loop_ms()
        service, seconds = workload.setup()
        services.append(service)
        setups.append(seconds / host_factor(before))
    problems = workload.prepare(service)
    rounds = measure(workload, service, args.seconds)
    problems += check_rounds(workload, rounds)
    return end_to_end(workload, rounds, setups, peak_rss_mb()), rounds, problems


def traced_run(workload, args, services, tracing):
    """Traced set-up, then the workload untraced and traced; per-layer metrics."""
    from workloads import children_peak_rss_mb

    tracer = tracing.build_tracer()
    tracer.install()
    try:
        service, _ = workload.setup()
    finally:
        tracer.uninstall()
    services.append(service)
    setup = setup_stats(tracer)
    problems = workload.prepare(service)
    untraced = measure(workload, service, args.seconds)
    untraced_qps = workload.throughput(untraced)
    tracer.reset()
    cpu_before = cpu_seconds()
    with GcTimer() as gc_timer:
        tracer.install()
        try:
            rounds = measure(workload, service, args.seconds)
        finally:
            tracer.uninstall()
    extra = {
        "cpu_s": cpu_seconds() - cpu_before,
        "gc_pause_ms": gc_timer.total * 1e3,
        "calib_ms": calibrate(),
        "worker_peak_rss_mb": (
            children_peak_rss_mb() if workload.name == "serve-sharded" else 0.0
        ),
    }
    problems += check_rounds(workload, untraced) + check_rounds(workload, rounds)
    if workload.cost_per_query(rounds) != workload.cost_per_query(untraced):
        problems.append("traced cost_per_query differs from the untraced run")
    for index in range(workload.min_rounds):
        if rounds[index].digests != untraced[index].digests:
            problems.append(f"traced round {index} placed queries differently")
    tracer.write_spans(OUTPUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = layer_metrics(tracer, setup, workload, rounds, untraced_qps, extra)
    return metrics, rounds, problems


if __name__ == "__main__":
    sys.exit(main())
