"""One workload in one fresh, single-threaded process.

Run by ``run.py``; prints one JSON object on its last stdout line::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only | --rss-only]

Set-up (interpreter start, imports, input generation and one stack
construction) is timed first.  Then reps run back to back until
``--seconds`` have passed, each a fresh stack, each checked (digest,
invariants, rep identity), with the reference loop timed between reps
so that every rep's CPU seconds are normalized by the host speed
measured right before and right after it.  With ``--trace 1`` every
other rep runs with the layer tracer installed.

With ``--rss-only`` the process never builds the reference loop: it
sets up, runs one unmeasured rep and reports its peak resident memory,
so that figure holds the program's memory and none of the benchmark's.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_rep, expected_digest
from layers import LAYERS, Census, LayerTracer, rep_counts
from refloop import ReferenceLoop, normalize

#: Fewest reps a run makes, whatever ``--seconds`` says, so that rep
#: identity is always checked (per mode, with ``--trace 1``).
MIN_REPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--rss-only", action="store_true")
    return parser.parse_args(argv)


def _load(name: str):
    """The named workload, importing the program; ``None`` if unknown."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(name)
    if workload is None:
        print(f"unknown workload {name!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
    return workload


def _rss_only(args) -> int:
    """Set up and run one rep, with no reference loop in the process."""
    workload = _load(args.workload)
    if workload is None:
        return 2
    inputs = workload.inputs(args.seed)
    gc.collect()
    gc.freeze()
    workload.rep(inputs)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak}))
    return 0


def _layer_metrics(traced, untraced, counts):
    """Per-layer numbers from the traced reps' tracer snapshots, the
    untraced reps' normalized seconds and the traced reps' work counts.
    Self times are means over the traced reps, so they add up to
    ``trace.run_s``; calls and counts repeat exactly from rep to rep."""
    n = len(traced)
    first = traced[0]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (first["calls"][layer], "count")
        out[f"{layer}.self_s"] = (
            sum(t["self_s"][layer] * t["factor"] for t in traced) / n, "s")
    traced_total = sum(t["total"] for t in traced) / n
    out["bench.self_s"] = (
        traced_total - sum(out[f"{layer}.self_s"][0] for layer in LAYERS), "s")
    run_s = statistics.median(untraced)
    out["trace.run_s"] = (traced_total, "s")
    out["trace.overhead_s"] = (
        statistics.median(t["total"] for t in traced) - run_s, "s")
    events = counts["sim.events"]
    out["sim.events"] = (events, "count")
    out["sim.processes"] = (first["processes"], "count")
    out["sim.us_per_event"] = (1e6 * run_s / events if events else 0.0, "us")
    for key in ("storage.requests", "io.cache_hits", "io.cache_misses",
                "cli.instructions", "webserver.threads_spawned",
                "cluster.failovers", "cluster.retries", "cluster.rebuilt_keys",
                "faults.injected", "sanitizer.races"):
        out[key] = (counts[key], "count")
    accesses = counts["io.accesses"]
    out["io.hit_ratio"] = (
        counts["io.cache_hits"] / accesses if accesses else 0.0, "ratio")
    out["io.accesses"] = (accesses, "count")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if args.rss_only:
        return _rss_only(args)
    # Interpreter start-up counts as set-up; building and timing the
    # reference loop does not.
    ref_start = time.process_time()
    ref = ReferenceLoop()
    ref_before = ref.seconds()
    ref_cost = time.process_time() - ref_start

    # Loaded here, not at the top, because importing the program is part
    # of the set-up being timed.
    workload = _load(args.workload)
    if workload is None:
        return 2
    inputs = workload.inputs(args.seed)
    workload.stack(inputs)
    setup_cpu = time.process_time() - ref_cost
    ref_prev = ref.seconds()
    result = {"setup_s": normalize(setup_cpu, ref_before, ref_prev)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    expected = expected_digest(workload.name, args.seed)
    # Set-up's long-lived objects (modules, inputs) leave the collector's
    # view, so a rep's collections walk only what that rep creates.
    gc.collect()
    gc.freeze()
    census = Census()
    tracer = LayerTracer() if args.trace else None
    untraced, traced = [], []
    raw_wall, raw_cpu, raw_ref = [], [], []
    failures = []
    first_counts = traced_counts = None
    reps = 0
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(untraced) < MIN_REPS
           or (tracer is not None and len(traced) < MIN_REPS)):
        tracing = tracer is not None and reps % 2 == 1
        gc.collect()
        census.take()
        if tracing:
            tracer.reset()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcome, error = workload.rep(inputs), None
        except Exception as exc:  # a failed rep is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if tracing:
            tracer.uninstall()
        ref_next = ref.seconds()
        factor = normalize(1.0, ref_prev, ref_next)
        counts = rep_counts(census.take())
        if error is not None:
            reasons = [error]
        else:
            reasons = check_rep(outcome, workload.violations(outcome),
                                expected, counts, first_counts)
        if first_counts is None and error is None:
            first_counts = counts
        if reasons:
            failures.append(f"rep {reps}: " + "; ".join(reasons))
        if tracing:
            traced.append({"self_s": dict(tracer.self_s),
                           "calls": dict(tracer.calls),
                           "processes": tracer.processes,
                           "factor": factor, "total": wall * factor})
            traced_counts = counts
        else:
            untraced.append(cpu * factor)
            raw_wall.append(wall)
            raw_cpu.append(cpu)
            raw_ref.append((ref_prev + ref_next) / 2)
        ref_prev = ref_next
        reps += 1
    census.close()

    result.update({
        "reps": reps,
        "failed": len(failures),
        "failures": failures[:5],
        "run_s": statistics.median(untraced),
        "digest_checked": expected is not None,
    })
    if tracer is not None:
        layers = _layer_metrics(traced, untraced, traced_counts)
        # Raw host seconds per untraced rep, so host drift stays visible.
        for name, values in (("raw.wall_s", raw_wall), ("raw.cpu_s", raw_cpu),
                             ("raw.ref_s", raw_ref)):
            layers[name] = (statistics.median(values), "s")
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
