"""Run experiments and print/save the report::

    python -m repro.bench                       # everything, to stdout
    python -m repro.bench fig4 tab1             # a subset
    python -m repro.bench --jobs 4              # across worker processes
    python -m repro.bench --profile prof/       # cProfile per experiment
    python -m repro.bench --output report.txt   # also save the text
    python -m repro.bench --json results.json   # machine-readable dump
    python -m repro.bench tab1 --trace-out t.json   # Chrome/Perfetto trace
    python -m repro.bench tab1 --trace-jsonl t.jsonl  # JSONL event dump
    python -m repro.bench ext_scale --wallclock-append BENCH_wallclock.jsonl
    python -m repro.bench ext_faults --telemetry-out series.jsonl
    python -m repro.bench ext_cluster --sanitize     # race detector on

Simulated metrics are deterministic, so ``--jobs N`` output is
byte-identical to a serial run (wall seconds aside).  Tracing and
telemetry force ``--jobs 1``: a single collector cannot span
processes.

``--telemetry-out`` samples each telemetry-aware experiment's metrics
registry on simulated time into a windowed series file (render it with
``python -m repro.obs timeline``); sampling never perturbs simulated
results, and two same-seed runs write byte-identical series.

Unknown experiment ids and ``--jobs`` below 1 are usage errors (exit 2)
caught before anything runs.  A ``--json`` dump is checked for drift
with ``python -m repro.bench.compare results/full_report.json
<dump>``.

See docs/observability.md for the trace formats and
docs/performance.md for profiling and the wall-clock workflow.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment
from repro.bench.report import render_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXP",
        help=f"experiment ids (default: all of {', '.join(sorted(ALL_EXPERIMENTS))})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments across N worker processes "
        "(default 1 = serial; output is byte-identical either way)",
    )
    parser.add_argument(
        "--profile",
        dest="profile_dir",
        metavar="DIR",
        help="run each experiment under cProfile and write "
        "DIR/<exp_id>.pstats",
    )
    parser.add_argument("--output", help="also write the text report to this file")
    parser.add_argument("--json", dest="json_path",
                        help="write results as JSON to this file")
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        help="record simulation spans and write a Chrome trace_event JSON "
        "file (open in ui.perfetto.dev or chrome://tracing)",
    )
    parser.add_argument(
        "--trace-jsonl",
        dest="trace_jsonl",
        help="record simulation spans and write them as JSON-lines",
    )
    parser.add_argument(
        "--telemetry-out",
        dest="telemetry_out",
        metavar="PATH",
        help="sample each experiment's metrics registry on simulated "
        "time and write the windowed series as deterministic JSONL "
        "(render with: python -m repro.obs timeline PATH)",
    )
    parser.add_argument(
        "--telemetry-interval-ms",
        dest="telemetry_interval_ms",
        type=float,
        default=100.0,
        metavar="MS",
        help="telemetry sampling interval in simulated milliseconds "
        "(default 100)",
    )
    parser.add_argument(
        "--wallclock-append",
        dest="wallclock_append",
        metavar="PATH",
        help="append one JSON line of per-experiment wall seconds to "
        "PATH (the committed BENCH_wallclock.jsonl trajectory)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the happens-before race detector "
        "(repro.sanitizer); simulated metrics are unchanged, exit "
        "status 1 if any race is reported (forces --jobs 1)",
    )
    args = parser.parse_args(argv)
    unknown = [e for e in args.experiments if e not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    detector = None
    if args.sanitize:
        from repro.sanitizer import enable

        detector = enable()
        if args.jobs != 1:
            # The detector's clocks live in this process's engines.
            print("sanitizer requested: forcing --jobs 1")
            args.jobs = 1

    tracer = None
    if args.trace_out or args.trace_jsonl:
        from repro.obs import Tracer

        tracer = Tracer()
        if args.jobs != 1:
            # One Tracer cannot observe engines in other processes.
            print("tracing requested: forcing --jobs 1")
            args.jobs = 1

    telemetry = None
    if args.telemetry_out:
        from repro.obs import Telemetry, TelemetryConfig

        telemetry = Telemetry(TelemetryConfig(
            interval=args.telemetry_interval_ms * 1e-3))
        if args.jobs != 1:
            # One hub cannot collect samplers in other processes.
            print("telemetry requested: forcing --jobs 1")
            args.jobs = 1
        if args.profile_dir is not None:
            print("telemetry is not collected under --profile "
                  "(profiled runs execute in the worker harness)")
            telemetry = None

    exp_ids = args.experiments or sorted(ALL_EXPERIMENTS)

    if args.jobs != 1:
        from repro.bench.parallel import run_experiments_parallel

        timed = run_experiments_parallel(
            exp_ids, args.jobs, profile_dir=args.profile_dir
        )
    else:
        timed = []
        for exp_id in exp_ids:
            if args.profile_dir is not None:
                from repro.bench.parallel import run_one

                _exp_id, payload, elapsed = run_one(exp_id, args.profile_dir)
                from repro.bench.report import ExperimentResult

                timed.append((ExperimentResult.from_dict(payload), elapsed))
            else:
                t0 = time.perf_counter()  # det: allow - wall-time measurement is the point
                result = run_experiment(exp_id, tracer=tracer,
                                        telemetry=telemetry)
                timed.append((result, time.perf_counter() - t0))  # det: allow - wall-time measurement

    blocks = []
    dumps = []
    wall_seconds = {}
    for (result, elapsed), exp_id in zip(timed, exp_ids):
        block = render_table(result) + f"\n  (ran in {elapsed:.2f}s wall)"
        print(block)
        print()
        blocks.append(block)
        wall_seconds[exp_id] = elapsed
        entry = result.to_dict()
        entry["wall_seconds"] = round(elapsed, 3)
        dumps.append(entry)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(blocks) + "\n")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh, indent=2)
    if args.wallclock_append:
        line = {
            "date": time.strftime("%Y-%m-%d"),  # det: allow - wall-clock log timestamp
            "jobs": args.jobs,
            "experiments": {k: round(v, 3) for k, v in wall_seconds.items()},
            "total_wall_seconds": round(sum(wall_seconds.values()), 3),
        }
        with open(args.wallclock_append, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"appended wall-clock snapshot to {args.wallclock_append}")
    if telemetry is not None:
        n = telemetry.write(args.telemetry_out)
        print(f"wrote {n} telemetry records to {args.telemetry_out} "
              f"(render with: python -m repro.obs timeline "
              f"{args.telemetry_out})")
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        if args.trace_out:
            n = write_chrome_trace(args.trace_out, tracer)
            print(f"wrote {n} trace events to {args.trace_out} "
                  f"(categories: {', '.join(tracer.categories_seen())})")
        if args.trace_jsonl:
            n = write_jsonl(args.trace_jsonl, tracer)
            print(f"wrote {n} events to {args.trace_jsonl}")
    if detector is not None:
        from repro.sanitizer import disable

        disable()
        print(detector.format_report())
        if detector.races:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
