"""Command-line trace tooling::

    python -m repro.traces generate dmine -o dmine.umdt
    python -m repro.traces info dmine.umdt
    python -m repro.traces replay dmine.umdt [--cold] [--policy adaptive]

A trace file that cannot be read or written, or is not a valid trace,
is a usage error: one ``error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse

from repro.errors import TraceError
from repro.traces import (
    APPLICATIONS,
    IOOp,
    ReplayConfig,
    TraceReplayer,
    generate_trace,
    read_trace,
    write_trace,
)


def _cmd_generate(args: argparse.Namespace) -> int:
    header, records = generate_trace(args.application)
    out = args.output or f"{args.application}.umdt"
    written = write_trace(out, header, records)
    print(f"wrote {written.num_records} records to {out} "
          f"(sample file {written.sample_file})")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.traces.analysis import summarize

    header, records = args.loaded
    print(f"trace          : {args.trace}")
    print(f"processes      : {header.num_processes}")
    print(f"files          : {header.num_files}")
    print(f"records        : {header.num_records}")
    print(f"records offset : {header.records_offset}")
    print(f"sample file    : {header.sample_file}")
    summary = summarize(records)
    for op in IOOp:
        count = summary.op_counts[op]
        if count:
            print(f"  {op.name.lower():5s}: {count:6d} records")
    print(f"bytes read     : {summary.bytes_read}")
    print(f"bytes written  : {summary.bytes_written}")
    print(f"unique bytes   : {summary.unique_bytes}")
    print(f"request sizes  : {summary.min_request} .. {summary.max_request}")
    print(f"sequentiality  : {summary.sequentiality:.2%}")
    print(f"reuse factor   : {summary.reuse_factor:.2f}x")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    header, records = args.loaded
    cfg = ReplayConfig(warmup=not args.cold, prefetch_policy=args.policy)
    result = TraceReplayer(cfg).replay(header, records, args.trace)
    print(f"replayed {len(records)} records in {result.total_time:.4f} "
          "simulated seconds")
    for stats in result.timings.all_stats():
        print(f"  {stats}")
    print(f"cache: {result.cache_hits} hits / {result.cache_misses} misses; "
          f"JIT methods: {result.jit_methods}; "
          f"CIL instructions: {result.instructions}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.traces")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an application trace")
    gen.add_argument("application", choices=sorted(APPLICATIONS))
    gen.add_argument("-o", "--output", help="output path (default <app>.umdt)")
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="describe a trace file")
    info.add_argument("trace")
    info.set_defaults(func=_cmd_info)

    rep = sub.add_parser("replay", help="replay a trace through the CLI VM")
    rep.add_argument("trace")
    rep.add_argument("--cold", action="store_true",
                     help="measure a cold VM and cache (no warm-up pass)")
    rep.add_argument("--policy", default="fixed",
                     choices=("none", "fixed", "adaptive"),
                     help="prefetch policy (default fixed)")
    rep.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    if args.command == "generate":
        try:
            return args.func(args)  # its only I/O is writing the trace
        except OSError as exc:
            parser.error(str(exc))
    try:
        args.loaded = read_trace(args.trace)
    except (OSError, TraceError) as exc:
        parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
