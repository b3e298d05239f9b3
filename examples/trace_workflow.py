#!/usr/bin/env python3
"""Full trace workflow: generate → write → read → replay → compare.

Demonstrates the §3 benchmark end to end, including the binary trace
file format (§3.2) on real disk files, and uses the replayer to
compare prefetch policies — the mechanism behind the paper's
§3.4 "prefetch ... page fault" discussion.

Usage::

    python examples/trace_workflow.py [output-dir]
"""

import sys
import tempfile
from pathlib import Path

from repro import ReplayConfig, TraceReplayer
from repro.obs import Tracer, render_summary
from repro.traces import (
    APPLICATIONS,
    IOOp,
    generate_trace,
    read_trace,
    write_trace,
)


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)

    # 1. Generate and persist all five application traces.
    print(f"Writing traces to {out_dir}")
    paths = {}
    for name in sorted(APPLICATIONS):
        header, records = generate_trace(name)
        path = out_dir / f"{name}.umdt"
        write_trace(path, header, records)
        paths[name] = path
        print(f"  {name:9s} {len(records):5d} records  {path.stat().st_size:8d} bytes")

    # 2. Read one back and replay it under three prefetch policies.
    header, records = read_trace(paths["dmine"])
    print(f"\nReplaying dmine ({header.num_records} records) under three "
          "prefetch policies (cold cache):")
    print(f"{'policy':>10s} {'mean read ms':>14s} {'cache misses':>13s} "
          f"{'total time s':>13s}")
    for policy in ("none", "fixed", "adaptive"):
        cfg = ReplayConfig(warmup=False, prefetch_policy=policy)
        result = TraceReplayer(cfg).replay(header, records, "dmine")
        print(
            f"{policy:>10s} {result.timings.mean_ms(IOOp.READ):>14.4f} "
            f"{result.cache_misses:>13d} {result.total_time:>13.3f}"
        )

    # 3. Show the per-request fault pattern for cholesky (Table 4's shape),
    #    with a tracer recording where the disk and cache time went.
    header, records = read_trace(paths["cholesky"])
    tracer = Tracer(categories={"storage", "io"})
    result = TraceReplayer(
        ReplayConfig(warmup=False, tracer=tracer)
    ).replay(header, records, "cholesky")
    print("\nCholesky per-request read times (buffer hits vs page faults):")
    for size, ms in result.rows_for(IOOp.READ):
        marker = "#" * min(60, max(1, int(ms * 4))) if ms > 0.05 else ""
        print(f"  {size:>8d} B {ms:>10.4f} ms {marker}")

    print("\nDisk/cache/file-system spans over the replay:")
    print(render_summary(tracer))


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="repro-traces-"))
    main(target)
