"""The repository's benchmark: one workload, its metrics, and a verdict.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qcrd_disks --seed 0 --seconds 20
    python3 perfbench/run.py --workload web_thread --seed 3 --seconds 20 --trace 1

Workloads: ``qcrd_disks``, ``dmine_hot``, ``web_thread``,
``cluster_sanitize`` (see ``workloads.py`` for what each exercises).
Each run measures the workload in a fresh single-threaded worker
process, one simulation at a time.  With ``--trace 0`` it prints the
end-to-end metrics (``run_s``, ``setup_s``, ``peak_rss_mb``) and the
error rate; with ``--trace 1`` the per-layer metrics and the tracing
overhead.  Host seconds are normalized by a reference loop (see
``NORMALIZATION.md``); ``peak_rss_mb`` is the peak resident memory of
a separate worker that sets up and runs one rep without that loop.
The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when the run completed (whatever its verdict) and
non-zero, with no JSON line, when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().with_name("worker.py")

#: Set-up is timed in this many separate processes per run (the
#: measuring worker is one of them); the median is reported.
SETUP_SAMPLES = 5

#: A worker process that runs this long past ``--seconds`` is killed.
WORKER_GRACE_S = 60


def _worker(args, *mode: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *mode]
    # A fixed hash seed keeps set and dict layouts, and so the host work
    # per rep, the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload!r} exited with "
                         f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_table(metrics) -> None:
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        setups = []
    else:
        setups = [_worker(args, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        peak_rss_mb = _worker(args, "--rss-only")["peak_rss_mb"]
    run = _worker(args)
    setups.append(run["setup_s"])

    attempted, failed = run["reps"], run["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} reps, {failed} "
          f"failed (error_rate {failed / attempted:.4g}); simulated digest "
          + ("checked" if run["digest_checked"]
             else "not recorded for this seed, invariants checked"))
    for reason in run["failures"]:
        print(f"  FAILED {reason}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["layers"].items()}
        _print_table(metrics)
        accesses = metrics["io.accesses"]["value"]
        print(f"  io.hit_ratio is cache hits of {accesses:.0f} page accesses")
    else:
        metrics = {
            "run_s": {"value": run["run_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        _print_table(dict(metrics, error_rate={
            "value": failed / attempted, "unit": "failed/attempted"}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
