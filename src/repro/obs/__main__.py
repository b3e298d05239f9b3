"""Analyze traces and render telemetry timelines::

    python -m repro.bench tab1 --trace-jsonl tab1.jsonl
    python -m repro.obs report tab1.jsonl            # where did time go?
    python -m repro.obs report tab1.jsonl --format json   # machine-readable

    python -m repro.bench ext_faults --telemetry-out series.jsonl
    python -m repro.obs timeline series.jsonl        # when did it go there?

Exit codes: 0 on success, 2 on unreadable or invalid input.

See docs/observability.md ("Analysis & reports", "Time series, SLOs &
alerts") for the report sections, the series schema, and worked
examples.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.obs.analysis import analyze
from repro.obs.export import read_jsonl, read_series_jsonl
from repro.obs.report import (
    analysis_to_dict,
    render_timeline_report,
    render_trace_report,
)


def _check_top(top: int) -> int:
    """``--top`` must be positive: a non-positive limit would render
    nothing, which as CLI output is never what anyone wants."""
    if top <= 0:
        print(f"error: --top must be >= 1, got {top}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    status = _check_top(args.top)
    if status:
        return status
    try:
        events = read_jsonl(args.trace)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analysis = analyze(events)
    if args.format == "json":
        print(json.dumps(analysis_to_dict(analysis), indent=1,
                         sort_keys=True))
    else:
        print(render_trace_report(analysis, top=args.top))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    status = _check_top(args.top)
    if status:
        return status
    if args.width < 10:
        print(f"error: --width must be >= 10, got {args.width}",
              file=sys.stderr)
        return 2
    try:
        records = read_series_jsonl(args.series)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_timeline_report(records, top=args.top, width=args.width))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="trace analysis and telemetry timeline reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render the analysis report for a JSONL trace"
    )
    report.add_argument("trace", help="trace file from --trace-jsonl")
    report.add_argument("--top", type=int, default=20,
                        help="rows per table section (default 20)")
    report.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="text report or the full analysis rollup "
                        "as JSON (default text)")
    report.set_defaults(fn=_cmd_report)

    timeline = sub.add_parser(
        "timeline",
        help="render the time-resolved report for a telemetry series",
    )
    timeline.add_argument("series",
                          help="series file from --telemetry-out")
    timeline.add_argument("--top", type=int, default=20,
                          help="series rows shown (default 20)")
    timeline.add_argument("--width", type=int, default=60,
                          help="sparkline width in characters "
                          "(default 60)")
    timeline.set_defaults(fn=_cmd_timeline)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
