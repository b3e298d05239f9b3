"""Unified observability: spans, metrics, and trace export.

The measurement layer the whole reproduction reports into — the paper
is *about* per-operation timing, so instrumentation is a first-class
subsystem rather than per-module ad-hoc counters:

* :class:`Tracer` / :class:`Span` — nestable spans, instants and
  counter samples stamped in simulated time (``docs/observability.md``
  documents the model);
* :class:`MetricsRegistry` — one named catalogue over the existing
  ``Counter``/``Tally``/``TimeWeighted``/``Histogram`` collectors with
  a single ``snapshot()``;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  Perfetto) and JSONL exporters;
* :mod:`repro.obs.analysis` / :mod:`repro.obs.report` —
  :func:`analyze` turns a trace into self/total rollups, a per-layer
  critical path, percentiles, utilization and a directly-follows
  graph; ``python -m repro.obs report`` renders it.

Turn the whole stack on with one line::

    from repro.obs import Tracer, write_chrome_trace
    from repro.sim import Engine

    tracer = Tracer()
    engine = Engine(tracer=tracer)       # every component now reports
    ...
    write_chrome_trace("out.json", tracer)

The default is :data:`NULL_TRACER`: every hook is a no-op, so an
uninstrumented run pays nothing.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    render_summary,
    summarize,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.export import (
    read_jsonl,
    read_series_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_series_jsonl,
)
from repro.obs.analysis import PathStep, TraceAnalysis, analyze
from repro.obs.slo import AlertRule, SloEvaluator, SloSpec
from repro.obs.timeseries import (
    Telemetry,
    TelemetryConfig,
    TelemetrySampler,
    metric_layer,
)
from repro.obs.report import (
    analysis_to_dict,
    render_timeline_report,
    render_trace_report,
)

__all__ = [
    "Tracer",
    "Span",
    "TraceEvent",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "summarize",
    "render_summary",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "TraceAnalysis",
    "PathStep",
    "analyze",
    "SloSpec",
    "AlertRule",
    "SloEvaluator",
    "Telemetry",
    "TelemetryConfig",
    "TelemetrySampler",
    "metric_layer",
    "write_series_jsonl",
    "read_series_jsonl",
    "analysis_to_dict",
    "render_timeline_report",
    "render_trace_report",
]
