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

from importlib import import_module as _import_module

#: Public name -> the module that defines it, resolved on first access
#: (:func:`__getattr__`): a simulation imports the tracer and the
#: registry, never the analysis, report, SLO, telemetry or export code.
_EXPORTS = {
    "Tracer": "repro.obs.tracer",
    "Span": "repro.obs.tracer",
    "TraceEvent": "repro.obs.tracer",
    "NullTracer": "repro.obs.tracer",
    "NULL_TRACER": "repro.obs.tracer",
    "MetricsRegistry": "repro.obs.metrics",
    "summarize": "repro.obs.tracer",
    "render_summary": "repro.obs.tracer",
    "to_chrome_trace": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "to_jsonl": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "read_jsonl": "repro.obs.export",
    "TraceAnalysis": "repro.obs.analysis",
    "PathStep": "repro.obs.analysis",
    "analyze": "repro.obs.analysis",
    "SloSpec": "repro.obs.slo",
    "AlertRule": "repro.obs.slo",
    "SloEvaluator": "repro.obs.slo",
    "Telemetry": "repro.obs.timeseries",
    "TelemetryConfig": "repro.obs.timeseries",
    "TelemetrySampler": "repro.obs.timeseries",
    "metric_layer": "repro.obs.timeseries",
    "write_series_jsonl": "repro.obs.export",
    "read_series_jsonl": "repro.obs.export",
    "analysis_to_dict": "repro.obs.report",
    "render_timeline_report": "repro.obs.report",
    "render_trace_report": "repro.obs.report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
