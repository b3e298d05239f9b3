"""Trace and telemetry exporters: Chrome ``trace_event`` JSON and JSONL.

Two interchange formats for a recorded :class:`~repro.obs.Tracer`:

* **Chrome trace JSON** — the ``trace_event`` format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev: a dict with a
  ``traceEvents`` list of complete (``"ph": "X"``), instant
  (``"ph": "i"``), counter (``"ph": "C"``) and metadata (``"ph": "M"``)
  events.  Timestamps are microseconds of *simulated* time; each
  engine attachment becomes a ``pid`` with a ``process_name`` record.
* **JSONL** — one :meth:`~repro.obs.TraceEvent.to_dict` object per
  line; trivially greppable, diffable, and loadable with
  :func:`read_jsonl` for programmatic analysis.

Plus the *telemetry series* JSONL format
(:mod:`repro.obs.timeseries`): one record per line with a ``kind``
discriminator (``telemetry.header`` / ``sample`` / ``alert`` /
``slo``), written canonically — sorted keys, floats rounded to a fixed
precision — so two same-seed runs produce **byte-identical** files
(:func:`write_series_jsonl` / :func:`read_series_jsonl`).

See ``docs/observability.md`` for the documented field layouts and
worked examples.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Union

from repro.errors import SimulationError
from repro.obs.tracer import TraceEvent, Tracer

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "series_lines",
    "write_series_jsonl",
    "read_series_jsonl",
]

#: Simulated seconds → trace_event microseconds.
_US = 1e6


def _tracers(tracer: Union[Tracer, Iterable[Tracer]]) -> List[Tracer]:
    if isinstance(tracer, Tracer):
        return [tracer]
    tracers = list(tracer)
    if not all(isinstance(t, Tracer) for t in tracers):
        raise SimulationError("to_chrome_trace needs Tracer instances")
    return tracers


def to_chrome_trace(tracer: Union[Tracer, Iterable[Tracer]]) -> dict:
    """Build the ``trace_event`` document for one or more tracers.

    When several tracers are given, their process groups are offset so
    ``pid`` values never collide in the merged view.
    """
    events: List[dict] = []
    pid_base = 0
    for tr in _tracers(tracer):
        for pid, name in sorted(tr.process_names.items()):
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid_base + pid,
                "tid": 0,
                "args": {"name": name},
            })
        for event in tr.events:
            events.append(_chrome_event(event, pid_base))
        pid_base += max(tr.process_names, default=0)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "source": "repro.obs"},
    }


def _chrome_event(event: TraceEvent, pid_base: int) -> dict:
    common = {
        "name": event.name,
        "cat": event.category or "default",
        "pid": pid_base + event.pid,
        "tid": event.tid,
        "ts": event.start * _US,
    }
    if event.kind == "span":
        common["ph"] = "X"
        common["dur"] = event.duration * _US
        args = dict(event.attrs)
        if event.parent_id is not None:
            args["parent"] = event.parent_id
        common["args"] = args
    elif event.kind == "counter":
        common["ph"] = "C"
        common["args"] = {event.name: event.attrs.get("value", 0)}
    else:
        common["ph"] = "i"
        common["s"] = "t"  # thread-scoped instant
        common["args"] = dict(event.attrs)
    return common


def write_chrome_trace(path: str, tracer: Union[Tracer, Iterable[Tracer]]) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event
    count (excluding metadata records)."""
    doc = to_chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return sum(1 for e in doc["traceEvents"] if e["ph"] != "M")


def to_jsonl(tracer: Tracer) -> List[str]:
    """One compact JSON object per event, in recording order."""
    return [json.dumps(e.to_dict(), sort_keys=True) for e in tracer.events]


def write_jsonl(path: str, tracer: Tracer) -> int:
    """Write the JSONL stream to ``path``; returns the line count."""
    lines = to_jsonl(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


# ---------------------------------------------------------------------------
# Telemetry series JSONL (repro.obs.timeseries)
# ---------------------------------------------------------------------------

#: Decimal places kept in emitted series floats: enough for
#: microsecond-scale simulated times, few enough that float noise
#: cannot leak into the byte-for-byte determinism contract.
_SERIES_ROUND = 9


def _round_floats(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, _SERIES_ROUND)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def series_lines(records: Iterable[Dict[str, Any]]) -> List[str]:
    """One canonical JSON line per telemetry record (sorted keys,
    rounded floats) — the byte-reproducibility boundary."""
    return [
        json.dumps(_round_floats(record), sort_keys=True)
        for record in records
    ]


def write_series_jsonl(
    path_or_fh: Union[str, IO[str]], records: Iterable[Dict[str, Any]]
) -> int:
    """Write a telemetry record stream as JSONL; returns line count."""
    lines = series_lines(records)
    if hasattr(path_or_fh, "write"):
        for line in lines:
            path_or_fh.write(line + "\n")
    else:
        with open(path_or_fh, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    return len(lines)


def read_series_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a telemetry JSONL stream back into record dicts."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise SimulationError(
                    f"{path}:{lineno}: malformed series line ({exc})"
                ) from None
            if not isinstance(record, dict) or "kind" not in record:
                raise SimulationError(
                    f"{path}:{lineno}: series records need a 'kind' field"
                )
            records.append(record)
    return records


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError(
                        f"expected a JSON object, got {type(data).__name__}")
                events.append(TraceEvent.from_dict(data))
            except (ValueError, KeyError, TypeError) as exc:
                raise SimulationError(
                    f"{path}:{lineno}: malformed trace line ({exc})"
                ) from None
    return events
