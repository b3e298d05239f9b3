"""The metrics registry: one named catalogue over every collector.

The simulation already has good collectors —
:class:`~repro.sim.stats.Counter`, :class:`~repro.sim.stats.Tally`,
:class:`~repro.sim.stats.TimeWeighted`,
:class:`~repro.sim.stats.Histogram` — but each component kept its own
ad-hoc handful, so "what did this run measure?" had no single answer.
A :class:`MetricsRegistry` unifies them: components register their
collectors (or zero-argument gauge callables) under dotted names with
optional labels, and ``snapshot()`` returns the whole run's state as
one plain dict, ready for JSON.

Every :class:`~repro.sim.engine.Engine` owns a registry
(``engine.metrics``); components register at construction, so the
catalogue is always complete without any per-event cost.  A component
that brings its collectors up to date lazily (a disk that commits
requests at enqueue records each one when it is next looked at) also
registers a *settler*, which every read through the registry runs
first (:meth:`MetricsRegistry.settle`).

The registry dispatches on *structure*, not type, so it accepts any
object quacking like one of the standard collectors (and dataclasses
such as :class:`~repro.io.buffercache.CacheStats` — summarized field
by field).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named, labeled catalogue of metric collectors.

    Names are dotted strings (``"disk.service"``); registering a name
    that is already taken appends ``#2``, ``#3``, … so independent
    components never clobber each other (``register`` returns the
    final name).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._labels: Dict[str, Dict[str, Any]] = {}
        self._settlers: List[Callable[[], None]] = []

    # -- registration -----------------------------------------------------------

    def register(self, name: str, collector: Any, **labels: Any) -> str:
        """Add ``collector`` under ``name``; returns the (possibly
        uniquified) name actually used."""
        if not name:
            raise SimulationError("metric name must be non-empty")
        final = name
        n = 1
        while final in self._metrics:
            n += 1
            final = f"{name}#{n}"
        self._metrics[final] = collector
        if labels:
            self._labels[final] = dict(labels)
        return final

    def gauge(self, name: str, fn: Callable[[], Any], **labels: Any) -> str:
        """Register a zero-argument callable sampled at snapshot time."""
        if not callable(fn):
            raise SimulationError(f"gauge {name!r} needs a callable, got {fn!r}")
        return self.register(name, fn, **labels)

    def add_settler(self, fn: Callable[[], None]) -> None:
        """Register ``fn()`` to run before every read of the registry,
        so collectors that lag the clock catch up first."""
        self._settlers.append(fn)

    def settle(self) -> None:
        """Bring every lazily updated collector up to the current time."""
        for fn in self._settlers:
            fn()

    # -- queries ---------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Any:
        """The collector registered as ``name``, brought up to the
        current time first (see :meth:`add_settler`)."""
        self.settle()
        try:
            return self._metrics[name]
        except KeyError:
            raise SimulationError(f"no metric named {name!r}") from None

    def labels_of(self, name: str) -> Dict[str, Any]:
        return dict(self._labels.get(name, {}))

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- snapshot ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """Summarize every registered metric into one JSON-ready dict.

        Each entry carries a ``type`` key (``counter``, ``tally``,
        ``time_weighted``, ``histogram``, ``gauge``, ``object`` or
        ``value``) plus type-specific fields; empty tallies report
        ``count: 0`` with ``None`` statistics rather than raising.
        """
        self.settle()
        out: Dict[str, dict] = {}
        for name, collector in self._metrics.items():
            entry = _summarize(collector)
            labels = self._labels.get(name)
            if labels:
                entry["labels"] = dict(labels)
            out[name] = entry
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self._metrics)} metrics>"


def _summarize(obj: Any) -> dict:
    """Structural dispatch over the known collector shapes."""
    # Histogram: binned counts with under/overflow.
    if hasattr(obj, "bin_edges") and hasattr(obj, "counts"):
        return {
            "type": "histogram",
            "count": obj.count,
            "low": obj.low,
            "high": obj.high,
            "bins": obj.bins,
            "counts": [int(c) for c in obj.counts],
            "underflow": obj.underflow,
            "overflow": obj.overflow,
        }
    # Tally: per-observation statistics (guard the empty case).
    if hasattr(obj, "percentile") and hasattr(obj, "count"):
        if obj.count == 0:
            return {"type": "tally", "count": 0, "total": 0.0,
                    "mean": None, "min": None, "max": None}
        return {
            "type": "tally",
            "count": obj.count,
            "total": obj.total,
            "mean": obj.mean,
            "min": obj.minimum,
            "max": obj.maximum,
        }
    # TimeWeighted: piecewise-constant signal.
    if hasattr(obj, "current") and callable(getattr(obj, "mean", None)):
        return {
            "type": "time_weighted",
            "current": obj.current,
            "mean": obj.mean(),
            "max": obj.maximum,
        }
    # Counter: monotone value.
    if hasattr(obj, "add") and hasattr(obj, "value"):
        return {"type": "counter", "value": obj.value}
    # Dataclass (e.g. CacheStats): field-by-field.
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"type": "object", "fields": dataclasses.asdict(obj)}
    # Gauge: sample the callable now.
    if callable(obj):
        return {"type": "gauge", "value": obj()}
    return {"type": "value", "value": obj}
