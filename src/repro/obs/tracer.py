"""Spans and the tracer: the unified event model for observability.

Every instrumented component in the stack reports into a
:class:`Tracer` — a time-ordered buffer of :class:`TraceEvent` objects
stamped against *simulated* time.  Three event kinds cover everything
the paper's measurements need:

* **span** — an interval with a name, category, start/end times,
  structured attributes, and an optional parent link (nesting);
* **instant** — a point event (an eviction, a prefetch issue);
* **counter** — a sampled numeric series (queue depths, residency).

Components never hold a tracer directly: they reach it through
``engine.tracer`` (see :class:`repro.sim.engine.Engine`), so a single
``Engine(tracer=Tracer())`` turns on instrumentation for the whole
stack.  The default is the shared :class:`NullTracer`, whose every
operation is a no-op and whose ``enabled`` flag lets hot paths skip
even argument construction::

    tr = self.engine.tracer
    if tr.enabled:
        tr.instant("evict", "io", page=page)

Timestamps come from the engine the tracer is *attached* to.  A
tracer can outlive one engine and be attached to several in sequence
(the bench harness reuses one tracer across experiments); each
attachment opens a new *process group* (``pid``) so exported traces
keep runs visually separate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import SimulationError

__all__ = ["TraceEvent", "Span", "Tracer", "NullTracer", "NULL_TRACER",
           "summarize", "render_summary"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded observability event.

    ``start`` and ``end`` are simulated seconds; for ``instant`` and
    ``counter`` events they are equal.  ``span_id`` is unique within
    one tracer; ``parent_id`` links nested spans.  ``pid`` is the
    process group (one per engine attachment), ``tid`` the track
    within it (stream/thread id, 0 by default).
    """

    kind: str  # "span" | "instant" | "counter"
    name: str
    category: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    pid: int
    tid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-serializable representation (the JSONL line shape)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "end": self.end,
            "id": self.span_id,
            "parent": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            name=data["name"],
            category=data["cat"],
            start=data["start"],
            end=data["end"],
            span_id=data["id"],
            parent_id=data.get("parent"),
            pid=data.get("pid", 0),
            tid=data.get("tid", 0),
            attrs=dict(data.get("attrs", {})),
        )


class Span:
    """An open span; finish it with :meth:`end` or use it as a
    context manager (``with tracer.span(...)``).

    The span records its start time at creation and its end time when
    closed; both are read from the owning tracer's clock.  Attributes
    passed to :meth:`end` merge over those given at creation.
    """

    __slots__ = ("tracer", "name", "category", "span_id", "parent_id",
                 "tid", "start", "attrs", "_open")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        span_id: int,
        parent_id: Optional[int],
        tid: int,
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = tid
        self.start = start
        self.attrs = attrs
        self._open = True

    def end(self, **attrs: Any) -> None:
        """Close the span at the tracer's current time."""
        if not self._open:
            raise SimulationError(f"span {self.name!r} already ended")
        self._open = False
        if attrs:
            self.attrs.update(attrs)
        self.tracer._finish_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._open:
            self.end()


class _NullSpan:
    """Do-nothing span returned by the null tracer."""

    __slots__ = ()
    attrs: Dict[str, Any] = {}

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing (the default everywhere).

    Stateless and shared (:data:`NULL_TRACER`); every method is a
    no-op, and hot paths test :attr:`enabled` first, so
    instrumentation is zero-cost when disabled.
    """

    __slots__ = ()
    enabled = False

    def attach(self, engine: Any, name: Optional[str] = None) -> None:
        pass

    def name_process(self, name: str) -> None:
        pass

    def span(self, name: str, category: str = "", tid: int = 0, **attrs: Any):
        return _NULL_SPAN

    def complete(self, name: str, category: str, start: float,
                 end: Optional[float] = None, tid: int = 0,
                 parent: Optional[int] = None, **attrs: Any) -> None:
        pass

    def instant(self, name: str, category: str = "", tid: int = 0,
                **attrs: Any) -> None:
        pass

    def counter(self, name: str, category: str, value: float,
                tid: int = 0, at: Optional[float] = None) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Shared do-nothing instance; safe because NullTracer is stateless.
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer: an append-only event buffer.

    Parameters
    ----------
    categories:
        If given, only events in these categories are recorded
        (e.g. ``{"storage"}`` keeps just the disk spans and queue
        counters).

    The tracer reads time from whichever engine it was last
    :meth:`attach`-ed to; before any attachment the clock reads 0.0.
    """

    enabled = True

    def __init__(self, categories: Optional[Iterable[str]] = None) -> None:
        self.categories = set(categories) if categories is not None else None
        self.events: List[TraceEvent] = []
        self.process_names: Dict[int, str] = {}
        self._engine: Any = None
        self._pid = 0
        self._next_id = 0
        # Per-(pid, tid) stack of open spans, for implicit parenting.
        self._stacks: Dict[tuple, List[Span]] = {}

    # -- clock / engine binding ---------------------------------------------

    @property
    def now(self) -> float:
        """Current time of the attached engine (0.0 if unattached)."""
        return self._engine.now if self._engine is not None else 0.0

    @property
    def pid(self) -> int:
        """Current process group (one per engine attachment)."""
        return self._pid

    def attach(self, engine: Any, name: Optional[str] = None) -> None:
        """Bind the clock to ``engine`` and open a new process group.

        Called by :class:`~repro.sim.engine.Engine` when a tracer is
        passed to its constructor; user code rarely calls this.
        """
        self._engine = engine
        self._pid += 1
        self.process_names.setdefault(self._pid, name or f"engine-{self._pid}")

    def name_process(self, name: str) -> None:
        """Label the current process group (shown in trace viewers)."""
        self.process_names[self._pid] = name

    # -- recording ------------------------------------------------------------

    def wants(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def span(self, name: str, category: str = "", tid: int = 0,
             **attrs: Any) -> Span:
        """Open a span at the current time.

        The span nests under the innermost open span on the same
        ``(pid, tid)`` track; close it with ``span.end()`` or use the
        returned object as a context manager
        (``with tracer.span("name", "cat"):``).
        """
        stack = self._stacks.setdefault((self._pid, tid), [])
        parent_id = stack[-1].span_id if stack else None
        self._next_id += 1
        span = Span(self, name, category, self._next_id, parent_id, tid,
                    self.now, attrs)
        stack.append(span)
        return span

    def _finish_span(self, span: Span) -> None:
        stack = self._stacks.get((self._pid, span.tid))
        if stack and span in stack:
            # Close any forgotten children along with the span.
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        if not self.wants(span.category):
            return
        self.events.append(TraceEvent(
            kind="span", name=span.name, category=span.category,
            start=span.start, end=self.now, span_id=span.span_id,
            parent_id=span.parent_id, pid=self._pid, tid=span.tid,
            attrs=span.attrs,
        ))

    def complete(self, name: str, category: str, start: float,
                 end: Optional[float] = None, tid: int = 0,
                 parent: Optional[int] = None, **attrs: Any) -> None:
        """Record an already-finished span retroactively.

        The idiom for coroutine code that measured ``start`` itself
        (``t0 = engine.now; ...; tracer.complete("fs.read", "io", t0)``)
        — no context-manager bookkeeping on the hot path.
        """
        if not self.wants(category):
            return
        stop = self.now if end is None else end
        if stop < start:
            raise SimulationError(
                f"span {name!r} ends before it starts ({stop} < {start})"
            )
        self._next_id += 1
        self.events.append(TraceEvent(
            kind="span", name=name, category=category, start=start,
            end=stop, span_id=self._next_id, parent_id=parent,
            pid=self._pid, tid=tid, attrs=attrs,
        ))

    def instant(self, name: str, category: str = "", tid: int = 0,
                **attrs: Any) -> None:
        """Record a point event at the current time."""
        if not self.wants(category):
            return
        now = self.now
        self._next_id += 1
        self.events.append(TraceEvent(
            kind="instant", name=name, category=category, start=now,
            end=now, span_id=self._next_id, parent_id=None,
            pid=self._pid, tid=tid, attrs=attrs,
        ))

    def counter(self, name: str, category: str, value: float,
                tid: int = 0, at: Optional[float] = None) -> None:
        """Record one sample of a numeric series (e.g. queue depth),
        taken now or, for a component that records lazily, ``at`` an
        earlier time."""
        if not self.wants(category):
            return
        now = self.now if at is None else at
        self._next_id += 1
        self.events.append(TraceEvent(
            kind="counter", name=name, category=category, start=now,
            end=now, span_id=self._next_id, parent_id=None,
            pid=self._pid, tid=tid, attrs={"value": value},
        ))

    # -- queries ---------------------------------------------------------------

    def spans(self, category: Optional[str] = None) -> List[TraceEvent]:
        """All span events, optionally filtered by category."""
        return [e for e in self.events
                if e.kind == "span" and (category is None or e.category == category)]

    def by_category(self, category: str) -> List[TraceEvent]:
        return [e for e in self.events if e.category == category]

    def categories_seen(self) -> List[str]:
        """Sorted distinct categories present in the buffer."""
        return sorted({e.category for e in self.events})

    def clear(self) -> None:
        self.events.clear()
        self._stacks.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer events={len(self.events)} pid={self._pid}>"


#: Instance decorations collapsed by :func:`summarize`:
#: ``prefetch[1:128+8]`` → ``prefetch[*]``, ``worker-17`` → ``worker-*``.
_INSTANCE_RE = re.compile(r"(\[[^\]]*\]|-\d+)$")


def _collapse(name: str) -> str:
    return _INSTANCE_RE.sub(lambda m: "[*]" if m.group(1).startswith("[") else "-*",
                            name)


def summarize(tracer: "Tracer", collapse: bool = True) -> Dict[tuple, Dict[str, float]]:
    """Aggregate span statistics: ``{(category, name): {count, total_s,
    mean_s, max_s}}``, sorted output left to the caller.

    With ``collapse`` (default), per-instance name decorations are
    merged — ``process:prefetch[1:128+8]`` and its hundreds of
    siblings become one ``process:prefetch[*]`` row."""
    out: Dict[tuple, Dict[str, float]] = {}
    for event in tracer.events:
        if event.kind != "span":
            continue
        key = (event.category, _collapse(event.name) if collapse else event.name)
        row = out.setdefault(key, {"count": 0, "total_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += event.duration
        if event.duration > row["max_s"]:
            row["max_s"] = event.duration
    for row in out.values():
        row["mean_s"] = row["total_s"] / row["count"] if row["count"] else 0.0
    return out


def render_summary(tracer: "Tracer") -> str:
    """Monospace span-summary table (category, name, count, total,
    mean, max), categories then names alphabetical."""
    rows = summarize(tracer)
    lines = [f"{'category':<12} {'span':<28} {'count':>7} "
             f"{'total_ms':>12} {'mean_ms':>12} {'max_ms':>12}"]
    for (category, name) in sorted(rows):
        r = rows[(category, name)]
        lines.append(
            f"{category:<12} {name:<28} {r['count']:>7d} "
            f"{r['total_s'] * 1e3:>12.4f} {r['mean_s'] * 1e3:>12.4f} "
            f"{r['max_s'] * 1e3:>12.4f}"
        )
    return "\n".join(lines)
