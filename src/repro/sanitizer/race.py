"""The happens-before race detector.

Every unit of concurrency on the engine — the root scheduling context,
each :class:`~repro.sim.process.Process`, each
:class:`~repro.sim.taskloop.Task` — gets a :class:`Context` carrying a
vector clock.  The instrumented kernel primitives thread
happens-before edges through the clocks (see the hooks the sim modules
install when :data:`repro.sanitizer.runtime.active` is set):

* process/task spawn forks the spawner's clock;
* ``Event.succeed``/``fail`` attaches the triggering context's clock
  to the event; a waiter joins it on resumption (this one edge covers
  ``Resource`` grant hand-off, ``Channel`` transfers, socket
  send/receive wake-ups, process join, and task completion for free);
* ``Store`` carries a clock per *buffered* item, so a ``put`` consumed
  later still orders the producer before the consumer;
* ``AllOf``/``AnyOf`` accumulate every child's clock, not just the
  last one's.

Data accesses are declared with the :func:`shared` annotation API:
hot shared structures (BufferCache page maps, the balancer's admitted
and in-sync sets, listener lifecycle state) call
``var.read(engine, op)`` / ``var.write(engine, op)`` at their access
points.

**What counts as a race.**  The engine orders same-time events by an
incidental sequence number; events at *different* simulated times are
ordered by the clock itself, deterministically and meaningfully.  So
the detector reports a pair of accesses iff they (1) touch the same
shared variable at the **same simulated timestamp**, (2) conflict (at
least one write), (3) are unordered by happens-before, and (4) neither
is ``relaxed``.  Such a pair is exactly a schedule-sensitivity hazard:
which access wins depends only on scheduling order, the thing a
refactor silently changes.  ``relaxed=True`` marks control-plane
observations (health probes, backoff peeks) that are correct under
either order by design — every relaxed site should say why.

The detector is purely observational: it never schedules events and
never draws randomness, so simulated metrics are byte-identical with
it on or off.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from os.path import basename
from sys import _getframe
from typing import Any, Iterator, List, Optional, Set, Tuple

from repro.sanitizer import runtime
from repro.sanitizer.vectorclock import (
    fork_clock,
    happened_before,
    join_into,
    joined,
)

__all__ = [
    "Access",
    "Context",
    "RaceDetector",
    "RaceReport",
    "SharedVar",
    "disable",
    "enable",
    "sanitized",
    "shared",
]

#: Context ids are unique across *all* detectors in a process, so a
#: clock entry from a retired detector can never alias a live context.
_tids = itertools.count(1)
_serials = itertools.count(1)


def _context_label(owner: Any) -> str:
    name = getattr(owner, "name", None) or getattr(owner, "label", None)
    kind = type(owner).__name__.lower()
    return f"{kind}:{name}" if name else kind


class Context:
    """One concurrency context (root scheduler, process, or task)."""

    __slots__ = ("det", "tid", "name", "path", "clock")

    def __init__(self, det: "RaceDetector", tid: int, name: str,
                 parent: Optional["Context"]) -> None:
        self.det = det
        self.tid = tid
        self.name = name
        self.path: Tuple[str, ...] = (
            parent.path + (name,) if parent is not None else (name,))
        self.clock = fork_clock(parent.clock if parent is not None else None,
                                tid)
        if parent is not None:
            parent.clock[parent.tid] += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Context {' > '.join(self.path)} tid={self.tid}>"


class Access:
    """One recorded access to a :class:`SharedVar`."""

    __slots__ = ("time", "tid", "epoch", "write", "relaxed", "op", "path",
                 "site")

    def __init__(self, time: float, tid: int, epoch: int, write: bool,
                 relaxed: bool, op: str, path: str, site: str) -> None:
        self.time = time
        self.tid = tid
        self.epoch = epoch
        self.write = write
        self.relaxed = relaxed
        self.op = op
        self.path = path
        self.site = site

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        return f"{kind} {self.op!r} at {self.site} in [{self.path}]"


class RaceReport:
    """An unordered conflicting access pair on one shared variable."""

    __slots__ = ("var_name", "time", "first", "second")

    def __init__(self, var_name: str, time: float, first: Access,
                 second: Access) -> None:
        self.var_name = var_name
        self.time = time
        self.first = first
        self.second = second

    def format(self) -> str:
        return (
            f"race on {self.var_name!r} at t={self.time:.6g}:\n"
            f"  {self.first.describe()}\n"
            f"  {self.second.describe()}"
        )

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RaceReport {self.var_name} t={self.time:.6g}>"


class SharedVar:
    """A declared shared mutable structure.

    Create with :func:`shared` at component construction; call
    :meth:`read`/:meth:`write` at each access point.  With no detector
    enabled both calls cost one global load and a compare.
    """

    __slots__ = ("name", "serial", "_det", "_time", "_accesses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.serial = next(_serials)
        self._det: Optional["RaceDetector"] = None
        self._time = -1.0
        self._accesses: List[Access] = []

    def read(self, engine: Any, op: str = "read",
             relaxed: bool = False) -> None:
        det = runtime.active
        if det is not None:
            frame = _getframe(1)
            det.record(
                self, engine, False, relaxed, op,
                f"{basename(frame.f_code.co_filename)}:{frame.f_lineno}")

    def write(self, engine: Any, op: str = "write",
              relaxed: bool = False) -> None:
        det = runtime.active
        if det is not None:
            frame = _getframe(1)
            det.record(
                self, engine, True, relaxed, op,
                f"{basename(frame.f_code.co_filename)}:{frame.f_lineno}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedVar {self.name}#{self.serial}>"


def shared(name: str) -> SharedVar:
    """Declare a shared mutable structure for race checking."""
    return SharedVar(name)


class RaceDetector:
    """Vector-clock race detector over annotated shared accesses.

    Attributes
    ----------
    races:
        :class:`RaceReport` list in detection order (deterministic:
        the engine's event order is).
    accesses, events_tracked:
        Work counters for the summary line.
    """

    def __init__(self) -> None:
        self.root = Context(self, next(_tids), "main", None)
        self._current = self.root
        self.races: List[RaceReport] = []
        self.accesses = 0
        self.events_tracked = 0
        self._seen: Set[tuple] = set()

    # -- context management (hooks from Process, TaskLoop, Disk) ------------

    def context_of(self, owner: Any, name: Optional[str] = None) -> Context:
        """The owner's context, forked from the current one on first
        sight (covers objects created before the detector was enabled)."""
        ctx = getattr(owner, "_san_ctx", None)
        if ctx is None or ctx.det is not self:
            ctx = Context(self, next(_tids), name or _context_label(owner),
                          self._current)
            owner._san_ctx = ctx
        return ctx

    def on_spawn(self, owner: Any, name: Optional[str] = None) -> None:
        """A process/task was created in the current context."""
        self.context_of(owner, name)

    def enter(self, owner: Any) -> Context:
        """Switch the current context to ``owner``'s; returns the
        previous current for :meth:`leave`."""
        prev = self._current
        self._current = self.context_of(owner)
        return prev

    def leave(self, prev: Context) -> None:
        self._current = prev

    # -- happens-before edges (hooks from Event/Store) ---------------------

    def on_trigger(self, event: Any) -> None:
        """``succeed``/``fail`` in the current context: stamp the event
        with the sender's clock (joined over any accumulated child
        clocks), then tick the sender."""
        cur = self._current
        vc = dict(cur.clock)
        prior = getattr(event, "_vc", None)
        if prior:
            join_into(vc, prior)
        event._vc = vc
        cur.clock[cur.tid] += 1
        self.events_tracked += 1

    def on_wakeup(self, owner: Any, event: Any) -> None:
        """``owner`` (process/task) resumes because ``event`` was
        processed: join the trigger's clock."""
        ctx = self.context_of(owner)
        vc = getattr(event, "_vc", None)
        if vc:
            join_into(ctx.clock, vc)
        ctx.clock[ctx.tid] += 1

    def on_condition(self, condition: Any, child: Any) -> None:
        """AllOf/AnyOf observed a child trigger: accumulate the child's
        clock so the condition's waiter joins *every* contributor, not
        just the last."""
        vc = getattr(child, "_vc", None)
        if vc:
            condition._vc = joined(getattr(condition, "_vc", None), vc)

    def on_store_put(self, store: Any) -> None:
        """An item was buffered (no getter waiting): carry the
        producer's clock alongside it."""
        clocks = getattr(store, "_san_vcs", None)
        if clocks is None:
            clocks = store._san_vcs = deque()
        cur = self._current
        clocks.append(dict(cur.clock))
        cur.clock[cur.tid] += 1

    def on_store_get(self, store: Any) -> None:
        """A buffered item is consumed now: join its producer's clock
        into the consumer."""
        clocks = getattr(store, "_san_vcs", None)
        if clocks:
            cur = self._current
            join_into(cur.clock, clocks.popleft())
            cur.clock[cur.tid] += 1

    def on_store_drain(self, store: Any) -> None:
        """Every buffered item is consumed by the drainer at once."""
        clocks = getattr(store, "_san_vcs", None)
        if clocks:
            cur = self._current
            while clocks:
                join_into(cur.clock, clocks.popleft())
            cur.clock[cur.tid] += 1

    # -- access recording ---------------------------------------------------

    def record(self, var: SharedVar, engine: Any, write: bool, relaxed: bool,
               op: str, site: str) -> None:
        """Record one access in the current context and check it
        against every other access to ``var`` at this timestamp."""
        now = engine._now
        cur = self._current
        self.accesses += 1
        acc = Access(now, cur.tid, cur.clock[cur.tid], write, relaxed, op,
                     " > ".join(cur.path), site)
        if var._det is not self or var._time != now:
            # A new timestamp: accesses at earlier times are ordered by
            # the event queue's strict time order, so only same-time
            # peers can race.  Drop the old window.
            var._det = self
            var._time = now
            var._accesses = [acc]
            return
        for prev in var._accesses:
            if prev.tid == cur.tid:
                continue  # program order within one context
            if not (write or prev.write):
                continue  # read/read never conflicts
            if relaxed or prev.relaxed:
                continue  # by-design tolerant observation
            if happened_before(prev.tid, prev.epoch, cur.clock):
                continue  # synchronized via an HB edge
            self._report(var, prev, acc)
        var._accesses.append(acc)

    def _report(self, var: SharedVar, first: Access, second: Access) -> None:
        key = (var.name, var.serial,
               first.site, first.op, first.write,
               second.site, second.op, second.write)
        if key in self._seen:
            return
        self._seen.add(key)
        self.races.append(
            RaceReport(f"{var.name}#{var.serial}", second.time, first, second))

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "races": len(self.races),
            "accesses": self.accesses,
            "events_tracked": self.events_tracked,
        }

    def format_report(self) -> str:
        if not self.races:
            return (f"sanitizer: no races "
                    f"({self.accesses} shared accesses checked, "
                    f"{self.events_tracked} events tracked)")
        parts = [race.format() for race in self.races]
        parts.append(f"{len(self.races)} race(s) found "
                     f"({self.accesses} shared accesses checked)")
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RaceDetector races={len(self.races)} "
                f"accesses={self.accesses}>")


# -- lifecycle --------------------------------------------------------------

def enable(detector: Optional[RaceDetector] = None) -> RaceDetector:
    """Enable race detection (replacing any active detector)."""
    det = detector if detector is not None else RaceDetector()
    runtime.active = det
    return det


def disable() -> Optional[RaceDetector]:
    """Disable race detection; returns the detector that was active."""
    det = runtime.active
    runtime.active = None
    return det


@contextmanager
def sanitized() -> Iterator[RaceDetector]:
    """Run a block under a fresh detector, restoring the previous one
    (if any) on exit — safe to nest."""
    prev = runtime.active
    det = RaceDetector()
    runtime.active = det
    try:
        yield det
    finally:
        runtime.active = prev
