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
* a process that sleeps in its own frame ticks its clock as a
  ``Timeout`` trigger and wake-up would, with no event to carry it;
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

**Instant-scoped clocks.**  Because only same-instant pairs are ever
compared, clocks carry only same-instant knowledge.  A context's clock
is tagged with the instant it was last used at; on first use at a
different instant it drops every entry but its own component (which
never goes backwards).  Every clock sent along an edge — an event's
``_vc``, an ``AllOf``/``AnyOf`` accumulator, a buffered ``Store``
item's clock — is stamped with the instant it was taken at, and a
join at instant ``now`` applies it only if it was stamped at ``now``;
a forked child starts scoped to its spawner's instant.  This is exact,
not an approximation: every send ticks the sender, so an access's
``(tid, epoch)`` reaches another context only through edges made at
or after the access's instant, and a chain ordering two accesses at
instant ``T`` therefore runs only through edges made at ``T`` — all
of which are kept.  Entries from earlier instants can only ever
confirm orderings the kept ones already decide (a scoped clock never
exceeds the unscoped one), so races and counters are those of clocks
that keep everything, at a few entries per clock instead of one per
context the run ever spawned.

An instant is a simulated time.  The root context is shared by every
engine a detector watches, so it is rescoped whenever it moves to an
engine at another time.  That stays exact because ``engine.run()``
finishes every instant it reaches.  The one way to lose an edge is to
leave an engine mid-instant (driver code between runs, or a pause
between ``step()`` calls) after the root context took a buffered
``Store`` item there, use the root in another engine at another time,
and then come back and send from the root at the first instant.

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
    Clock,
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
    """One concurrency context (root scheduler, process, or task).

    ``at`` is the instant ``clock`` is scoped to.  A fork is a send, so
    a child starts scoped to its spawner's instant: if the spawner has
    not been used at the spawn instant yet, it has nothing there to
    pass on.
    """

    __slots__ = ("det", "tid", "name", "path", "clock", "at")

    def __init__(self, det: "RaceDetector", tid: int, name: str,
                 parent: Optional["Context"]) -> None:
        self.det = det
        self.tid = tid
        self.name = name
        self.path: Tuple[str, ...] = (
            parent.path + (name,) if parent is not None else (name,))
        self.clock = fork_clock(parent.clock if parent is not None else None,
                                tid)
        self.at = parent.at if parent is not None else None
        if parent is not None:
            parent.clock[parent.tid] += 1

    def clock_at(self, now: float) -> Clock:
        """The clock scoped to instant ``now``: first use at a new
        instant drops every entry but the context's own component."""
        if self.at != now:
            self.clock = {self.tid: self.clock[self.tid]}
            self.at = now
        return self.clock

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
        with the sender's clock (joined over any child clocks
        accumulated at this instant), then tick the sender."""
        cur = self._current
        now = event.engine._now
        # clock_at's fast path inlined: this runs on every event trigger.
        clock = cur.clock if cur.at == now else cur.clock_at(now)
        vc = clock.copy()
        prior = getattr(event, "_vc", None)
        if prior is not None and prior[0] == now:
            join_into(vc, prior[1])
        event._vc = (now, vc)
        clock[cur.tid] += 1
        self.events_tracked += 1

    def on_wakeup(self, owner: Any, event: Any) -> None:
        """``owner`` (process/task) resumes because ``event`` was
        processed: join the trigger's clock if it was sent at this
        instant."""
        ctx = self.context_of(owner)
        now = event.engine._now
        clock = ctx.clock if ctx.at == now else ctx.clock_at(now)
        vc = getattr(event, "_vc", None)
        if vc is not None and vc[0] == now:
            join_into(clock, vc[1])
        clock[ctx.tid] += 1

    def on_sleep(self, owner: Any, wake: float) -> None:
        """``owner`` sleeps in its own frame from now until ``wake``:
        the ticks of a Timeout's trigger in ``owner`` now and of its
        wake-up at ``wake``, with no Timeout.  The wake-up's join is
        left out: it would join ``owner``'s own earlier clock."""
        ctx = self.context_of(owner)
        ctx.clock_at(owner.engine._now)[ctx.tid] += 1
        self.events_tracked += 1
        ctx.clock_at(wake)[ctx.tid] += 1

    def on_condition(self, condition: Any, child: Any) -> None:
        """AllOf/AnyOf observed a child trigger: accumulate the child's
        clock so the condition's waiter joins *every* contributor at
        this instant, not just the last."""
        vc = getattr(child, "_vc", None)
        if vc is not None:
            now = condition.engine._now
            if vc[0] == now:
                acc = getattr(condition, "_vc", None)
                condition._vc = (now, joined(
                    acc[1] if acc is not None and acc[0] == now else None,
                    vc[1]))

    def on_store_put(self, store: Any) -> None:
        """An item was buffered (no getter waiting): carry the
        producer's clock alongside it."""
        clocks = getattr(store, "_san_vcs", None)
        if clocks is None:
            clocks = store._san_vcs = deque()
        cur = self._current
        now = store.engine._now
        clock = cur.clock_at(now)
        clocks.append((now, clock.copy()))
        clock[cur.tid] += 1

    def on_store_get(self, store: Any) -> None:
        """A buffered item is consumed now: join its producer's clock
        into the consumer if it was buffered at this instant."""
        clocks = getattr(store, "_san_vcs", None)
        if clocks:
            cur = self._current
            now = store.engine._now
            clock = cur.clock_at(now)
            at, vc = clocks.popleft()
            if at == now:
                join_into(clock, vc)
            clock[cur.tid] += 1

    def on_store_drain(self, store: Any) -> None:
        """Every buffered item is consumed by the drainer at once."""
        clocks = getattr(store, "_san_vcs", None)
        if clocks:
            cur = self._current
            now = store.engine._now
            clock = cur.clock_at(now)
            while clocks:
                at, vc = clocks.popleft()
                if at == now:
                    join_into(clock, vc)
            clock[cur.tid] += 1

    # -- access recording ---------------------------------------------------

    def record(self, var: SharedVar, engine: Any, write: bool, relaxed: bool,
               op: str, site: str) -> None:
        """Record one access in the current context and check it
        against every other access to ``var`` at this timestamp."""
        now = engine._now
        cur = self._current
        self.accesses += 1
        clock = cur.clock_at(now)
        acc = Access(now, cur.tid, clock[cur.tid], write, relaxed, op,
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
            if happened_before(prev.tid, prev.epoch, clock):
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
