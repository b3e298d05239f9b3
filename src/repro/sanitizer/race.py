"""The happens-before race detector.

Every unit of concurrency on the engine — the root scheduling context,
each :class:`~repro.sim.process.Process`, each
:class:`~repro.sim.taskloop.Task` — gets a :class:`Context`: an integer
epoch and a log of the happens-before edges it received at one instant.
The instrumented kernel primitives (the hooks the sim modules call when
:data:`repro.sanitizer.runtime.active` is set) each append one edge or
stamp one ``(context, epoch)`` node; none copies or joins a clock:

* process/task spawn gives the child an edge to the spawner's node;
* ``Event.succeed``/``fail`` stamps the event with the triggering
  context's node, and a waiter logs an edge to it on resumption (this
  one edge covers ``Resource`` grant hand-off, ``Channel`` transfers,
  socket send/receive wake-ups, process join, and task completion);
* a process that sleeps (in its own frame or on a bare heap entry)
  ticks its epoch as a ``Timeout`` trigger and wake-up would, with no
  event to carry it;
* ``Store`` keeps a stamp per *buffered* item, so a ``put`` consumed
  later still orders the producer before the consumer;
* ``AllOf``/``AnyOf`` accumulate every child's stamp, not just the
  last one's.

Every send and receive ticks the epoch, and an edge counts from the
epoch it was received at, so node ``(c, x)`` knows exactly what ``c``
had done and received up to epoch ``x``.  Data accesses are declared
with :func:`shared`: hot shared structures (BufferCache page maps, the
balancer's admitted and in-sync sets, listener lifecycle state) call
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

**Lazy happens-before.**  Only such a pair asks whether its first
access ``(p, e)`` is ordered before the current context: the answer
walks the logs backwards from the current node, memoized per
``(context, epoch)``, and is yes iff it reaches some ``(p, x)`` with
``x >= e``.  A log holds one instant's edges (the first edge at another
instant starts a new one), and a stamp made at another instant is not
logged.  That is exact — the verdicts of vector clocks that keep
everything — because a chain ordering two accesses at instant ``T``
runs only through edges made at ``T``.  The one way to lose an edge is
to leave an engine mid-instant after the root context (shared by every
engine) took a buffered ``Store`` item there, let the root receive in
another engine at another time, and come back.  ``docs/static-analysis.md``
gives the argument in full.

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
from types import CodeType
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.sanitizer import runtime

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

_serials = itertools.count(1)

#: A stamp is ``(instant, context, epoch)`` for one node, or
#: ``(instant, None, [stamp, ...])`` for several.  Stamps are never
#: mutated once made: an accumulation builds a new one.
Stamp = Tuple[Any, ...]


def _context_label(owner: Any) -> str:
    name = getattr(owner, "name", None) or getattr(owner, "label", None)
    kind = type(owner).__name__.lower()
    return f"{kind}:{name}" if name else kind


class Context:
    """One concurrency context (root scheduler, process, or task).

    ``epoch`` ticks at every send and receive.  ``edges`` holds
    ``(tag, stamp)`` pairs in rising tag order, all received at instant
    ``at``: an edge takes effect from epoch ``tag`` on.  A spawned
    context starts with one edge, to its spawner's node, at the spawn
    instant ``now``.  ``memo`` is the last reachability answer:
    ``(instant, epoch, {context: latest epoch reached})``.
    """

    __slots__ = ("det", "name", "path", "epoch", "at", "edges", "memo")

    def __init__(self, det: "RaceDetector", name: str,
                 parent: Optional["Context"],
                 now: Optional[float] = None) -> None:
        self.det = det
        self.name = name
        self.epoch = 1
        self.memo: Optional[tuple] = None
        if parent is None:
            self.path: Tuple[str, ...] = (name,)
            self.at: Optional[float] = None
            self.edges: Optional[List[Tuple[int, Stamp]]] = None
        else:
            self.path = parent.path + (name,)
            self.at = now
            self.edges = [(1, (now, parent, parent.epoch))]
            parent.epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Context {' > '.join(self.path)} epoch={self.epoch}>"


class Access:
    """One recorded access to a :class:`SharedVar`.

    Keeps the accessing code object and line; ``site`` and ``path``
    are built only when a race is reported.
    """

    __slots__ = ("time", "ctx", "epoch", "write", "relaxed", "op", "code",
                 "line")

    def __init__(self, time: float, ctx: Context, epoch: int, write: bool,
                 relaxed: bool, op: str, code: CodeType, line: int) -> None:
        self.time = time
        self.ctx = ctx
        self.epoch = epoch
        self.write = write
        self.relaxed = relaxed
        self.op = op
        self.code = code
        self.line = line

    @property
    def site(self) -> str:
        return f"{basename(self.code.co_filename)}:{self.line}"

    @property
    def path(self) -> str:
        return " > ".join(self.ctx.path)

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

    __slots__ = ("name", "serial", "_det", "_time", "_accesses", "_writes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.serial = next(_serials)
        self._det: Optional["RaceDetector"] = None
        self._time = -1.0
        # This instant's accesses, and its writes alone.
        self._accesses: List[Access] = []
        self._writes: List[Access] = []

    def read(self, engine: Any, op: str = "read",
             relaxed: bool = False) -> None:
        det = runtime.active
        if det is not None:
            frame = _getframe(1)
            det.record(self, engine, False, relaxed, op, frame.f_code,
                       frame.f_lineno)

    def write(self, engine: Any, op: str = "write",
              relaxed: bool = False) -> None:
        det = runtime.active
        if det is not None:
            frame = _getframe(1)
            det.record(self, engine, True, relaxed, op, frame.f_code,
                       frame.f_lineno)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedVar {self.name}#{self.serial}>"


def shared(name: str) -> SharedVar:
    """Declare a shared mutable structure for race checking."""
    return SharedVar(name)


def _receive(ctx: Context, stamp: Optional[Stamp], now: float) -> None:
    """``ctx`` receives ``stamp`` at ``now``: one edge if the stamp was
    made at this instant, then a tick."""
    epoch = ctx.epoch + 1
    if stamp is not None and stamp[0] == now:
        if ctx.at == now:
            ctx.edges.append((epoch, stamp))
        else:
            ctx.at = now
            ctx.edges = [(epoch, stamp)]
    ctx.epoch = epoch


class RaceDetector:
    """Happens-before race detector over annotated shared accesses.

    Attributes
    ----------
    races:
        :class:`RaceReport` list in detection order (deterministic:
        the engine's event order is).
    accesses, events_tracked:
        Work counters for the summary line.
    """

    def __init__(self) -> None:
        self.root = Context(self, "main", None)
        self._current = self.root
        self.races: List[RaceReport] = []
        self.accesses = 0
        self.events_tracked = 0
        #: Conditions holding an accumulated stamp, not yet triggered.
        self._accumulating = 0
        self._seen: Set[tuple] = set()

    # -- context management (hooks from Process, TaskLoop, Disk) ------------

    def context_of(self, owner: Any, name: Optional[str] = None,
                   now: Optional[float] = None) -> Context:
        """The owner's context, spawned from the current one at ``now``
        (default: the owner's engine's clock) on first sight; this
        covers objects created before the detector was enabled."""
        ctx = getattr(owner, "_san_ctx", None)
        if ctx is None or ctx.det is not self:
            if now is None:
                now = getattr(getattr(owner, "engine", None), "_now", None)
            ctx = Context(self, name or _context_label(owner), self._current,
                          now)
            owner._san_ctx = ctx
        return ctx

    def on_spawn(self, owner: Any, name: Optional[str] = None,
                 now: Optional[float] = None) -> None:
        """A process/task was created at ``now`` in the current
        context."""
        self.context_of(owner, name, now)

    def enter(self, owner: Any) -> Context:
        """Switch the current context to ``owner``'s; returns the
        previous current for :meth:`leave`."""
        prev = self._current
        self._current = self.context_of(owner)
        return prev

    def leave(self, prev: Context) -> None:
        self._current = prev

    def resume(self, owner: Any, event: Any) -> Context:
        """``owner`` runs, woken by ``event`` (``None`` for a start):
        :meth:`on_wakeup` and :meth:`enter` in one call.  Returns the
        previous current context, which the caller restores."""
        prev = self._current
        now = None if event is None else event.engine._now
        ctx = getattr(owner, "_san_ctx", None)
        if ctx is None or ctx.det is not self:
            ctx = self.context_of(owner, now=now)
        if event is not None:
            # _receive, inlined: this runs on every process wake-up.
            epoch = ctx.epoch + 1
            stamp = getattr(event, "_vc", None)
            if stamp is not None and stamp[0] == now:
                if ctx.at == now:
                    ctx.edges.append((epoch, stamp))
                else:
                    ctx.at = now
                    ctx.edges = [(epoch, stamp)]
            ctx.epoch = epoch
        self._current = ctx
        return prev

    # -- happens-before edges (hooks from Event/Store) ---------------------

    def on_trigger(self, event: Any) -> None:
        """``succeed``/``fail`` in the current context: stamp the event
        with the sender's node (with any child stamps accumulated at
        this instant), then tick the sender."""
        cur = self._current
        now = event.engine._now
        epoch = cur.epoch
        # Only a condition holding an accumulation has a stamp before
        # its trigger; while none does, skip the attribute probe.
        prior = getattr(event, "_vc", None) if self._accumulating else None
        if prior is None:
            event._vc = (now, cur, epoch)
        else:
            self._accumulating -= 1
            event._vc = ((now, None, [prior, (now, cur, epoch)])
                         if prior[0] == now else (now, cur, epoch))
        cur.epoch = epoch + 1
        self.events_tracked += 1

    def on_wakeup(self, owner: Any, event: Any) -> None:
        """``owner`` (process/task) resumes because ``event`` was
        processed: an edge to the trigger's stamp if it was made at
        this instant."""
        now = event.engine._now
        _receive(self.context_of(owner, now=now), getattr(event, "_vc", None),
                 now)

    def on_sleep(self, owner: Any, wake: float) -> None:
        """``owner`` sleeps from now until ``wake``, in its own frame
        or on a bare heap entry that resumes it with no event: the
        ticks of a Timeout's trigger in ``owner`` now and of its
        wake-up at ``wake``, with no Timeout.  Both ticks land now; no
        one sees ``owner``'s epoch before it resumes.  The wake-up's
        edge is left out: it would point to ``owner``'s own earlier
        node (which orders nothing), and for a nonzero delay its stamp
        is from an earlier instant."""
        owner._san_ctx.epoch += 2  # resume() made it this detector's
        self.events_tracked += 1

    def on_condition(self, condition: Any, child: Any) -> None:
        """AllOf/AnyOf observed a child trigger: accumulate the child's
        stamp so the condition's waiter is ordered after *every*
        contributor at this instant, not just the last."""
        stamp = getattr(child, "_vc", None)
        if stamp is not None:
            now = condition.engine._now
            if stamp[0] == now:
                acc = getattr(condition, "_vc", None)
                if acc is None:
                    if not condition.triggered:
                        self._accumulating += 1
                    condition._vc = stamp
                else:
                    condition._vc = ((now, None, [acc, stamp])
                                     if acc[0] == now else stamp)

    def on_store_put(self, store: Any) -> None:
        """An item was buffered (no getter waiting): keep the
        producer's stamp alongside it."""
        stamps = getattr(store, "_san_stamps", None)
        if stamps is None:
            stamps = store._san_stamps = deque()
        cur = self._current
        stamps.append((store.engine._now, cur, cur.epoch))
        cur.epoch += 1

    def on_store_get(self, store: Any) -> None:
        """A buffered item is consumed now: the consumer receives its
        producer's stamp."""
        stamps = getattr(store, "_san_stamps", None)
        if stamps:
            _receive(self._current, stamps.popleft(), store.engine._now)

    def on_store_drain(self, store: Any) -> None:
        """Every buffered item is consumed by the drainer at once."""
        stamps = getattr(store, "_san_stamps", None)
        if stamps:
            now = store.engine._now
            fresh = [s for s in stamps if s[0] == now]
            stamps.clear()
            _receive(self._current,
                     (now, None, fresh) if fresh else None, now)

    # -- access recording ---------------------------------------------------

    def record(self, var: SharedVar, engine: Any, write: bool, relaxed: bool,
               op: str, code: CodeType, line: int) -> None:
        """Record one access in the current context and check it
        against every other access to ``var`` at this timestamp."""
        now = engine._now
        cur = self._current
        self.accesses += 1
        acc = Access(now, cur, cur.epoch, write, relaxed, op, code, line)
        if var._det is not self or var._time != now:
            # A new timestamp: accesses at earlier times are ordered by
            # the event queue's strict time order, so only same-time
            # peers can race.  Drop the old window.
            var._det = self
            var._time = now
            var._accesses = [acc]
            var._writes = [acc] if write else []
            return
        # Read/read never conflicts, so a read is checked against this
        # instant's writes only; a relaxed access (a by-design tolerant
        # observation) against nothing.
        peers = None if relaxed else var._accesses if write else var._writes
        if peers:
            for prev in peers:
                if prev.ctx is cur or prev.relaxed:
                    continue  # program order, or tolerant by design
                if self._reach(cur, now).get(prev.ctx, 0) >= prev.epoch:
                    continue  # synchronized via an HB edge
                self._report(var, prev, acc)
        var._accesses.append(acc)
        if write:
            var._writes.append(acc)

    def _reach(self, ctx: Context, now: float) -> Dict[Context, int]:
        """The latest epoch of each context that node ``(ctx, epoch)``
        reaches through this instant's edges, walked backwards and
        memoized per ``(context, epoch)``."""
        memo = ctx.memo
        if memo is not None and memo[0] == now and memo[1] == ctx.epoch:
            return memo[2]
        reach: Dict[Context, int] = {}
        todo: List[Stamp] = [(now, ctx, ctx.epoch)]
        while todo:
            _, node, epoch = todo.pop()
            if node is None:
                todo.extend(epoch)
                continue
            done = reach.get(node, 0)
            if done >= epoch:
                continue
            reach[node] = epoch
            if node.at == now:
                # Edges with tags up to ``done`` were walked already.
                for tag, stamp in node.edges:
                    if tag > epoch:
                        break
                    if tag > done:
                        todo.append(stamp)
        ctx.memo = (now, ctx.epoch, reach)
        return reach

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
