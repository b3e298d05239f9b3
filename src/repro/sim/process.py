"""Processes: generator coroutines driven by the event engine.

A process wraps a Python generator.  Each value the generator yields
is either an :class:`~repro.sim.event.Event` or a float delay in
simulated seconds:

* ``yield event`` suspends until that event is processed, then resumes
  with the event's value (or with the event's exception thrown into
  the generator);
* ``yield delay`` sleeps that long and resumes with ``None`` — the one
  way a process sleeps.  When nothing queued can fire first, the clock
  advances inside the process's own frame, with no event at all;
  otherwise the sleep is one bare heap entry for the process, at the
  ``(time, seq)`` a ``Timeout`` would have taken.  A negative delay
  raises :class:`~repro.errors.SimulationError` at the yield.

A process starts the same way: a bare entry at ``(now, seq + 1)``
resumes its generator with ``None``.

The process itself is an event that triggers when the generator returns
(value = the ``StopIteration`` value) or raises.  A process nobody waits
on when it finishes queues nothing: it takes the position ``(time,
seq)`` its entry would have had, and a waiter that arrives before the
engine reaches that position queues the entry then (see
:meth:`Process.add_callback`).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sanitizer import runtime as _sanitizer
from repro.sim.event import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["Process"]


class Process(Event):
    """A running simulation process.

    Created via :meth:`Engine.process`; do not instantiate directly
    except in tests.
    """

    # ``_san_ctx`` holds the sanitizer's per-process context (epoch and
    # edge log); the slot stays unset unless a detector is active.
    # ``_finish`` is the ``(time, seq)`` position of a finish that
    # queued no entry (nobody waited), until a waiter arrives.
    __slots__ = ("generator", "name", "daemon", "_san_ctx", "_finish")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Engine.process() needs a generator, got {type(generator).__name__}"
            )
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Daemon processes (e.g. a web server's listen loop) may block forever
        # without tripping deadlock detection when the queue drains.
        self.daemon = daemon
        self._finish = None
        if not daemon:
            engine._live_processes += 1
        if _sanitizer.active is not None:
            _sanitizer.active.on_spawn(self, self.name, engine._now)
        # Kick off at the current time: a bare entry (kind 4) that
        # resumes the generator with None.
        engine._seq += 1
        heappush(engine._queue, (engine._now, engine._seq, 4, self))

    # -- driving ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run the callbacks, or, for a finish
        that queued no entry, once it has reached the finish's
        position."""
        if self.callbacks is not None:
            return False
        finish = self._finish
        if finish is None:
            return True
        engine = self.engine
        return finish[0] < engine._now or finish[1] <= engine._cur_seq

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        """Register ``callback(process)``, as :meth:`Event.add_callback`
        does.  A finish that queued no entry and whose position the
        engine has not reached yet queues its entry now, at that
        position: the waiter wakes exactly where it would have, had the
        finish queued it."""
        finish = self._finish
        if finish is not None:
            self._finish = None
            engine = self.engine
            if finish[0] == engine._now and finish[1] > engine._cur_seq:
                self.callbacks = [callback]
                heappush(engine._queue, (finish[0], finish[1], 1, self))
                return
        Event.add_callback(self, callback)

    def _retire(self, ok: bool, value: Any) -> None:
        """The generator finished (``ok``) with ``value`` or failed with
        the exception ``value``: trigger the process.  With callbacks
        registered, that queues the usual entry.  With none, the
        trigger takes its seq and records its position but queues
        nothing (and, like the entry would have, raises nothing for a
        failure)."""
        engine = self.engine
        if not self.daemon:
            engine._live_processes -= 1
        if self.callbacks:
            if ok:
                self.succeed(value)
            else:
                self.fail(value)
            return
        self._ok = ok
        self._value = value
        if _sanitizer.active is not None:
            _sanitizer.active.on_trigger(self)
        engine._seq += 1
        self._finish = (engine._now, engine._seq)
        self.callbacks = None

    def _resume(self, event: Optional[Event]) -> None:
        """Run the generator to its next wait: with ``None`` from a
        bare heap entry (its start, or the end of a queued sleep), or as
        the callback of an event it waits on, sending the event's value
        in (or throwing its exception).

        One frame per wake-up: the event's ``_ok``/``_value`` slots are
        read directly, not through the properties.  A yielded delay
        whose wake time nothing pending can pre-empt (the queue is empty
        or its top is strictly later, and the engine's horizon reaches
        it: the running ``run()``'s bound, or ``-inf`` while the event
        that woke this process has callbacks left to run) is slept
        here: the clock moves and the generator resumes in this frame.
        Otherwise the sleep pushes a bare entry for this process at the
        wake time, with the next seq: the position
        ``engine.timeout(delay)`` would have taken, without the event.
        Strictly later because that entry takes the largest sequence
        number: anything already due at the wake time fires first.
        Either way the detector sees the sleep through ``on_sleep``.

        A zero delay is exact in both cases: it wakes at ``(now, seq +
        1)``, the position of an event triggered now (an idle
        :class:`~repro.sim.resources.Channel` grants its link that way).
        When the generator finishes, :meth:`_retire` triggers the
        process; with no waiter registered, that queues nothing.
        """
        if self._value is not PENDING:  # pragma: no cover - defensive
            return
        det = _sanitizer.active
        prev = det.resume(self, event) if det is not None else None
        engine = self.engine
        queue = engine._queue
        generator = self.generator
        try:
            try:
                if event is None:
                    target = generator.send(None)
                elif event._ok:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._value)
                while target.__class__ is float:
                    if target < 0:
                        # Where engine.timeout(target) would raise.
                        target = generator.throw(SimulationError(
                            f"negative timeout delay: {target!r}"))
                    else:
                        wake = engine._now + target
                        if det is not None:
                            det.on_sleep(self, wake)
                        if wake <= engine._horizon and (
                                not queue or queue[0][0] > wake):
                            engine._now = wake
                            # Where the wake-up's entry would have run:
                            # after everything queued so far.
                            engine._cur_seq = engine._seq
                            target = generator.send(None)
                        else:
                            engine._seq += 1
                            heappush(queue, (wake, engine._seq, 4, self))
                            return
            except StopIteration as stop:
                self._retire(True, stop.value)
                return
            except BaseException as error:
                self._retire(False, error)
                return

            if not isinstance(target, Event):
                self._retire(False, SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances"
                ))
                return
            if target.engine is not engine:
                self._retire(False, SimulationError(
                    "yielded an event from a different engine"))
                return
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
            else:  # processed, or a finish that queued no entry
                target.add_callback(self._resume)
        finally:
            if det is not None:
                det._current = prev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name} {state}>"
