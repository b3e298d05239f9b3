"""Processes: generator coroutines driven by the event engine.

A process wraps a Python generator.  Each value the generator yields
is either an :class:`~repro.sim.event.Event` or a float delay in
simulated seconds:

* ``yield event`` suspends until that event is processed, then resumes
  with the event's value (or with the event's exception thrown into
  the generator);
* ``yield delay`` sleeps that long and resumes with ``None`` — the one
  way a process sleeps.  When nothing queued can fire first, the clock
  advances inside the process's own frame, with no event at all; a
  negative delay raises :class:`~repro.errors.SimulationError` at the
  yield.

The process itself is an event that triggers when the generator returns
(value = the ``StopIteration`` value) or raises.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sanitizer import runtime as _sanitizer
from repro.sim.event import Event, PENDING, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["Process"]


class Process(Event):
    """A running simulation process.

    Created via :meth:`Engine.process`; do not instantiate directly
    except in tests.
    """

    # ``_san_ctx`` holds the sanitizer's per-process vector-clock
    # context; the slot stays unset unless a detector is active.
    __slots__ = ("generator", "name", "daemon", "_san_ctx")

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
        # Daemon processes (e.g. a disk's server loop) may block forever
        # without tripping deadlock detection when the queue drains.
        self.daemon = daemon
        if not daemon:
            engine._live_processes += 1
        if _sanitizer.active is not None:
            _sanitizer.active.on_spawn(self, self.name)
        # Kick off at the current time.
        engine._schedule_call(self._resume_first)

    # -- driving ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def _resume_first(self) -> None:
        self._resume(None)

    def _retire(self) -> None:
        """Bookkeeping when the generator finishes for any reason."""
        if not self.daemon:
            self.engine._live_processes -= 1

    def _resume(self, event: Optional[Event]) -> None:
        """Run the generator to its next wait: once with ``None`` at
        the start, then as the callback of each event it waits on,
        sending the event's value in (or throwing its exception).

        One frame per wake-up: the event's ``_ok``/``_value`` slots are
        read directly, not through the properties.  A yielded delay
        whose wake time nothing pending can pre-empt (the queue is empty
        or its top is strictly later, and the engine's horizon reaches
        it: the running ``run()``'s bound, or ``-inf`` while the event
        that woke this process has callbacks left to run) is slept
        here: the clock moves and the generator resumes in this frame.  Otherwise the delay becomes a :class:`Timeout`, the
        same entry ``engine.timeout(delay)`` would have queued.  Strictly
        later because that Timeout would take the largest sequence
        number: anything already due at the wake time fires first.
        """
        det = _sanitizer.active
        if det is not None and event is not None:
            det.on_wakeup(self, event)
        if self._value is not PENDING:  # pragma: no cover - defensive
            return
        prev = det.enter(self) if det is not None else None
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
                        if wake <= engine._horizon and (
                                not queue or queue[0][0] > wake):
                            if det is not None:
                                det.on_sleep(self, wake)
                            engine._now = wake
                            target = generator.send(None)
                        else:
                            target = Timeout(engine, target)
                            break
            except StopIteration as stop:
                self._retire()
                self.succeed(stop.value)
                return
            except BaseException as error:
                self._retire()
                self.fail(error)
                return

            if not isinstance(target, Event):
                self._retire()
                bad = SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances"
                )
                self.fail(bad)
                return
            if target.engine is not engine:
                self._retire()
                self.fail(SimulationError("yielded an event from a different engine"))
                return
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
            else:  # already processed: add_callback defers via the queue
                target.add_callback(self._resume)
        finally:
            if det is not None:
                det.leave(prev)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name} {state}>"
