"""Events: the unit of synchronization in the simulation kernel.

An :class:`Event` starts *pending*, is *triggered* exactly once with
either a value (``succeed``) or an exception (``fail``), and then has
its callbacks run by the engine.  Processes wait on events by yielding
them.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sanitizer import runtime as _sanitizer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["PENDING", "Event", "Timeout", "AllOf", "AnyOf"]


class _Pending:
    """Sentinel for 'not yet triggered'."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot synchronization point.

    Attributes
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.
    callbacks:
        Callables invoked (in order) when the event is processed.
        ``None`` once the event has been processed.
    """

    # ``_vc`` is the sanitizer's happens-before edge: the triggering
    # context's vector clock, stamped at ``succeed``/``fail`` time and
    # joined into each waiter when it resumes.  The slot stays unset
    # (not even None) unless a detector is active.
    __slots__ = ("engine", "callbacks", "_value", "_ok", "_vc")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (meaningless before trigger)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully and schedule its callbacks now.

        Pushes onto the engine's heap directly (a zero-delay schedule
        needs neither the negative-delay check nor the time addition):
        event triggering is on the simulator's hot path.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if _sanitizer.active is not None:
            _sanitizer.active.on_trigger(self)
        engine = self.engine
        engine._seq += 1
        heappush(engine._queue, (engine._now, engine._seq, 1, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        if _sanitizer.active is not None:
            _sanitizer.active.on_trigger(self)
        engine = self.engine
        engine._seq += 1
        heappush(engine._queue, (engine._now, engine._seq, 1, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs immediately via the queue if
        the event was already processed."""
        if self.callbacks is None:
            # Already processed: schedule a zero-delay wake-up preserving
            # FIFO ordering rather than calling synchronously.
            self.engine._schedule_call(lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        if self.processed:
            state += ",processed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    The constructor initializes fields and pushes onto the engine's
    heap inline (no ``super().__init__`` indirection): every disk
    service and every process sleep that something queued can pre-empt
    builds one.  A zero delay — the common "reschedule me" idiom —
    skips the time addition, reusing the engine's current clock value
    directly.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.engine = engine
        self.callbacks = []
        self._ok = True
        self._value = value
        self.delay = delay
        if _sanitizer.active is not None:
            # The creator's clock is the timeout's trigger clock: a
            # Timeout never calls succeed(), its value is set here.
            _sanitizer.active.on_trigger(self)
        engine._seq += 1
        heappush(
            engine._queue,
            (engine._now + delay if delay else engine._now, engine._seq, 1, self),
        )


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: List[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            # add_callback defers via the queue if the event was already
            # processed; a merely *triggered* event (e.g. a Timeout, whose
            # value is set at creation) still delivers at its fire time.
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict:
        return {ev: ev.value for ev in self.events if ev.triggered and ev.ok}


class AllOf(_Condition):
    """Succeeds when *all* child events have succeeded.

    Fails as soon as any child fails, propagating that exception.
    The success value is ``{event: value}`` for all children.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if _sanitizer.active is not None:
            # Callbacks run in the engine's drain loop (root context),
            # so child clocks must be accumulated explicitly for the
            # condition's eventual trigger to order after every child.
            _sanitizer.active.on_condition(self, event)
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds as soon as *any* child event succeeds.

    The success value is ``{event: value}`` for the children that have
    triggered successfully at that moment.  Fails if a child fails
    before any succeeds.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if _sanitizer.active is not None:
            _sanitizer.active.on_condition(self, event)
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(self._collect())
