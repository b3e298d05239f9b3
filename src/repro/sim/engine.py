"""The event engine: virtual clock + ordered event queue.

The engine owns simulated time.  It never consults the wall clock;
``run()`` drains the queue until a stop condition.  Two-key ordering
``(time, seq)`` with a monotonic sequence counter makes same-time
events fire in the order they were scheduled, which keeps every
experiment deterministic.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.sim.event import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

__all__ = ["Engine"]


class Engine:
    """Deterministic discrete-event engine.

    Parameters
    ----------
    start:
        Initial value of the simulated clock (seconds).
    tracer:
        A :class:`repro.obs.Tracer` to receive spans from every
        component built on this engine (``engine.tracer`` is how the
        stack reaches it); default is the zero-cost
        :data:`~repro.obs.NULL_TRACER`.
    metrics:
        A :class:`repro.obs.MetricsRegistry`; components register
        their collectors here at construction.  A fresh registry is
        created when omitted.
    """

    def __init__(self, start: float = 0.0, tracer=None, metrics=None) -> None:
        self._now: float = float(start)
        self._seq: int = 0
        # Heap items: (time, seq, kind, payload).  ``kind`` is a payload
        # tag — 1 for an Event whose callbacks should run, 0 for a bare
        # callable, 2 for a *background* callable (see
        # :meth:`schedule_background`) — so the drain loop dispatches on
        # an int compare instead of isinstance.  seq is unique, so kind
        # never takes part in heap ordering.
        self._queue: List[Tuple[float, int, int, Any]] = []
        # Background entries currently queued; when every remaining
        # queue entry is background, they are discarded unrun so they
        # never extend a run past its last foreground event.
        self._background: int = 0
        self._live_processes: int = 0
        self._running = False
        # The latest time a process may sleep to in its own frame (see
        # Process._resume): the running run()'s bound, inf when it has
        # none; -inf outside run(), so step() never jumps the clock, and
        # while an event's callbacks other than its last run.
        self._horizon: float = -inf
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.attach(self)
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry()
        )

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event (trigger it with ``succeed``/``fail``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now.

        For a deadline in an :meth:`any_of` or a callback; a process
        sleeps by yielding the delay itself (see :mod:`repro.sim.process`).
        """
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> Process:
        """Start a new process driving ``generator``; returns the process
        (itself an event that triggers when the generator finishes).

        ``daemon=True`` marks server-loop processes (listen loops, task
        loops) that legitimately block forever: they are excluded from
        deadlock detection when the event queue drains.

        When a tracer is attached, each finishing process leaves a
        ``"sim"``-category span covering its lifetime.
        """
        proc = Process(self, generator, name=name, daemon=daemon)
        tracer = self.tracer
        if tracer.enabled:
            started = self._now
            label = proc.name
            proc.add_callback(
                lambda ev: tracer.complete(
                    f"process:{label}", "sim", started, daemon=daemon
                )
            )
        return proc

    def all_of(self, events: List[Event]) -> AllOf:
        """Event that succeeds when every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event that succeeds when the first event in ``events`` does."""
        return AnyOf(self, events)

    # -- scheduling internals ----------------------------------------------

    def _schedule_call(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, 0, fn))

    def schedule_background(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        """Schedule ``fn`` as a *background* call ``delay`` seconds from now.

        Background calls run at their timestamp like any queued call,
        with one difference: when every entry left in the queue is
        background, the remaining background entries are discarded
        without running and **without advancing the clock**.  That is
        the contract telemetry sampling needs — a periodic scraper that
        reschedules itself forever must neither keep the run alive nor
        stretch ``engine.now`` past the workload's final event.

        Background callables must not schedule foreground work (events
        or plain calls); doing so would resurrect a run the workload
        considers finished.  Scheduling further background calls —
        the self-rescheduling sampler pattern — is the intended use.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        self._background += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, 2, fn))

    # -- main loop ----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one queued entry, advancing the clock to it.

        Outside :meth:`run` every process sleep takes a queue entry, so
        one step never moves the clock past the entry it processes.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, kind, payload = heapq.heappop(self._queue)
        if when < self._now:  # pragma: no cover - heap invariant
            raise SimulationError("time went backwards")
        self._now = when
        if kind == 1:
            callbacks = payload.callbacks
            payload.callbacks = None  # mark processed
            if callbacks:
                for cb in callbacks:
                    cb(payload)
            # A failed event nobody waited on is a programming error we
            # surface rather than swallow (mirrors SimPy semantics).
            elif not payload._ok and not isinstance(payload, Process):
                raise payload.value
        else:
            # step() is explicit single-stepping: background calls run
            # unconditionally here (the only-background discard rule
            # lives in the run() drain loops).
            if kind == 2:
                self._background -= 1
            payload()

    def _run_callbacks(self, event: Event, callbacks: list) -> None:
        """Run an event's several callbacks.  Those after the first are
        due now but wait in this list, not in the queue, so a process
        resumed before the last one must not sleep in its own frame:
        it could pass them by."""
        horizon = self._horizon
        self._horizon = -inf
        for cb in callbacks[:-1]:
            cb(event)
        self._horizon = horizon
        callbacks[-1](event)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if the queue empties while processes are still alive (every
        process is blocked on an event nothing will trigger), and
        :class:`SimulationError` if ``until`` is before the clock (the
        clock never runs backwards; ``until == now`` is a no-op bound).

        A process's sleep that nothing queued can pre-empt, and that
        ends by ``until``, advances the clock inside the process's own
        frame (see :meth:`Process._resume`): it never reaches the queue.

        The drain loop is inlined (rather than calling :meth:`step`)
        and dispatches on the heap entry's payload tag: this loop is
        the simulator's innermost hot path, and the saved call +
        isinstance per event is a measurable fraction of total wall
        time on macro experiments.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        if until is not None:
            until = float(until)  # the clock stays a float, so sleeps do
            if until < self._now:
                raise SimulationError(
                    f"run(until={until!r}) is before the clock ({self._now!r})")
        self._running = True
        self._horizon = inf if until is None else until
        run_started = self._now
        queue = self._queue
        heappop = heapq.heappop
        try:
            if until is None:
                while queue:  # unbounded drain: no per-event bound check
                    when, _seq, kind, payload = heappop(queue)
                    if kind == 1:
                        self._now = when
                        callbacks = payload.callbacks
                        payload.callbacks = None  # mark processed
                        if callbacks:
                            if len(callbacks) == 1:
                                callbacks[0](payload)
                            else:
                                self._run_callbacks(payload, callbacks)
                        elif not payload._ok and not isinstance(payload, Process):
                            raise payload.value
                    elif kind == 0:
                        self._now = when
                        payload()
                    else:
                        # Background call: discarded (clock untouched)
                        # when nothing but background work remains.
                        self._background -= 1
                        if len(queue) == self._background:
                            continue
                        self._now = when
                        payload()
            else:
                while queue:
                    if queue[0][0] > until:
                        self._now = until
                        return self._now
                    when, _seq, kind, payload = heappop(queue)
                    if kind == 1:
                        self._now = when
                        callbacks = payload.callbacks
                        payload.callbacks = None  # mark processed
                        if callbacks:
                            if len(callbacks) == 1:
                                callbacks[0](payload)
                            else:
                                self._run_callbacks(payload, callbacks)
                        elif not payload._ok and not isinstance(payload, Process):
                            raise payload.value
                    elif kind == 0:
                        self._now = when
                        payload()
                    else:
                        self._background -= 1
                        if len(queue) == self._background:
                            continue
                        self._now = when
                        payload()
            if self._live_processes > 0:
                raise DeadlockError(
                    f"{self._live_processes} live process(es) blocked forever "
                    "with an empty event queue"
                )
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self._running = False
            self._horizon = -inf
            if self.tracer.enabled:
                self.tracer.complete("engine.run", "sim", run_started)

    def run_process(self, generator: Generator[Event, Any, Any]) -> Any:
        """Convenience: start ``generator`` as a process, run to completion,
        and return the generator's return value (re-raising its error)."""
        proc = self.process(generator)
        self.run()
        if not proc.triggered:  # pragma: no cover - defensive
            raise SimulationError("process did not finish")
        if not proc.ok:
            raise proc.value
        return proc.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self._now:.6g} queued={len(self._queue)}>"
