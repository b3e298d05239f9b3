"""Differential oracles for the simulation kernel.

* :class:`ResourceChannel`, the Resource-based link, for
  :class:`repro.sim.Channel`.  Before the link became a busy flag and a
  FIFO of waiter events, a :class:`~repro.sim.Channel` serialized its
  transfers on a capacity-1 :class:`~repro.sim.Resource`: every send
  acquired a grant event, which an idle link triggered at once (one
  queue entry at ``(now, seq + 1)``) and a busy one triggered at the
  release that handed the link over.  It is that class, kept verbatim
  but for its name.
* :class:`TimeoutProcess` (built by :class:`TimeoutEngine`), the
  process whose start was a bound ``_resume_first`` call and whose
  queued sleep was a :class:`~repro.sim.Timeout`, for
  :class:`repro.sim.process.Process`, which pushes one bare heap entry
  for either at the same ``(time, seq)``.  Its ``__init__``,
  ``_resume_first`` and ``_resume`` are the old ones verbatim.

The tests run random schedules on both and compare what each process
observes.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sanitizer import runtime as _sanitizer
from repro.sim import Engine, Resource
from repro.sim.event import Event, PENDING, Timeout
from repro.sim.process import Process

__all__ = ["ResourceChannel", "TimeoutEngine", "TimeoutProcess"]


class ResourceChannel:
    """A serialized link with latency and bandwidth.

    A transfer of ``nbytes`` occupies the link for ``nbytes /
    bandwidth`` seconds and completes ``latency`` seconds after its
    transmission finishes (cut-through pipelining of the propagation
    delay).  Transfers are serialized FIFO, modelling a shared
    interconnect or a NIC.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "channel",
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise SimulationError(f"latency must be >= 0, got {latency}")
        self.engine = engine
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._link = Resource(engine, capacity=1, name=f"{name}.link")
        self.bytes_sent = 0
        self.transfers = 0

    def transfer_time(self, nbytes: int) -> float:
        """Pure service time for ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        return self.latency + nbytes / self.bandwidth

    def send(self, nbytes: int):
        """Process generator: occupy the link and delay for the transfer.

        Usage inside a process::

            yield from channel.send(nbytes)
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        grant = self._link.acquire()
        yield grant
        try:
            yield nbytes / self.bandwidth
        finally:
            self._link.release(grant)
        # Propagation delay does not hold the link.
        if self.latency > 0:
            yield self.latency
        self.bytes_sent += nbytes
        self.transfers += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name} bw={self.bandwidth:g}B/s lat={self.latency:g}s>"


class TimeoutProcess(Process):
    """A process that starts through a scheduled call and sleeps, when
    it cannot sleep in its own frame, on a :class:`Timeout`."""

    __slots__ = ()

    def __init__(
        self,
        engine: Engine,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Engine.process() needs a generator, got {type(generator).__name__}"
            )
        Event.__init__(self, engine)
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
        # Kick off at the current time.
        engine._schedule_call(self._resume_first)

    def _resume_first(self) -> None:
        self._resume(None)

    def _resume(self, event: Optional[Event]) -> None:
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
                        if wake <= engine._horizon and (
                                not queue or queue[0][0] > wake):
                            if det is not None:
                                det.on_sleep(self, wake)
                            engine._now = wake
                            # Where the wake-up's Timeout would have run:
                            # after everything queued so far.
                            engine._cur_seq = engine._seq
                            target = generator.send(None)
                        else:
                            target = Timeout(engine, target)
                            break
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


class TimeoutEngine(Engine):
    """An engine whose :meth:`process` builds a :class:`TimeoutProcess`
    (with no tracer span: the oracle runs untraced)."""

    def process(self, generator, name=None, daemon=False):
        return TimeoutProcess(self, generator, name=name, daemon=daemon)
