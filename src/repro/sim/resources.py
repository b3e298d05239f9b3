"""Shared resources for simulation processes.

:class:`Resource`
    A counted resource (e.g. a pool of CPU cores or a disk's command
    slot).  FIFO grant order.

:class:`Store`
    An unbounded FIFO of items with blocking ``get`` (e.g. a listen
    backlog of incoming connections).

:class:`Channel`
    A serialized communication link with latency and bandwidth —
    models the interconnect used by communication bursts and the
    simulated TCP transport.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sanitizer import runtime as _sanitizer
from repro.sim.engine import Engine
from repro.sim.event import Event
from repro.sim.stats import TimeWeighted

__all__ = ["Resource", "Store", "Channel"]


class _Request(Event):
    """Grant event handed out by :meth:`Resource.acquire`."""

    __slots__ = ("resource",)

    def __init__(self, engine: Engine, resource: "Resource") -> None:
        super().__init__(engine)
        self.resource = resource


class Resource:
    """A counted resource with FIFO queuing.

    >>> res = Resource(engine, capacity=2)
    >>> req = res.acquire()   # inside a process: yield req
    >>> res.release(req)
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[_Request] = deque()
        self.utilization = TimeWeighted(engine, initial=0.0)
        self.queue_length = TimeWeighted(engine, initial=0.0)

    # -- introspection -----------------------------------------------------

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    # -- operations ---------------------------------------------------------

    def acquire(self) -> _Request:
        """Request one slot.  Yield the returned event to wait for grant."""
        req = _Request(self.engine, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            self._record()
            req.succeed(self)
        else:
            self._waiters.append(req)
            self._record()
        return req

    def release(self, request: _Request) -> None:
        """Return the slot granted by ``request``."""
        if not isinstance(request, _Request) or request.resource is not self:
            raise SimulationError("release() of a request not issued by this resource")
        if not request.triggered:
            # Cancelled while still queued.
            try:
                self._waiters.remove(request)
            except ValueError:
                raise SimulationError("request neither granted nor queued") from None
            self._record()
            return
        if self._in_use <= 0:  # pragma: no cover - defensive
            raise SimulationError(f"{self.name}: release with nothing in use")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed(self)  # slot transfers directly; _in_use unchanged
        else:
            self._in_use -= 1
        self._record()

    def _record(self) -> None:
        self.utilization.record(self._in_use / self.capacity)
        self.queue_length.record(len(self._waiters))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name} {self._in_use}/{self.capacity} "
            f"queued={len(self._waiters)}>"
        )


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that succeeds with
    the oldest item as soon as one is available.
    """

    def __init__(self, engine: Engine, name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            # Hand-off through the getter's event: the sanitizer edge
            # rides succeed() for free.
            self._getters.popleft().succeed(item)
        else:
            if _sanitizer.active is not None:
                # Buffered: stash the putter's clock alongside the item
                # so the eventual getter inherits the edge.
                _sanitizer.active.on_store_put(self)
            self._items.append(item)

    def get(self) -> Event:
        """Event that succeeds with the next item (immediately if buffered)."""
        ev = Event(self.engine)
        if self._items:
            # take() joins the buffered putter's stamp into the getter
            # *before* succeed() stamps the trigger.
            ev.succeed(self.take())
        else:
            self._getters.append(ev)
        return ev

    def take(self) -> Any:
        """Remove and return the oldest buffered item now, with no
        event: what :meth:`get` hands over when an item is buffered,
        for a caller that need not wait for it.  The consumer receives
        the putter's sanitizer stamp, as a getter does.  Raises
        :class:`SimulationError` when empty."""
        if not self._items:
            raise SimulationError(f"take() on empty store {self.name!r}")
        if _sanitizer.active is not None:
            _sanitizer.active.on_store_get(self)
        return self._items.popleft()

    def drain(self) -> list:
        """Remove and return every buffered item (oldest first).

        Waiting getters are untouched: they stay parked until the next
        :meth:`put`.  Used by teardown paths (e.g. a crashing cluster
        node flushing its accept backlog) that must dispose of queued
        items without waking consumers.
        """
        if _sanitizer.active is not None:
            _sanitizer.active.on_store_drain(self)
        items = list(self._items)
        self._items.clear()
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Store {self.name} items={len(self._items)} waiting={len(self._getters)}>"


class Channel:
    """A serialized link with latency and bandwidth.

    A transfer of ``nbytes`` occupies the link for ``nbytes /
    bandwidth`` seconds and completes ``latency`` seconds after its
    transmission finishes (cut-through pipelining of the propagation
    delay).  Transfers are serialized FIFO, modelling a shared
    interconnect or a NIC.

    The link is a busy flag and a FIFO of waiting senders' events, not
    a :class:`Resource`: nothing reads a link's utilization.  A sender
    that finds the link busy waits on its own event, which the
    releasing sender triggers (the link passes straight to it, as
    :meth:`Resource.release` hands a slot over).  A sender that finds
    it idle takes it and sleeps ``0.0``: a zero-delay sleep takes the
    position a grant event triggered now would take, ``(now, seq + 1)``,
    so it resumes exactly where that grant would have, in its own frame
    when nothing else is due now (see :meth:`Process._resume`).
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
        self._busy = False
        self._waiters: Deque[Event] = deque()
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
        if self._busy:
            grant = Event(self.engine)
            self._waiters.append(grant)
            yield grant
        else:
            self._busy = True
            yield 0.0
        try:
            yield nbytes / self.bandwidth
        finally:
            if self._waiters:
                # The link passes straight to the oldest waiter.
                self._waiters.popleft().succeed()
            else:
                self._busy = False
        # Propagation delay does not hold the link.
        if self.latency > 0:
            yield self.latency
        self.bytes_sent += nbytes
        self.transfers += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name} bw={self.bandwidth:g}B/s lat={self.latency:g}s>"
