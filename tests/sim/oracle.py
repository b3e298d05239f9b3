"""The Resource-based link: a differential oracle for
:class:`repro.sim.Channel`.

Before the link became a busy flag and a FIFO of waiter events, a
:class:`~repro.sim.Channel` serialized its transfers on a capacity-1
:class:`~repro.sim.Resource`: every send acquired a grant event, which
an idle link triggered at once (one queue entry at ``(now, seq + 1)``)
and a busy one triggered at the release that handed the link over.
:class:`ResourceChannel` is that class, kept verbatim but for its
name; the tests run random send schedules on both and compare what
each sender observes.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim import Engine, Resource

__all__ = ["ResourceChannel"]


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
