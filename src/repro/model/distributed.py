"""Distributed execution fabrics (paper §5 future work).

"Furthermore, we intend to develop benchmarks for I/O-intensive
computing in a widely distributed environment."  This module supplies
the communication substrate for that study: instead of the default
single shared switch channel, nodes exchange their communication
bursts over a **point-to-point fabric** with a configurable topology
pattern and per-link parameters:

* ``ring``   — each node sends its burst to its successor;
* ``all``    — the burst is split evenly across all peers
  (all-to-all exchange), transfers proceeding in parallel;
* ``master`` — workers send to node 0; node 0 broadcasts to workers.

Latency/bandwidth defaults distinguish a ``cluster`` (LAN) from a
``wan`` (wide-area) deployment; the extension experiment compares
makespans across fabrics for a communication-intensive application.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.errors import ModelError
from repro.model.executor import MachineConfig
from repro.sim import Channel, Engine
from repro.units import KiB, MB

__all__ = [
    "FabricConfig",
    "PointToPointFabric",
    "distributed_machine",
    "CLUSTER_LINK",
    "WAN_LINK",
]

#: LAN point-to-point link: gigabit-class, 50 µs one way.
CLUSTER_LINK = (100.0 * MB, 50e-6)
#: Wide-area link: 10 MB/s, 20 ms one way.
WAN_LINK = (10.0 * MB, 20e-3)

_PATTERNS = ("ring", "all", "master")


@dataclass(frozen=True)
class FabricConfig:
    """Topology pattern and per-link parameters."""

    pattern: str = "ring"
    link_bandwidth: float = CLUSTER_LINK[0]
    link_latency: float = CLUSTER_LINK[1]
    chunk: int = 256 * KiB

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ModelError(
                f"unknown pattern {self.pattern!r}; choices: {_PATTERNS}"
            )
        if self.link_bandwidth <= 0:
            raise ModelError("link_bandwidth must be positive")
        if self.link_latency < 0:
            raise ModelError("link_latency must be >= 0")
        if self.chunk < 1:
            raise ModelError("chunk must be >= 1 byte")


class PointToPointFabric:
    """Dedicated directed links between every ordered node pair,
    created lazily (only pairs that communicate get a channel)."""

    def __init__(self, engine: Engine, nnodes: int, config: FabricConfig) -> None:
        if nnodes < 1:
            raise ModelError(f"nnodes must be >= 1, got {nnodes}")
        self.engine = engine
        self.nnodes = nnodes
        self.config = config
        self._links: Dict[Tuple[int, int], Channel] = {}

    def link(self, src: int, dst: int) -> Channel:
        """The directed channel src → dst (lazily constructed)."""
        if not (0 <= src < self.nnodes and 0 <= dst < self.nnodes):
            raise ModelError(f"link ({src}, {dst}) outside fabric of {self.nnodes}")
        if src == dst:
            raise ModelError("no self-links in the fabric")
        key = (src, dst)
        channel = self._links.get(key)
        if channel is None:
            channel = Channel(
                self.engine,
                self.config.link_bandwidth,
                self.config.link_latency,
                name=f"link{src}->{dst}",
            )
            self._links[key] = channel
        return channel

    @property
    def links_created(self) -> int:
        return len(self._links)

    # -- transmission --------------------------------------------------------

    def _send_over(self, channel: Channel, nbytes: int):
        remaining = nbytes
        while remaining > 0:
            chunk = min(self.config.chunk, remaining)
            yield from channel.send(chunk)
            remaining -= chunk

    def transmit(self, node_index: int, nbytes: int):
        """Generator: perform one node's communication burst of
        ``nbytes`` according to the fabric pattern."""
        if self.nnodes == 1:
            # Nothing to talk to; the burst degenerates to local copy
            # time at link bandwidth (loopback).
            yield nbytes / self.config.link_bandwidth
            return
        pattern = self.config.pattern
        if pattern == "ring":
            dst = (node_index + 1) % self.nnodes
            yield from self._send_over(self.link(node_index, dst), nbytes)
            return
        if pattern == "all":
            peers = [i for i in range(self.nnodes) if i != node_index]
            share = max(1, nbytes // len(peers))
            procs = [
                self.engine.process(
                    self._send_over(self.link(node_index, dst), share),
                    name=f"xfer{node_index}->{dst}",
                )
                for dst in peers
            ]
            yield self.engine.all_of(procs)
            return
        # master/worker
        if node_index == 0:
            # Broadcast: send the full burst to every worker in parallel.
            procs = [
                self.engine.process(
                    self._send_over(self.link(0, dst), nbytes),
                    name=f"bcast->{dst}",
                )
                for dst in range(1, self.nnodes)
            ]
            yield self.engine.all_of(procs)
        else:
            yield from self._send_over(self.link(node_index, 0), nbytes)


def distributed_machine(
    base: MachineConfig = None,
    pattern: str = "ring",
    link: Tuple[float, float] = CLUSTER_LINK,
    chunk: int = 256 * KiB,
) -> MachineConfig:
    """A :class:`MachineConfig` whose communication runs on a
    point-to-point fabric.

    >>> machine = distributed_machine(pattern="all", link=WAN_LINK)
    >>> ApplicationExecutor(app, machine).run()
    """
    config = FabricConfig(
        pattern=pattern, link_bandwidth=link[0], link_latency=link[1], chunk=chunk
    )

    def factory(engine: Engine, nnodes: int, _machine: MachineConfig):
        return PointToPointFabric(engine, nnodes, config)

    base = base if base is not None else MachineConfig()
    return replace(base, fabric_factory=factory)
