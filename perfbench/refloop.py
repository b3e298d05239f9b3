"""The fixed reference loop that host CPU seconds are normalized by.

The loop churns a heap, a dict, slotted-object attributes and a
generator, the mix of the simulator's own hot paths, in two passes: one
over a live set of 2**17 objects, which misses the CPU caches, and one
over fresh short-lived objects and a working set that fits in them.
The host's slow phases slow these two kinds of code by different
factors, and the workloads sit between them, so the loop times both.
It imports nothing from ``repro``, so no change to the program can
change it; its CPU time measures only how fast the host happens to be
right now.

See ``NORMALIZATION.md`` beside this file for why and how well it works.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["NOMINAL_REF_SECONDS", "ReferenceLoop", "normalize"]

#: CPU seconds one :meth:`ReferenceLoop.run` takes on the host the
#: benchmark was calibrated on (the median on a 2-vCPU Intel Xeon VM
#: with CPython 3.11, while that host ran at its faster speed).  A
#: normalized time reads as "seconds on that host".
NOMINAL_REF_SECONDS = 0.070

_LIVE = 1 << 17
_ITERATIONS = 15_000
_HEAP_CAP = 4096
_SMALL_ITERATIONS = 40_000
_SMALL_HEAP_CAP = 64
_SMALL_KEYS = 4096


class _Node:
    __slots__ = ("key", "rank", "hits")

    def __init__(self, key: int, rank: int) -> None:
        self.key = key
        self.rank = rank
        self.hits = 0


def _ticks(n: int):
    for i in range(n):
        yield i


class ReferenceLoop:
    """Builds the live set once; :meth:`seconds` times one pass."""

    def __init__(self) -> None:
        self._nodes = [_Node(i, (i * 2654435761) % _LIVE) for i in range(_LIVE)]
        self._index = {node.rank * 31: node for node in self._nodes}

    def run(self) -> int:
        """One pass; returns a checksum so the work cannot be skipped."""
        return self._live_set_pass() + self._small_pass()

    def _live_set_pass(self) -> int:
        nodes, index = self._nodes, self._index
        heap = []
        total = 0
        x = 12345
        for tick in _ticks(_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            node = nodes[x & (_LIVE - 1)]
            peer = index[node.rank * 31]
            peer.hits += 1
            total += peer.key
            heapq.heappush(heap, (node.rank, tick, node))
            if len(heap) > _HEAP_CAP:
                heapq.heappop(heap)
        return total

    @staticmethod
    def _small_pass() -> int:
        heap, table = [], {}
        for i in range(_SMALL_ITERATIONS):
            node = _Node(i, i * 7 % 1013)
            heapq.heappush(heap, (node.rank, i, node))
            table[i % _SMALL_KEYS] = node.key
            if len(heap) > _SMALL_HEAP_CAP:
                heapq.heappop(heap)
        total = 0
        for tick in _ticks(_SMALL_ITERATIONS):
            total += table.get(tick % _SMALL_KEYS, 0)
        return total

    def seconds(self) -> float:
        """Process CPU seconds of one :meth:`run`.

        The cyclic garbage collector is off meanwhile: a collection
        would walk the workload's heap and charge its size to the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            self.run()
            return time.process_time() - start
        finally:
            if enabled:
                gc.enable()


def normalize(cpu_seconds: float, ref_before: float, ref_after: float,
              nominal: float = NOMINAL_REF_SECONDS) -> float:
    """``cpu_seconds`` scaled to the calibration host's speed.

    The reference loop is timed right before and right after the
    measured span; their mean stands for the host's speed during it.
    """
    if ref_before <= 0 or ref_after <= 0:
        raise ValueError("reference loop times must be positive")
    return cpu_seconds * nominal / ((ref_before + ref_after) / 2)
