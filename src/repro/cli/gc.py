"""Managed heap with a generational-flavoured GC pause model.

The execution engine "manages components, isolation model, and several
run-time services" (paper §1) — allocation and collection are the
run-time service that perturbs I/O latencies, so the model charges:

* a small per-allocation cost (pointer-bump + zeroing), and
* a stop-the-world pause whenever gen-0 allocation since the last
  collection crosses a threshold, proportional to the bytes examined.

No object graph is kept — the simulation tracks byte volumes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CliError
from repro.sim import Counter, Engine, Tally

__all__ = ["GcParams", "ManagedHeap"]


@dataclass(frozen=True)
class GcParams:
    """Allocation and collection cost coefficients."""

    alloc_base_cost: float = 30e-9          # per-allocation bookkeeping
    alloc_cost_per_byte: float = 0.05e-9    # zeroing at ~20 GB/s
    gen0_threshold: int = 256 * 1024        # collect after this much allocation
    pause_base: float = 50e-6
    pause_per_byte: float = 0.2e-9          # scan cost over gen-0 volume
    survival_fraction: float = 0.1          # fraction promoted per collection

    def __post_init__(self) -> None:
        if min(
            self.alloc_base_cost,
            self.alloc_cost_per_byte,
            self.pause_base,
            self.pause_per_byte,
        ) < 0:
            raise CliError("GC cost coefficients must be >= 0")
        if self.gen0_threshold < 1:
            raise CliError("gen0_threshold must be >= 1")
        if not (0.0 <= self.survival_fraction <= 1.0):
            raise CliError("survival_fraction must be in [0, 1]")


class ManagedHeap:
    """Byte-volume heap model with threshold-triggered collections."""

    def __init__(self, engine: Engine, params: Optional[GcParams] = None) -> None:
        self.engine = engine
        self.params = params or GcParams()
        self.gen0_bytes = 0
        self.promoted_bytes = 0
        self.total_allocated = Counter("heap.allocated")
        self.collections = Counter("heap.collections")
        self.pause_times = Tally("heap.pauses")

    def allocate(self, nbytes: int):
        """Generator: allocate ``nbytes``; may trigger a collection."""
        if nbytes < 0:
            raise CliError(f"negative allocation: {nbytes}")
        p = self.params
        self.gen0_bytes += nbytes
        self.total_allocated.add(nbytes)
        yield p.alloc_base_cost + p.alloc_cost_per_byte * nbytes
        if self.gen0_bytes >= p.gen0_threshold:
            yield from self.collect()

    def collect(self):
        """Generator: stop-the-world gen-0 collection."""
        p = self.params
        pause = p.pause_base + p.pause_per_byte * self.gen0_bytes
        survivors = int(self.gen0_bytes * p.survival_fraction)
        yield pause
        self.promoted_bytes += survivors
        self.gen0_bytes = 0
        self.collections.add()
        self.pause_times.record(pause)
        return pause

    @property
    def live_estimate(self) -> int:
        """Rough live-set size: current gen-0 plus everything promoted."""
        return self.gen0_bytes + self.promoted_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ManagedHeap gen0={self.gen0_bytes} promoted={self.promoted_bytes} "
            f"collections={self.collections.value}>"
        )
