"""Disk-arm scheduling disciplines.

A scheduler holds pending :class:`~repro.storage.request.IORequest`
objects and, given the current head cylinder, picks the next one to
service.  The disk drives it; schedulers hold no timing logic.

Implemented disciplines (classic textbook set — the prefetching
discussion in the paper §3.4 motivates the ablation in DESIGN.md §6):

* FCFS   — arrival order.
* SSTF   — shortest seek time first.
* SCAN   — elevator, sweeping both directions, reversing at extremes.
* C-SCAN — one-directional sweep, wrap to cylinder 0.
* C-LOOK — one-directional sweep, wrap to the lowest pending request.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import DiskError
from repro.storage.geometry import DiskGeometry
from repro.storage.request import IORequest

__all__ = [
    "DiskScheduler",
    "FCFSScheduler",
    "SSTFScheduler",
    "ScanScheduler",
    "CScanScheduler",
    "CLookScheduler",
    "make_scheduler",
    "SCHEDULERS",
]


class DiskScheduler:
    """Abstract base: a queue of requests with a selection policy.

    The driving disk keeps the queue depth and its high-water mark
    itself (``Disk.queue_depth`` / ``Disk.queue_max_depth``), so a
    scheduler is just ``push``, ``pop`` and ``len``.
    """

    name = "abstract"

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry

    def push(self, request: IORequest) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def pop(self, head_cylinder: int) -> IORequest:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def empty(self) -> bool:
        return len(self) == 0


class FCFSScheduler(DiskScheduler):
    """First-come first-served."""

    name = "fcfs"

    def __init__(self, geometry: DiskGeometry) -> None:
        super().__init__(geometry)
        self._queue: Deque[IORequest] = deque()

    def push(self, request: IORequest) -> None:
        self._queue.append(request)

    def pop(self, head_cylinder: int) -> IORequest:
        if not self._queue:
            raise DiskError("pop from empty scheduler")
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class _ListScheduler(DiskScheduler):
    """Shared storage for position-aware policies (small queues; O(n)
    selection is fine and keeps the code legible per the guides'
    make-it-work-first rule)."""

    def __init__(self, geometry: DiskGeometry) -> None:
        super().__init__(geometry)
        self._pending: List[IORequest] = []

    def push(self, request: IORequest) -> None:
        self._pending.append(request)

    def __len__(self) -> int:
        return len(self._pending)

    def _take(self, idx: int) -> IORequest:
        return self._pending.pop(idx)

    def _cyl(self, request: IORequest) -> int:
        return self.geometry.cylinder_of(request.lba)


class SSTFScheduler(_ListScheduler):
    """Shortest seek time first (greedy nearest cylinder)."""

    name = "sstf"

    def pop(self, head_cylinder: int) -> IORequest:
        if not self._pending:
            raise DiskError("pop from empty scheduler")
        best = min(
            range(len(self._pending)),
            key=lambda i: (abs(self._cyl(self._pending[i]) - head_cylinder), i),
        )
        return self._take(best)


class ScanScheduler(_ListScheduler):
    """Elevator: keep sweeping in the current direction; reverse when no
    request remains ahead."""

    name = "scan"

    def __init__(self, geometry: DiskGeometry) -> None:
        super().__init__(geometry)
        self._direction = 1  # +1 toward higher cylinders

    def pop(self, head_cylinder: int) -> IORequest:
        if not self._pending:
            raise DiskError("pop from empty scheduler")
        for _ in range(2):
            ahead = [
                (i, self._cyl(r))
                for i, r in enumerate(self._pending)
                if (self._cyl(r) - head_cylinder) * self._direction >= 0
            ]
            if ahead:
                idx, _ = min(ahead, key=lambda t: (abs(t[1] - head_cylinder), t[0]))
                return self._take(idx)
            self._direction = -self._direction
        raise AssertionError("unreachable: pending requests must lie somewhere")


class CScanScheduler(_ListScheduler):
    """Circular SCAN: sweep toward higher cylinders only; after the
    highest pending request, wrap to the lowest-cylinder request."""

    name = "cscan"

    def pop(self, head_cylinder: int) -> IORequest:
        if not self._pending:
            raise DiskError("pop from empty scheduler")
        ahead = [
            (i, self._cyl(r))
            for i, r in enumerate(self._pending)
            if self._cyl(r) >= head_cylinder
        ]
        pool = ahead or [(i, self._cyl(r)) for i, r in enumerate(self._pending)]
        idx, _ = min(pool, key=lambda t: (t[1], t[0]))
        return self._take(idx)


class CLookScheduler(CScanScheduler):
    """C-LOOK behaves like C-SCAN at this abstraction level (the disk
    charges actual distance moved, so not traveling to the physical end
    is already implicit); kept as a distinct named policy for the
    ablation harness."""

    name = "clook"


SCHEDULERS: Dict[str, Callable[[DiskGeometry], DiskScheduler]] = {
    "fcfs": FCFSScheduler,
    "sstf": SSTFScheduler,
    "scan": ScanScheduler,
    "cscan": CScanScheduler,
    "clook": CLookScheduler,
}


def make_scheduler(name: str, geometry: DiskGeometry) -> DiskScheduler:
    """Factory by policy name (see :data:`SCHEDULERS` for choices)."""
    try:
        factory = SCHEDULERS[name.lower()]
    except KeyError:
        raise DiskError(
            f"unknown scheduler {name!r}; choices: {sorted(SCHEDULERS)}"
        ) from None
    return factory(geometry)
