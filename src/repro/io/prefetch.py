"""Prefetch policies.

The paper (§3.4) attributes its latency spikes to prefetching: *"At the
time when a read, write, or seek operation is performed, a prefetch
operation will be invoked accordingly.  In case where the respective
region is not present in the buffers, the corresponding pages are
fetched from the disk"*.  The :class:`Prefetcher` implements that hook:
every file-system access notifies it, and the active policy decides how
many pages ahead to schedule asynchronously.

Policies (compared by the ablation benchmark):

* :class:`NoPrefetch` — baseline, demand paging only.
* :class:`FixedAheadPrefetch` — constant read-ahead window.
* :class:`AdaptivePrefetch` — window doubles on a sequential streak
  and collapses on a random access (Linux-readahead-style).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.io.buffercache import BufferCache
    from repro.io.filesystem import Inode

__all__ = [
    "PrefetchPolicy",
    "NoPrefetch",
    "FixedAheadPrefetch",
    "AdaptivePrefetch",
    "Prefetcher",
    "make_prefetch_policy",
]


class PrefetchPolicy:
    """Decides the read-ahead window after each access."""

    name = "abstract"

    def window_after(self, state: "_FileState", first_page: int, npages: int) -> int:
        """Pages to prefetch beyond the access's last page (>= 0)."""
        raise NotImplementedError  # pragma: no cover


class NoPrefetch(PrefetchPolicy):
    """Demand paging only."""

    name = "none"

    def window_after(self, state: "_FileState", first_page: int, npages: int) -> int:
        return 0


class FixedAheadPrefetch(PrefetchPolicy):
    """Always schedule a constant number of pages ahead."""

    name = "fixed"

    def __init__(self, window: int = 8) -> None:
        if window < 1:
            raise StorageError(f"prefetch window must be >= 1, got {window}")
        self.window = window

    def window_after(self, state: "_FileState", first_page: int, npages: int) -> int:
        return self.window


class AdaptivePrefetch(PrefetchPolicy):
    """Grow the window on sequential streaks, reset on random jumps."""

    name = "adaptive"

    def __init__(self, initial: int = 2, maximum: int = 32) -> None:
        if initial < 1 or maximum < initial:
            raise StorageError(
                f"need 1 <= initial <= maximum, got {initial}, {maximum}"
            )
        self.initial = initial
        self.maximum = maximum

    def window_after(self, state: "_FileState", first_page: int, npages: int) -> int:
        if state.last_end is not None and first_page == state.last_end:
            state.window = min(self.maximum, max(self.initial, state.window * 2))
        else:
            state.window = self.initial
        return state.window


@dataclass
class _FileState:
    """Per-file access-pattern memory."""

    last_end: Optional[int] = None  # one past the last page accessed
    window: int = 0


class Prefetcher:
    """Glue between the file system and the cache: receives access
    notifications, asks the policy for a window, and schedules
    asynchronous fetches."""

    def __init__(self, cache: "BufferCache", policy: Optional[PrefetchPolicy] = None) -> None:
        self.cache = cache
        self.policy = policy if policy is not None else FixedAheadPrefetch()
        self._states: Dict[int, _FileState] = {}
        self.pages_scheduled = 0
        cache.engine.metrics.gauge(
            "prefetch.pages_scheduled", lambda: self.pages_scheduled,
            policy=self.policy.name,
        )

    def _state(self, inode: "Inode") -> _FileState:
        st = self._states.get(inode.file_id)
        if st is None:
            st = _FileState()
            self._states[inode.file_id] = st
        return st

    def on_access(self, inode: "Inode", first_page: int, npages: int) -> int:
        """Called after a read/write touches pages [first, first+n).
        Returns the number of pages scheduled for prefetch."""
        state = self._state(inode)
        window = self.policy.window_after(state, first_page, npages)
        end = first_page + npages
        state.last_end = end
        cache = self.cache
        # A window at or past EOF (page_count, inlined) has nothing to
        # fetch.
        if window <= 0 or end * cache.params.page_size >= inode.size_bytes:
            return 0
        scheduled = cache.prefetch(inode, end, window)
        self.pages_scheduled += scheduled
        return scheduled

    def on_seek(self, inode: "Inode", target_page: int) -> int:
        """Called on an explicit seek: warm the cache at the target
        without charging the seeker (asynchronous)."""
        state = self._state(inode)
        window = self.policy.window_after(state, target_page, 0)
        state.last_end = target_page
        if window <= 0:
            return 0
        scheduled = self.cache.prefetch(inode, target_page, window)
        self.pages_scheduled += scheduled
        return scheduled

    def forget(self, inode: "Inode") -> None:
        """Drop pattern memory (file closed/deleted)."""
        self._states.pop(inode.file_id, None)


def make_prefetch_policy(name: str, **kwargs) -> PrefetchPolicy:
    """Factory: ``"none"``, ``"fixed"`` (window=), ``"adaptive"``
    (initial=, maximum=)."""
    policies = {
        "none": NoPrefetch,
        "fixed": FixedAheadPrefetch,
        "adaptive": AdaptivePrefetch,
    }
    try:
        cls = policies[name.lower()]
    except KeyError:
        raise StorageError(
            f"unknown prefetch policy {name!r}; choices: {sorted(policies)}"
        ) from None
    return cls(**kwargs)
