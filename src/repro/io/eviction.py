"""Cache eviction policies.

The buffer cache delegates victim selection to a policy object:

* **LRU** — least recently used (the default; what the paper-era
  Windows cache manager approximates);
* **FIFO** — insertion order, ignoring accesses;
* **CLOCK** — second-chance: a reference bit per page, cleared as the
  clock hand sweeps; cheap LRU approximation.

Policies only track *order*; page state stays in the cache.  The cache
reports a run of pages with one ``on_insert_run``/``on_access_run``
call; the default replays it key by key, and LRU does it in bulk.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import repeat
from typing import Hashable, Iterable

from repro.errors import StorageError

__all__ = ["EvictionPolicy", "LruPolicy", "FifoPolicy", "ClockPolicy",
           "make_eviction_policy", "EVICTION_POLICIES"]


class EvictionPolicy:
    """Victim-selection strategy over cache keys."""

    name = "abstract"

    def on_insert(self, key: Hashable) -> None:
        raise NotImplementedError  # pragma: no cover

    def on_access(self, key: Hashable) -> None:
        raise NotImplementedError  # pragma: no cover

    def on_remove(self, key: Hashable) -> None:
        raise NotImplementedError  # pragma: no cover

    def on_insert_run(self, keys: Iterable[Hashable]) -> None:
        """``on_insert`` for each absent key, in order."""
        for key in keys:
            self.on_insert(key)

    def on_access_run(self, keys: Iterable[Hashable]) -> None:
        """``on_access`` for each resident key, in order."""
        for key in keys:
            self.on_access(key)

    def victim(self) -> Hashable:
        """Select and remove the next victim key."""
        raise NotImplementedError  # pragma: no cover

    def __len__(self) -> int:
        raise NotImplementedError  # pragma: no cover


class LruPolicy(EvictionPolicy):
    """Evict the least recently used page."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_insert(self, key: Hashable) -> None:
        self._order[key] = None

    def on_access(self, key: Hashable) -> None:
        self._order.move_to_end(key)

    def on_insert_run(self, keys: Iterable[Hashable]) -> None:
        self._order.update(zip(keys, repeat(None)))

    def on_access_run(self, keys: Iterable[Hashable]) -> None:
        deque(map(self._order.move_to_end, keys), maxlen=0)

    def on_remove(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def victim(self) -> Hashable:
        if not self._order:
            raise StorageError("victim() on an empty policy")
        key, _ = self._order.popitem(last=False)
        return key

    def __len__(self) -> int:
        return len(self._order)


class FifoPolicy(LruPolicy):
    """Evict in insertion order; accesses do not refresh."""

    name = "fifo"

    def on_access(self, key: Hashable) -> None:
        pass  # insertion order only

    def on_access_run(self, keys: Iterable[Hashable]) -> None:
        pass


class ClockPolicy(EvictionPolicy):
    """Second-chance: each page has a reference bit set on access; the
    hand sweeps insertion order, clearing bits until it finds a page
    with bit 0."""

    name = "clock"

    def __init__(self) -> None:
        self._ring: "OrderedDict[Hashable, bool]" = OrderedDict()

    def on_insert(self, key: Hashable) -> None:
        self._ring[key] = False

    def on_access(self, key: Hashable) -> None:
        if key in self._ring:
            self._ring[key] = True

    def on_remove(self, key: Hashable) -> None:
        self._ring.pop(key, None)

    def victim(self) -> Hashable:
        if not self._ring:
            raise StorageError("victim() on an empty policy")
        while True:
            key, referenced = self._ring.popitem(last=False)
            if referenced:
                # Second chance: clear the bit, move behind the hand.
                self._ring[key] = False
            else:
                return key

    def __len__(self) -> int:
        return len(self._ring)


EVICTION_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "clock": ClockPolicy,
}


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Factory by policy name."""
    try:
        cls = EVICTION_POLICIES[name.lower()]
    except KeyError:
        raise StorageError(
            f"unknown eviction policy {name!r}; choices: {sorted(EVICTION_POLICIES)}"
        ) from None
    return cls()
