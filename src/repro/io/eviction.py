"""Cache eviction policies.

The buffer cache delegates victim selection to a policy object:

* **LRU** — least recently used (the default; what the paper-era
  Windows cache manager approximates);
* **FIFO** — insertion order, ignoring accesses;
* **CLOCK** — second-chance: a reference bit per page, cleared as the
  clock hand sweeps; cheap LRU approximation.

Policies only track *order*; page state stays in the cache.  The cache
speaks in page runs ``[start, stop)`` of one file, each page taken in
ascending order, and ``evict(n)`` returns the next ``n`` victims as
``(file_id, start, stop)`` runs.  LRU and FIFO order runs too (pages
of one file next to each other in the order, ascending), so every
hook costs O(runs touched); CLOCK is written per page key ``(file_id,
page)``, which the base class's run hooks expand to.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import OrderedDict
from operator import attrgetter
from typing import Dict, Hashable, List, Tuple

from repro.errors import StorageError

__all__ = ["EvictionPolicy", "LruPolicy", "FifoPolicy", "ClockPolicy",
           "make_eviction_policy", "EVICTION_POLICIES"]

#: A victim run: pages ``[start, stop)`` of one file.
Victim = Tuple[int, int, int]

class EvictionPolicy:
    """Victim-selection strategy over page runs.

    The run hooks below expand each run key by key, for a subclass that
    defines ``on_insert(key)``, ``on_access(key)``, ``on_remove(key)``
    and ``victim() -> key`` instead of overriding them."""

    name = "abstract"

    def on_insert_run(self, fid: int, start: int, stop: int,
                      room: int) -> List[Victim]:
        """Insert absent pages ``[start, stop)`` in order.  Once the
        first ``room`` are in, each page first evicts one victim (which
        may be a page of this run).  Returns the victims, in order."""
        victims = []
        for page in range(start, stop):
            if page - start >= room:
                victims += self.evict(1)
            self.on_insert((fid, page))
        return victims

    def on_access_run(self, fid: int, start: int, stop: int) -> None:
        """``on_access`` for each resident page, in order."""
        for page in range(start, stop):
            self.on_access((fid, page))

    def on_remove_run(self, fid: int, start: int, stop: int) -> None:
        """``on_remove`` for each resident page."""
        for page in range(start, stop):
            self.on_remove((fid, page))

    def evict(self, npages: int) -> List[Victim]:
        """Select and remove the next ``npages`` victims."""
        return [(fid, page, page + 1)
                for fid, page in (self.victim() for _ in range(npages))]


class _Run:
    """Pages ``[start, stop)`` of file ``fid``, next to each other in
    a policy's order: a node of its ring, linked in right after
    ``prev`` (a ring of its own without one)."""

    __slots__ = ("fid", "start", "stop", "prev", "next")

    def __init__(self, fid, start: int, stop: int, prev=None) -> None:
        self.fid = fid
        self.start = start
        self.stop = stop
        self.prev = self.next = self
        if prev is not None:
            self.relink(prev)

    def relink(self, prev: "_Run") -> None:
        """Move to right after ``prev``."""
        self.prev.next = self.next
        self.next.prev = self.prev
        self.prev = prev
        self.next = prev.next
        prev.next.prev = self
        prev.next = self


_START = attrgetter("start")
_STOP = attrgetter("stop")


class LruPolicy(EvictionPolicy):
    """Evict the least recently used page.

    The order is a ring of runs, oldest first after the sentinel, and
    each file has its runs sorted by first page, so a hit finds the
    runs holding its pages by bisection.
    """

    name = "lru"

    def __init__(self) -> None:
        self._ring = _Run(None, 0, 0)
        self._files: Dict[int, List[_Run]] = {}

    def _append(self, fid: int, start: int, stop: int) -> None:
        """Put pages ``[start, stop)``, held by no run, at the young end."""
        tail = self._ring.prev
        if tail.fid == fid and tail.stop == start:
            tail.stop = stop
            return
        insort(self._files.setdefault(fid, []), _Run(fid, start, stop, tail),
               key=_START)

    def on_insert_run(self, fid: int, start: int, stop: int,
                      room: int) -> List[Victim]:
        # Evicting from the old end after appending the run takes the
        # victims a page-at-a-time insert would: old pages first, then
        # the run's own first pages once the old ones run out.
        self._append(fid, start, stop)
        return self.evict(stop - start - room) if stop - start > room else []

    def on_access_run(self, fid: int, start: int, stop: int) -> None:
        tail = self._ring.prev
        if tail.fid == fid and tail.stop == stop and tail.start <= start:
            return  # already the youngest pages, in order
        runs = self._files[fid]
        run = runs[bisect_right(runs, start, key=_STOP)]
        if run.start == start and run.stop == stop and (
                tail.fid != fid or tail.stop != start):  # else merge below
            run.relink(tail)  # a whole run (a small file, say)
            return
        self.on_remove_run(fid, start, stop)
        self._append(fid, start, stop)

    def on_remove_run(self, fid: int, start: int, stop: int) -> None:
        runs = self._files.get(fid, [])
        i = j = bisect_right(runs, start, key=_STOP)
        while j < len(runs) and runs[j].start < stop:
            run = runs[j]
            if run.start < start:  # its head stays
                if run.stop > stop:  # and so does its tail, right after it
                    runs.insert(j + 1, _Run(fid, stop, run.stop, run))
                run.stop = start
                i += 1
            elif run.stop > stop:  # its tail stays
                run.start = stop
                break
            else:
                run.prev.next = run.next
                run.next.prev = run.prev
            j += 1
        del runs[i:j]
        if not runs:
            self._files.pop(fid, None)

    def evict(self, npages: int) -> List[Victim]:
        victims = []
        while npages > 0:
            run = self._ring.next
            if run is self._ring:
                raise StorageError("evict() on an empty policy")
            victim = (run.fid, run.start, min(run.stop, run.start + npages))
            self.on_remove_run(*victim)
            victims.append(victim)
            npages -= victim[2] - victim[1]
        return victims


class FifoPolicy(LruPolicy):
    """Evict in insertion order; accesses do not refresh."""

    name = "fifo"

    def on_access_run(self, fid: int, start: int, stop: int) -> None:
        pass  # insertion order only


class ClockPolicy(EvictionPolicy):
    """Second-chance: each page has a reference bit set on access; the
    hand sweeps insertion order, clearing bits until it finds a page
    with bit 0.  Page-granular: keys are ``(file_id, page)``."""

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
