"""Page-granular buffer cache over a block device.

The cache holds *metadata only* (which pages are resident and whether
they are dirty) — no payload bytes, since the simulation tracks sizes,
not contents.  Pages are 4 KiB, evicted LRU, and fetched from the
device in contiguous batched runs.

The books are kept per page run: per file, the resident pages are a
sorted list of run boundaries and the in-flight pages a sorted list of
``(start, stop, completion event)`` fetches, and the eviction policy
orders runs too (:mod:`repro.io.eviction`).  Reads, prefetches,
publishes and evictions cost O(runs touched), yet keep the order,
victims, counters and race-detector records (one ``insert`` or
``evict`` per page) of a page-at-a-time cache.  Dirty pages alone are
a per-page set per file: writes dirty pages one at a time.

Concurrency: a page being fetched is *in flight*; concurrent demanders
wait on the same completion event instead of duplicating device
traffic.  Dirty pages evicted or flushed are written back by an
asynchronous writer process, so only the *issue* cost lands on the
caller — mirroring OS write-behind, and producing the paper's
"close is slower than open, but not disk-slow" measurements.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import StorageError
from repro.sanitizer import runtime as _sanitizer
from repro.sanitizer.race import shared
from repro.sim import Engine
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.io.filesystem import Inode

__all__ = ["CacheParams", "CacheStats", "BufferCache"]


#: Stand-in for a file with no resident or in-flight pages.
_NONE: Tuple = ()

_FIRST = itemgetter(0)


@dataclass(frozen=True)
class CacheParams:
    """Sizing and cost parameters.

    ``capacity_pages`` defaults to 16384 × 4 KiB = 64 MiB, a plausible
    page-cache share on the paper's 2004 test machine.
    ``page_touch_cost`` is the software cost of delivering one cached
    page to the caller (lookup + copy bookkeeping).
    ``writeback_issue_cost`` is the per-page cost of queueing an
    asynchronous write-back (charged to flushers/evicters).
    """

    page_size: int = 4096
    capacity_pages: int = 16384
    page_touch_cost: float = 60e-9
    writeback_issue_cost: float = 30e-9
    eviction: str = "lru"

    def __post_init__(self) -> None:
        if self.page_size < 1:
            raise StorageError(f"page_size must be >= 1, got {self.page_size}")
        if self.capacity_pages < 1:
            raise StorageError(f"capacity_pages must be >= 1, got {self.capacity_pages}")
        if self.page_touch_cost < 0 or self.writeback_issue_cost < 0:
            raise StorageError("per-page costs must be >= 0")
        from repro.io.eviction import EVICTION_POLICIES

        if self.eviction not in EVICTION_POLICIES:
            raise StorageError(
                f"unknown eviction policy {self.eviction!r}; "
                f"choices: {sorted(EVICTION_POLICIES)}"
            )


@dataclass
class CacheStats:
    """Running counters; read them after an experiment."""

    hits: int = 0
    misses: int = 0
    inflight_waits: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    evictions: int = 0
    writebacks: int = 0
    fetch_failures: int = 0
    writeback_failures: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.inflight_waits

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


def _remove(bounds: List[int], start: int, stop: int) -> None:
    """Remove pages ``[start, stop)`` from a run-boundary list: ``[s0,
    e0, s1, e1, ...]``, strictly increasing, for the runs ``[s0, e0),
    [s1, e1), ...``, so a page is in it when an odd number of
    boundaries are at or below it."""
    lo = bisect_left(bounds, start)
    hi = bisect_right(bounds, stop)
    bounds[lo:hi] = (start, stop)[1 - (lo & 1):1 + (hi & 1)]


def _clip(bounds: List[int], start: int, stop: float) -> List[int]:
    """The runs of a run-boundary list within ``[start, stop)``."""
    i = bisect_right(bounds, start)
    j = bisect_left(bounds, stop)
    return [start] * (i & 1) + bounds[i:j] + [stop] * (j & 1)


class BufferCache:
    """LRU page cache bound to one block device.

    The device must expose ``block_size`` and
    ``submit_range(lba, nblocks, is_write) -> Event``
    (both :class:`~repro.storage.disk.Disk` and
    :class:`~repro.storage.raid.StripedArray` qualify).
    """

    def __init__(
        self,
        engine: Engine,
        device,
        params: Optional[CacheParams] = None,
    ) -> None:
        self.engine = engine
        self.device = device
        self.params = params or CacheParams()
        if self.params.page_size % device.block_size != 0:
            raise StorageError(
                f"page size {self.params.page_size} not a multiple of "
                f"device block size {device.block_size}"
            )
        self.blocks_per_page = self.params.page_size // device.block_size
        from repro.io.eviction import make_eviction_policy

        # file_id -> resident run boundaries (see ``_remove``); per-file
        # so close paths (flush/sync/invalidate) touch only that file.
        self._runs: Dict[int, List[int]] = {}
        self._resident = 0
        self._dirty_by_file: Dict[int, set] = {}
        self._policy = make_eviction_policy(self.params.eviction)
        # file_id -> its fetches in flight, ``(start, stop, done)``, sorted
        # and disjoint (a fetch holds all of its pages or none).
        self._inflight: Dict[int, List[Tuple[int, int, Event]]] = {}
        # Sanitizer annotation for the page map.  Internal operations
        # access it relaxed: the cache's contract is that the map may
        # change across any wait and every consumer must re-validate
        # residency after resuming (the stale-read lint enforces that
        # discipline; the ``access()`` hit path re-checks explicitly).
        # Public introspection reads are strict, so outside code that
        # *mutates* cache state in a race with the engine shows up.
        self._san_pages = shared("cache.pages")
        self.stats = CacheStats()
        engine.metrics.register("cache.stats", self.stats)
        engine.metrics.gauge("cache.resident_pages", lambda: self._resident)

    # -- queries ---------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="resident_pages")
        return self._resident

    def is_resident(self, inode: "Inode", page: int) -> bool:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="is_resident")
        return bool(bisect_right(self._runs.get(inode.file_id, _NONE), page) & 1)

    def is_dirty(self, inode: "Inode", page: int) -> bool:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="is_dirty")
        return page in self._dirty_by_file.get(inode.file_id, _NONE)

    def is_inflight(self, inode: "Inode", page: int) -> bool:
        return self._fetching(inode.file_id, page) is not None

    def dirty_pages_of(self, inode: "Inode") -> List[int]:
        return list(self._dirty_by_file.get(inode.file_id, ()))

    def resident_pages_of(self, inode: "Inode") -> List[int]:
        bounds = self._runs.get(inode.file_id, _NONE)
        return [page for start, stop in zip(bounds[::2], bounds[1::2])
                for page in range(start, stop)]

    def _fetching(self, fid: int, page: int) -> Optional[Event]:
        """The completion event of the fetch bringing ``page`` in."""
        flights = self._inflight.get(fid, _NONE)
        i = bisect_right(flights, page, key=_FIRST)
        if i and flights[i - 1][1] > page:
            return flights[i - 1][2]
        return None

    # -- core operations ---------------------------------------------------

    def access(self, inode: "Inode", first_page: int, npages: int):
        """Generator: make pages [first, first+npages) resident and
        charge delivery cost.  Returns ``(hits, misses)``.

        Misses are fetched from the device in contiguous batched runs;
        in-flight pages (e.g. being prefetched) are awaited, counting
        as neither a pure hit nor a cold miss.
        """
        if npages < 1:
            raise StorageError(f"npages must be >= 1, got {npages}")
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="access", relaxed=True)
        fid = inode.file_id
        end = first_page + npages
        stats = self.stats
        hits = misses = 0
        waits: Dict[Event, None] = {}  # in-flight fetches, in first-seen order
        page = first_page
        while page < end:
            # Classify the maximal run starting at ``page``.  Fetching
            # an absent run yields, and publishing it can evict or
            # complete anything after it, so every run is classified
            # against the state current when the walk reaches it.
            bounds = self._runs.get(fid, _NONE)
            i = bisect_right(bounds, page)
            stop = bounds[i] if i < len(bounds) and bounds[i] < end else end
            flights = self._inflight.get(fid, _NONE)
            j = bisect_right(flights, page, key=_FIRST)
            if i & 1:
                self._policy.on_access_run(fid, page, stop)
                stats.hits += stop - page
                hits += stop - page
            elif j and flights[j - 1][1] > page:
                waits[flights[j - 1][2]] = None
                stop = min(stop, flights[j - 1][1])
                stats.inflight_waits += stop - page
            else:
                if j < len(flights):
                    stop = min(stop, flights[j][0])
                stats.misses += stop - page
                misses += stop - page
                yield from self._fetch_run(inode, page, stop - page)
            page = stop
        for ev in waits:
            if not ev.processed:
                yield ev
            elif not ev.ok:
                # The fetch we piggybacked on already failed; surface it
                # instead of pretending the page arrived.
                raise ev.value
        # Software delivery cost for every page touched.
        yield self.params.page_touch_cost * npages
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.counter("cache.hit_ratio", "io", stats.hit_ratio)
        return hits, misses

    def _fetch_run(self, inode: "Inode", first_page: int, npages: int):
        """Generator: synchronous device read of a contiguous page run.

        The file's extent map may break the run into several physically
        contiguous fragments; each becomes one device request.
        """
        tracer = self.engine.tracer
        started = self.engine.now if tracer.enabled else 0.0
        done = self._begin_fetch(inode, first_page, npages)
        yield from self._complete_fetch(inode, first_page, npages, done)
        if tracer.enabled:
            tracer.complete("cache.fetch", "io", started,
                            file=inode.file_id, first_page=first_page,
                            npages=npages)

    def _complete_fetch(self, inode: "Inode", first_page: int, npages: int, done: Event):
        """Generator: issue the device reads for an already-registered
        in-flight run and publish the pages when they land.

        A failed device read (media error, offline disk) must unwind the
        in-flight registrations and fail ``done`` — otherwise demand
        readers waiting on the run would block forever — before the
        error propagates to whoever issued the fetch.
        """
        try:
            for ev in self._issue_reads(inode, first_page, npages):
                yield ev
        except StorageError as exc:
            self.stats.fetch_failures += 1
            self._unregister(inode.file_id, first_page, done)
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.instant("cache.fetch_failed", "io",
                               file=inode.file_id, first_page=first_page,
                               npages=npages, error=type(exc).__name__)
            # Background prefetches may have no waiters; the sacrificial
            # callback keeps the engine from raising on the unobserved
            # failure.
            done.add_callback(lambda ev: None)
            done.fail(exc)
            raise
        self._finish_fetch(inode, first_page, npages, done)

    def _begin_fetch(self, inode: "Inode", first_page: int, npages: int) -> Event:
        done = self.engine.event()
        insort(self._inflight.setdefault(inode.file_id, []),
               (first_page, first_page + npages, done), key=_FIRST)
        return done

    def _unregister(self, fid: int, first_page: int, done: Event) -> bool:
        """Drop the in-flight registration of a landed or failed run.

        Returns False, dropping nothing, when the run no longer holds
        it: ``invalidate_file`` dropped the file's registrations (it was
        deleted mid-fetch), and a later fetch may since have registered
        some of the same pages.  Only the run itself and
        ``invalidate_file`` remove a registration.
        """
        flights = self._inflight.get(fid, _NONE)
        i = bisect_left(flights, first_page, key=_FIRST)
        if i == len(flights) or flights[i][2] is not done:
            return False
        del flights[i]
        if not flights:
            del self._inflight[fid]
        return True

    def _issue_reads(self, inode: "Inode", first_page: int, npages: int) -> List[Event]:
        events = []
        for lba, nblocks in inode.physical_runs(
            first_page * self.blocks_per_page, npages * self.blocks_per_page
        ):
            events.append(self.device.submit_range(lba, nblocks, is_write=False))
        return events

    def _finish_fetch(self, inode: "Inode", first_page: int, npages: int, done: Event) -> None:
        # A run whose file was deleted while it was in flight lands
        # unpublished: its pages would belong to a dead file.
        if self._unregister(inode.file_id, first_page, done):
            self._publish_run(inode.file_id, first_page, npages)
        done.succeed()

    def _publish_run(self, fid: int, first_page: int, npages: int,
                     dirty: bool = False) -> None:
        """Insert pages ``[first, first+npages)`` (dirty, for a write)
        exactly as a page-at-a-time cache would: a resident page is
        touched and keeps its state, and each absent page evicts one
        victim first when the cache is full.  One policy call per
        resident or absent stretch of the run."""
        if _sanitizer.active is not None:
            for _ in range(npages):
                self._san_pages.write(self.engine, op="insert", relaxed=True)
        policy = self._policy
        end = first_page + npages
        page = first_page
        while page < end:
            bounds = self._runs.setdefault(fid, [])
            i = bisect_right(bounds, page)
            stop = bounds[i] if i < len(bounds) and bounds[i] < end else end
            victims = None
            if i & 1:
                policy.on_access_run(fid, page, stop)
            else:
                victims = policy.on_insert_run(
                    fid, page, stop, self.params.capacity_pages - self._resident)
                # Add the stretch; runs that touch it merge with it.
                lo, hi = bisect_left(bounds, page), bisect_right(bounds, stop)
                bounds[lo:hi] = (page, stop)[lo & 1:2 - (hi & 1)]
                self._resident += stop - page
            if dirty:
                self._dirty_by_file.setdefault(fid, set()).update(range(page, stop))
            if victims:
                self._evict(victims)
            page = stop

    def _evict(self, victims) -> None:
        """Drop victim runs in order, with a race-detector record and a
        tracer instant per page and an async write-back per dirty one."""
        tracer = self.engine.tracer
        sanitize = _sanitizer.active is not None
        for fid, start, stop in victims:
            bounds = self._runs[fid]
            _remove(bounds, start, stop)
            if not bounds:
                del self._runs[fid]
            self._resident -= stop - start
            self.stats.evictions += stop - start
            dirty = self._dirty_by_file.get(fid, _NONE)
            if not (sanitize or tracer.enabled) and (
                    not dirty or dirty.isdisjoint(range(start, stop))):
                continue
            for page in range(start, stop):
                if sanitize:
                    self._san_pages.write(self.engine, op="evict", relaxed=True)
                was_dirty = page in dirty
                if tracer.enabled:
                    tracer.instant("cache.evict", "io", file=fid, page=page,
                                   dirty=was_dirty)
                if was_dirty:
                    # Lost-update safety: queue an async write-back.
                    dirty.discard(page)
                    inode = self._inode_lookup(fid)
                    if inode is not None:
                        self._writeback_async(inode, [page])
            if fid in self._dirty_by_file and not dirty:
                del self._dirty_by_file[fid]

    def prefetch(self, inode: "Inode", first_page: int, npages: int) -> int:
        """Issue an *asynchronous* fetch for absent pages in the range.

        Returns the number of pages actually scheduled.  The fetch runs
        as a background process; demand reads arriving meanwhile wait
        on the in-flight event rather than duplicating device work.
        """
        fid = inode.file_id
        stop = min(first_page + npages, inode.page_count(self.params.page_size))
        bounds = self._runs.get(fid, _NONE)
        i = bisect_right(bounds, first_page)
        if first_page >= stop or i & 1 and bounds[i] >= stop:
            return 0  # an empty or resident window
        # The absent runs: the window's gaps between resident runs (the
        # boundaries bracketed by -1 and infinity), less fetches in flight.
        absent = _clip([-1, *bounds, math.inf], first_page, stop)
        flights = self._inflight.get(fid, _NONE)
        for start, end, _ in flights[max(0, bisect_right(flights, first_page, key=_FIRST) - 1):]:
            if start >= stop:
                break
            _remove(absent, start, end)
        # Fetch each run in the background.
        tracer = self.engine.tracer
        scheduled = 0
        for run_start, run_end in zip(absent[::2], absent[1::2]):
            run_len = run_end - run_start
            # Register in-flight *now* so demand reads and repeated
            # prefetch calls see these pages immediately.
            if tracer.enabled:
                tracer.instant("cache.prefetch", "io", file=fid,
                               first_page=run_start, npages=run_len)
            done = self._begin_fetch(inode, run_start, run_len)
            self.engine.process(
                self._complete_fetch(inode, run_start, run_len, done),
                name=f"prefetch[{fid}:{run_start}+{run_len}]",
                daemon=True,
            )
            scheduled += run_len
        self.stats.prefetches_issued += scheduled
        return scheduled

    def write_pages(self, inode: "Inode", first_page: int, npages: int, partial_head: bool, partial_tail: bool):
        """Generator: make pages writable and mark them dirty.

        A *partial* first/last page that already holds file data must be
        read before being overwritten (read-modify-write); full-page
        overwrites and appends skip the fetch.
        Returns the number of pages that required a fetch.
        """
        if npages < 1:
            raise StorageError(f"npages must be >= 1, got {npages}")
        fid = inode.file_id
        fetched = 0
        last_page = first_page + npages - 1
        file_pages = inode.page_count(self.params.page_size)
        for page in range(first_page, first_page + npages):
            needs_rmw = (
                (page == first_page and partial_head) or (page == last_page and partial_tail)
            ) and page < file_pages
            # Wait out every fetch of the page: while we wait, an
            # ``invalidate_file`` may drop the fetch and a demand read
            # register the page in a run of its own, which the
            # read-modify-write fetch below must not overwrite.
            ev = self._fetching(fid, page)
            while ev is not None and not ev.processed:
                yield ev
                ev = self._fetching(fid, page)
            if needs_rmw and not bisect_right(self._runs.get(fid, _NONE), page) & 1:
                yield from self._fetch_run(inode, page, 1)
                fetched += 1
            self._publish_run(fid, page, 1, dirty=True)
        yield self.params.page_touch_cost * npages
        return fetched

    def flush_file(self, inode: "Inode"):
        """Generator: issue asynchronous write-back for every dirty page
        of ``inode``; the caller pays only the issue cost.  Returns the
        number of pages queued for write-back."""
        dirty = sorted(self._dirty_by_file.pop(inode.file_id, ()))
        if dirty:
            self._writeback_async(inode, dirty)
            yield self.params.writeback_issue_cost * len(dirty)
        else:
            yield 0.0
        return len(dirty)

    def sync_file(self, inode: "Inode"):
        """Generator: synchronous flush — waits for the device writes.
        Returns the number of pages written."""
        dirty = sorted(self._dirty_by_file.pop(inode.file_id, ()))
        events = []
        for start, length in _contiguous_runs(dirty):
            for lba, nblocks in inode.physical_runs(
                start * self.blocks_per_page, length * self.blocks_per_page
            ):
                events.append(self.device.submit_range(lba, nblocks, is_write=True))
        for ev in events:
            yield ev
        self.stats.writebacks += len(dirty)
        return len(dirty)

    def invalidate_file(self, inode: "Inode") -> int:
        """Drop every resident page of ``inode`` (dirty pages are lost —
        callers flush first) and its in-flight registrations, so a fetch
        landing later publishes nothing.  Returns the number of resident
        pages dropped."""
        fid = inode.file_id
        if _sanitizer.active is not None:
            self._san_pages.write(self.engine, op="invalidate", relaxed=True)
        bounds = self._runs.pop(fid, _NONE)
        for start, stop in zip(bounds[::2], bounds[1::2]):
            self._policy.on_remove_run(fid, start, stop)
        dropped = sum(bounds[1::2]) - sum(bounds[::2])
        self._resident -= dropped
        self._dirty_by_file.pop(fid, None)
        self._inflight.pop(fid, None)
        return dropped

    def drop_pages(self, inode: "Inode", first_page: int,
                   stop_page: float = math.inf) -> int:
        """Drop the resident pages in ``[first_page, stop_page)`` without
        write-back (the truncate path); returns how many."""
        if first_page >= stop_page:
            return 0
        fid = inode.file_id
        bounds = self._runs.get(fid, [])
        dirty = self._dirty_by_file.get(fid, set())
        dropping = _clip(bounds, first_page, stop_page)
        for start, stop in zip(dropping[::2], dropping[1::2]):
            self._policy.on_remove_run(fid, start, stop)
            dirty.difference_update(range(start, stop))
        _remove(bounds, first_page, stop_page)
        if not bounds:
            self._runs.pop(fid, None)
        if not dirty:
            self._dirty_by_file.pop(fid, None)
        dropped = sum(dropping[1::2]) - sum(dropping[::2])
        self._resident -= dropped
        if _sanitizer.active is not None:
            for _ in range(dropped):
                self._san_pages.write(self.engine, op="drop", relaxed=True)
        return dropped

    # -- internals -----------------------------------------------------------

    def _writeback_async(self, inode: "Inode", pages: List[int]) -> None:
        def writer():
            try:
                for start, length in _contiguous_runs(pages):
                    for lba, nblocks in inode.physical_runs(
                        start * self.blocks_per_page, length * self.blocks_per_page
                    ):
                        yield self.device.submit_range(lba, nblocks, is_write=True)
            except StorageError as exc:
                # Background write-back against a failing device: count
                # it rather than crash the daemon; the data stays lost
                # (no payloads in the model), which sync paths surface.
                self.stats.writeback_failures += 1
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant("cache.writeback_failed", "io",
                                   file=inode.file_id,
                                   error=type(exc).__name__)
                return
            self.stats.writebacks += len(pages)

        self.engine.process(writer(), name=f"writeback[{inode.file_id}]", daemon=True)

    # The file system registers a resolver so eviction can map file ids
    # back to inodes for write-back.
    _resolver = None

    def register_inode_resolver(self, resolver) -> None:
        """``resolver(file_id) -> Inode | None``; set by the file system."""
        self._resolver = resolver

    def _inode_lookup(self, file_id: int):
        return self._resolver(file_id) if self._resolver is not None else None


def _contiguous_runs(sorted_pages: List[int]) -> List[Tuple[int, int]]:
    """Group a sorted page list into (start, length) contiguous runs."""
    runs: List[Tuple[int, int]] = []
    if not sorted_pages:
        return runs
    start = sorted_pages[0]
    if sorted_pages[-1] - start == len(sorted_pages) - 1:
        return [(start, len(sorted_pages))]  # one run: no per-page walk
    prev = start
    for p in sorted_pages[1:]:
        if p == prev + 1:
            prev = p
        else:
            runs.append((start, prev - start + 1))
            start = prev = p
    runs.append((start, prev - start + 1))
    return runs
