"""The per-page buffer cache: a differential oracle for
:class:`repro.io.buffercache.BufferCache`.

Before the cache kept its books per page run, it kept them per page:
a ``(file_id, page) -> PageState`` map, a set of resident pages per
file, a ``page -> completion event`` map of in-flight pages per file,
and an eviction policy ordered key by key.  :class:`PageCache` is that
cache, kept verbatim; it publishes a run that would evict, or that
finds one of its pages resident, page by page through ``_insert`` and
``_evict_one``.  :class:`LruPolicy` and :class:`FifoPolicy` are the
per-key policies it ran on; CLOCK is the library's own
:class:`~repro.io.eviction.ClockPolicy` (page-granular in both), given
the per-key run hooks this cache calls.  It shares nothing with the
run-granular cache but the parameters, the statistics and the
write-back grouping (``_contiguous_runs``).
"""

from __future__ import annotations

import enum
from collections import OrderedDict, deque
from itertools import filterfalse, repeat
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import StorageError
from repro.io import eviction
from repro.io.buffercache import CacheParams, CacheStats, _contiguous_runs
from repro.sanitizer import runtime as _sanitizer
from repro.sanitizer.race import shared
from repro.sim import Engine
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.io.filesystem import Inode

__all__ = ["PageCache", "PageState", "LruPolicy", "FifoPolicy",
           "ClockPolicy", "make_eviction_policy"]


#: Stand-in for a file with no resident or in-flight pages.
_NONE = MappingProxyType({})


class PageState(enum.Enum):
    CLEAN = "clean"
    DIRTY = "dirty"


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


class ClockPolicy(eviction.ClockPolicy):
    """The library's CLOCK, with the per-key run hooks above."""

    on_insert_run = EvictionPolicy.on_insert_run
    on_access_run = EvictionPolicy.on_access_run


_POLICIES = {"lru": LruPolicy, "fifo": FifoPolicy, "clock": ClockPolicy}


def make_eviction_policy(name: str) -> EvictionPolicy:
    return _POLICIES[name.lower()]()


class PageCache:
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
        self._pages: Dict[Tuple[int, int], PageState] = {}
        # Per-file indexes kept in lockstep with ``_pages`` so close
        # paths (flush/sync/invalidate) are O(pages of that file), not
        # O(all resident pages) — file closes are on the macro
        # experiments' hot path.
        self._file_pages: Dict[int, set] = {}
        self._dirty_by_file: Dict[int, set] = {}
        self._policy = make_eviction_policy(self.params.eviction)
        # file_id -> {page: completion event of the fetch bringing it in}.
        self._inflight: Dict[int, Dict[int, Event]] = {}
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
        engine.metrics.gauge("cache.resident_pages", lambda: len(self._pages))

    # -- queries ---------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="resident_pages")
        return len(self._pages)

    def is_resident(self, inode: "Inode", page: int) -> bool:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="is_resident")
        return (inode.file_id, page) in self._pages

    def is_dirty(self, inode: "Inode", page: int) -> bool:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="is_dirty")
        return self._pages.get((inode.file_id, page)) is PageState.DIRTY

    def is_inflight(self, inode: "Inode", page: int) -> bool:
        return page in self._inflight.get(inode.file_id, _NONE)

    def dirty_pages_of(self, inode: "Inode") -> List[int]:
        return list(self._dirty_by_file.get(inode.file_id, ()))

    def resident_pages_of(self, inode: "Inode") -> List[int]:
        return list(self._file_pages.get(inode.file_id, ()))

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
        resident = self._file_pages.get(fid)
        if resident is not None and resident.issuperset(range(first_page, end)):
            # The whole range is resident (the warm sequential-read case
            # that dominates replay workloads): one hit run, no walk.
            self._policy.on_access_run(zip(repeat(fid), range(first_page, end)))
            stats.hits += npages
            hits = npages
            page = end
        while page < end:
            # Classify the maximal run starting at ``page``.  Fetching
            # an absent run yields, and publishing it can evict or
            # complete anything after it, so every run is classified
            # against the state current when the walk reaches it.
            resident = self._file_pages.get(fid, _NONE)
            inflight = self._inflight.get(fid, _NONE)
            span = range(page, end)
            if page in resident:
                stop = next(filterfalse(resident.__contains__, span), end)
                self._policy.on_access_run(zip(repeat(fid), range(page, stop)))
                stats.hits += stop - page
                hits += stop - page
            elif page in inflight:
                stop = next(filterfalse(inflight.__contains__, span), end)
                stop = next(filter(resident.__contains__, range(page, stop)), stop)
                waits.update(dict.fromkeys(map(inflight.get, range(page, stop))))
                stats.inflight_waits += stop - page
            else:
                stop = next(filter(resident.__contains__, span), end)
                stop = next(filter(inflight.__contains__, range(page, stop)), stop)
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
            self._unregister(inode.file_id, first_page, npages, done)
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
        inflight = self._inflight.get(inode.file_id)
        if inflight is None:
            inflight = self._inflight[inode.file_id] = {}
        inflight.update(zip(range(first_page, first_page + npages), repeat(done)))
        return done

    def _unregister(self, fid: int, first_page: int, npages: int,
                    done: Event) -> bool:
        """Drop the in-flight registrations of a landed or failed run.

        Returns False, dropping nothing, when the run no longer holds
        them: ``invalidate_file`` dropped the file's registrations (it
        was deleted mid-fetch), and a later fetch may since have
        registered some of the same pages.  Only the run itself and
        ``invalidate_file`` remove a registration, so a run holds all of
        its pages or none, and its first page decides.
        """
        inflight = self._inflight.get(fid)
        if inflight is None or inflight.get(first_page) is not done:
            return False
        deque(map(inflight.pop, range(first_page, first_page + npages)),
              maxlen=0)
        if not inflight:
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
        if self._unregister(inode.file_id, first_page, npages, done):
            self._publish_run(inode.file_id, first_page, npages)
        done.succeed()

    def _publish_run(self, fid: int, first_page: int, npages: int) -> None:
        """Insert a run of clean pages: one bulk step when the run is
        wholly absent and fits without eviction, else page by page."""
        span = range(first_page, first_page + npages)
        resident = self._file_pages.get(fid)
        if (len(self._pages) + npages > self.params.capacity_pages
                or (resident is not None and not resident.isdisjoint(span))):
            for page in span:
                self._insert((fid, page), PageState.CLEAN)
            return
        if _sanitizer.active is not None:
            for _ in span:
                self._san_pages.write(self.engine, op="insert", relaxed=True)
        # One int object per page, shared by its key and the file index.
        pages = list(span)
        keys = list(zip(repeat(fid), pages))
        self._pages.update(zip(keys, repeat(PageState.CLEAN)))
        if resident is None:
            self._file_pages[fid] = set(pages)
        else:
            resident.update(pages)
        self._policy.on_insert_run(keys)

    def prefetch(self, inode: "Inode", first_page: int, npages: int) -> int:
        """Issue an *asynchronous* fetch for absent pages in the range.

        Returns the number of pages actually scheduled.  The fetch runs
        as a background process; demand reads arriving meanwhile wait
        on the in-flight event rather than duplicating device work.
        """
        if npages < 1:
            return 0
        fid = inode.file_id
        stop = min(first_page + npages, inode.page_count(self.params.page_size))
        pages = list(filterfalse(self._file_pages.get(fid, _NONE).__contains__,
                                 range(first_page, stop)))
        inflight = self._inflight.get(fid)
        if inflight is not None:
            pages = list(filterfalse(inflight.__contains__, pages))
        if not pages:
            return 0
        # Break into contiguous runs and fetch each in the background.
        tracer = self.engine.tracer
        for run_start, run_len in _contiguous_runs(pages):
            # Register in-flight *now* so demand reads and repeated
            # prefetch calls see these pages immediately.
            if tracer.enabled:
                tracer.instant("cache.prefetch", "io", file=inode.file_id,
                               first_page=run_start, npages=run_len)
            done = self._begin_fetch(inode, run_start, run_len)
            self.engine.process(
                self._complete_fetch(inode, run_start, run_len, done),
                name=f"prefetch[{inode.file_id}:{run_start}+{run_len}]",
                daemon=True,
            )
        self.stats.prefetches_issued += len(pages)
        return len(pages)

    def write_pages(self, inode: "Inode", first_page: int, npages: int, partial_head: bool, partial_tail: bool):
        """Generator: make pages writable and mark them dirty.

        A *partial* first/last page that already holds file data must be
        read before being overwritten (read-modify-write); full-page
        overwrites and appends skip the fetch.
        Returns the number of pages that required a fetch.
        """
        if npages < 1:
            raise StorageError(f"npages must be >= 1, got {npages}")
        fetched = 0
        last_page = first_page + npages - 1
        file_pages = inode.page_count(self.params.page_size)
        for page in range(first_page, first_page + npages):
            key = (inode.file_id, page)
            needs_rmw = (
                (page == first_page and partial_head) or (page == last_page and partial_tail)
            ) and page < file_pages
            # Wait out every fetch of the page: while we wait, an
            # ``invalidate_file`` may drop the fetch and a demand read
            # register the page in a run of its own, which the
            # read-modify-write fetch below must not overwrite.
            ev = self._inflight.get(inode.file_id, _NONE).get(page)
            while ev is not None and not ev.processed:
                yield ev
                ev = self._inflight.get(inode.file_id, _NONE).get(page)
            if key not in self._pages and needs_rmw:
                yield from self._fetch_run(inode, page, 1)
                fetched += 1
            self._insert(key, PageState.DIRTY)
        yield self.params.page_touch_cost * npages
        return fetched

    def flush_file(self, inode: "Inode"):
        """Generator: issue asynchronous write-back for every dirty page
        of ``inode``; the caller pays only the issue cost.  Returns the
        number of pages queued for write-back."""
        dirty = sorted(self.dirty_pages_of(inode))
        for page in dirty:
            self._pages[(inode.file_id, page)] = PageState.CLEAN
        self._dirty_by_file.pop(inode.file_id, None)
        if dirty:
            self._writeback_async(inode, dirty)
            yield self.params.writeback_issue_cost * len(dirty)
        else:
            yield 0.0
        return len(dirty)

    def sync_file(self, inode: "Inode"):
        """Generator: synchronous flush — waits for the device writes.
        Returns the number of pages written."""
        dirty = sorted(self.dirty_pages_of(inode))
        for page in dirty:
            self._pages[(inode.file_id, page)] = PageState.CLEAN
        self._dirty_by_file.pop(inode.file_id, None)
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
        victims = [(fid, p) for p in self._file_pages.get(fid, ())]
        for key in victims:
            del self._pages[key]
            self._policy.on_remove(key)
        self._file_pages.pop(fid, None)
        self._dirty_by_file.pop(fid, None)
        self._inflight.pop(fid, None)
        return len(victims)

    def drop_page(self, inode: "Inode", page: int) -> None:
        """Drop one resident page without writeback (truncate path)."""
        key = (inode.file_id, page)
        if _sanitizer.active is not None:
            self._san_pages.write(self.engine, op="drop", relaxed=True)
        del self._pages[key]
        self._policy.on_remove(key)
        self._drop_from_indexes(key)

    def _drop_from_indexes(self, key: Tuple[int, int]) -> None:
        fid, page = key
        pages = self._file_pages.get(fid)
        if pages is not None:
            pages.discard(page)
            if not pages:
                del self._file_pages[fid]
        dirty = self._dirty_by_file.get(fid)
        if dirty is not None:
            dirty.discard(page)
            if not dirty:
                del self._dirty_by_file[fid]

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

    def _insert(self, key: Tuple[int, int], state: PageState) -> None:
        if _sanitizer.active is not None:
            self._san_pages.write(self.engine, op="insert", relaxed=True)
        if key in self._pages:
            # Upgrade clean → dirty, never silently downgrade.
            if state is PageState.DIRTY or self._pages[key] is PageState.CLEAN:
                self._pages[key] = state
                if state is PageState.DIRTY:
                    self._dirty_by_file.setdefault(key[0], set()).add(key[1])
            self._policy.on_access(key)
            return
        while len(self._pages) >= self.params.capacity_pages:
            self._evict_one()
        self._pages[key] = state
        self._file_pages.setdefault(key[0], set()).add(key[1])
        if state is PageState.DIRTY:
            self._dirty_by_file.setdefault(key[0], set()).add(key[1])
        self._policy.on_insert(key)

    def _evict_one(self) -> None:
        if _sanitizer.active is not None:
            self._san_pages.write(self.engine, op="evict", relaxed=True)
        victim_key = self._policy.victim()
        victim_state = self._pages.pop(victim_key)
        self._drop_from_indexes(victim_key)
        self.stats.evictions += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("cache.evict", "io", file=victim_key[0],
                           page=victim_key[1],
                           dirty=victim_state is PageState.DIRTY)
        if victim_state is PageState.DIRTY:
            # Lost-update safety: queue an async write-back for the victim.
            file_id, page = victim_key
            inode = self._inode_lookup(file_id)
            if inode is not None:
                self._writeback_async(inode, [page])

    # The file system registers a resolver so eviction can map file ids
    # back to inodes for write-back.
    _resolver = None

    def register_inode_resolver(self, resolver) -> None:
        """``resolver(file_id) -> Inode | None``; set by the file system."""
        self._resolver = resolver

    def _inode_lookup(self, file_id: int):
        return self._resolver(file_id) if self._resolver is not None else None
