"""Run-granular cache books: the same schedule as a page-at-a-time
cache.

The oracle, :class:`PerPageCache`, is the cache as it was before it kept
its books per page run (:mod:`tests.io.oracle`, a page map and per-key
eviction order), further reduced to classify, touch, await and publish
one page at a time.  Random schedules of same-instant demand readers,
prefetches, writes, flushes, syncs, invalidations, page drops and
truncations, under every eviction policy, with capacities small enough
to evict in the middle of a run and an optional media error, must
resume every actor at the same instant in the same order with the same
result, and leave the same resident and dirty pages, the same victims
in the same order, the same device traffic and the same counters;
under the race detector and a tracer they must also produce the same
summary and the same eviction instants.
"""

import gc
import sys
from collections import Counter
from dataclasses import asdict
from typing import List, Optional

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import StorageError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.io import CacheParams, FileSystem
from repro.io.buffercache import BufferCache
from repro.io.eviction import ClockPolicy, LruPolicy
from repro.io.filesystem import Inode
from repro.obs import Tracer
from repro.sanitizer import runtime as _sanitizer
from repro.sanitizer import shared
from repro.sim import Engine
from repro.sim.event import Event
from repro.storage import Disk, DiskGeometry

from tests.conftest import detector_or_none
from tests.io.conftest import keys
from tests.io.oracle import PageCache, PageState

GEO = DiskGeometry(cylinders=200, heads=2, sectors_per_track=16)
FILES = 3
FILE_PAGES = 24


class PerPageCache(PageCache):
    """Oracle: per-page ``access``, ``_finish_fetch`` and ``prefetch``.

    Every page is classified on its own, every hit touches the policy
    on its own, every in-flight page adds its fetch's event to the wait
    list, and every fetched page still registered to its fetch (not
    dropped by an invalidate) is published by its own ``_insert``.
    """

    def _fetching(self, fid: int, page: int) -> Optional[Event]:
        return self._inflight.get(fid, {}).get(page)

    def access(self, inode, first_page, npages):
        if npages < 1:
            raise StorageError(f"npages must be >= 1, got {npages}")
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="access", relaxed=True)
        hits = misses = 0
        run_start: Optional[int] = None
        waits: List[Event] = []

        def flush_run(upto: int):
            nonlocal run_start
            if run_start is not None:
                yield from self._fetch_run(inode, run_start, upto - run_start)
                run_start = None

        for page in range(first_page, first_page + npages):
            key = (inode.file_id, page)
            if key in self._pages or self._fetching(*key) is not None:
                yield from flush_run(page)
                if key in self._pages:
                    self._policy.on_access(key)
                    self.stats.hits += 1
                    hits += 1
                    continue
                if self._fetching(*key) is not None:
                    self.stats.inflight_waits += 1
                    waits.append(self._fetching(*key))
                    continue
            if run_start is None:
                run_start = page
            self.stats.misses += 1
            misses += 1
        yield from flush_run(first_page + npages)
        for ev in waits:
            if not ev.processed:
                yield ev
            elif not ev.ok:
                raise ev.value
        yield self.engine.timeout(self.params.page_touch_cost * npages)
        return hits, misses

    def _finish_fetch(self, inode, first_page, npages, done):
        # Publish only the pages still registered to this fetch (an
        # invalidate drops a deleted file's registrations).
        fid = inode.file_id
        inflight = self._inflight.get(fid, {})
        for page in range(first_page, first_page + npages):
            if inflight.get(page) is done:
                del inflight[page]
                self._insert((fid, page), PageState.CLEAN)
        if fid in self._inflight and not inflight:
            del self._inflight[fid]
        done.succeed()

    def prefetch(self, inode, first_page, npages):
        if npages < 1:
            return 0
        max_page = inode.page_count(self.params.page_size)
        fid = inode.file_id
        pages = [p for p in range(first_page, first_page + npages)
                 if p < max_page and (fid, p) not in self._pages
                 and self._fetching(fid, p) is None]
        if not pages:
            return 0
        runs = []
        start = prev = pages[0]
        for p in pages[1:]:
            if p == prev + 1:
                prev = p
            else:
                runs.append((start, prev - start + 1))
                start = prev = p
        runs.append((start, prev - start + 1))
        for run_start, run_len in runs:
            done = self._begin_fetch(inode, run_start, run_len)
            self.engine.process(
                self._complete_fetch(inode, run_start, run_len, done),
                name=f"prefetch[{fid}:{run_start}+{run_len}]", daemon=True)
        self.stats.prefetches_issued += len(pages)
        return len(pages)

    def drop_pages(self, inode, first_page, stop_page=None):
        """The truncate path as it was: one ``drop_page`` per resident
        page in the range."""
        dropped = 0
        for page in self.resident_pages_of(inode):
            if page >= first_page and (stop_page is None or page < stop_page):
                self.drop_page(inode, page)
                dropped += 1
        return dropped


def _files(disk) -> List[Inode]:
    """``FILES`` files of ``FILE_PAGES`` pages, each split over two
    extents interleaved with the other files' (so runs fragment)."""
    blocks = 4096 // disk.block_size
    half = FILE_PAGES // 2 * blocks
    inodes = []
    for i in range(FILES):
        inode = Inode(f"/f{i}", disk.block_size, file_id=i + 1)
        inode.add_extent(i * half, half)
        inode.add_extent((FILES + i) * half, half)
        inode.size_bytes = FILE_PAGES * 4096
        inodes.append(inode)
    return inodes


def _run(cache_cls, scenario, instrumented: bool = False, prelude=None):
    """Run one schedule; returns everything the two caches must agree on.

    ``instrumented`` runs it under a race detector and a tracer.
    ``prelude(cache, inodes)``, if given, runs after the set-up and
    before the actors start."""
    policy, capacity, actors, media_at = scenario
    with detector_or_none(instrumented) as det:
        tracer = Tracer(categories=["io"]) if instrumented else None
        engine = Engine(tracer=tracer)
        injector = None
        if media_at is not None:
            injector = FaultInjector(engine, FaultPlan(seed=0, specs=(
                FaultSpec(kind="disk.media_error", target="d0",
                          start=media_at, probability=1.0, max_hits=1),)))
        disk = Disk(engine, geometry=GEO, name="d0", injector=injector)
        device_log = []

        def recording(lba, nblocks, is_write=False, _submit=disk.submit_range):
            device_log.append((engine.now, lba, nblocks, is_write))
            return _submit(lba, nblocks, is_write=is_write)

        disk.submit_range = recording
        cache = cache_cls(engine, disk,
                          CacheParams(capacity_pages=capacity, eviction=policy))
        inodes = _files(disk)
        cache.register_inode_resolver({i.file_id: i for i in inodes}.get)
        victims = []
        if isinstance(cache, BufferCache):
            def evict(runs, _evict=cache._evict):
                victims.extend((engine.now, (fid, page)) for fid, start, stop
                               in runs for page in range(start, stop))
                return _evict(runs)

            cache._evict = evict
        else:
            def victim(_pick=cache._policy.victim):
                key = _pick()
                victims.append((engine.now, key))
                return key

            cache._policy.victim = victim
        log = []
        var = shared("cache.schedule")

        def actor(name, ops):
            for index, op in enumerate(ops):
                kind, args = op[0], op[1:]
                try:
                    result = yield from _apply(engine, cache, inodes, kind, args)
                except StorageError as exc:
                    result = (type(exc).__name__, str(exc))
                log.append((engine.now, name, index, result))
                var.write(engine)

        if prelude is not None:
            prelude(cache, inodes)
        for i, ops in enumerate(actors):
            engine.process(actor(f"a{i}", ops))
        engine.run()
        assert not cache._inflight
        if isinstance(cache, BufferCache):
            _check_books(cache)
        evict_instants = None
        if tracer is not None:
            evict_instants = [(e.start, e.attrs) for e in tracer.events
                              if e.name == "cache.evict"]
        return dict(
            log=log, now=engine.now,
            resident={i.file_id: sorted(cache.resident_pages_of(i))
                      for i in inodes},
            dirty={i.file_id: sorted(cache.dirty_pages_of(i)) for i in inodes},
            resident_pages=cache.resident_pages, victims=victims,
            device_log=device_log, stats=asdict(cache.stats),
            order=_order(cache._policy),
            races=det.summary() if det is not None else None,
            evict_instants=evict_instants)


def _order(policy) -> list:
    """A policy's order, key by key, next victim first (with CLOCK's
    reference bits)."""
    if isinstance(policy, ClockPolicy):
        return list(policy._ring.items())
    return keys(policy)


def _check_books(cache: BufferCache) -> None:
    """The run books agree with one another: boundaries strictly
    increasing, the resident count their total, dirty pages resident,
    and the policy's runs exactly the resident pages, each file's runs
    sorted by first page."""
    resident = set()
    for fid, bounds in cache._runs.items():
        assert bounds and len(bounds) % 2 == 0
        assert all(a < b for a, b in zip(bounds, bounds[1:])), bounds
        resident.update((fid, page) for start, stop
                        in zip(bounds[::2], bounds[1::2])
                        for page in range(start, stop))
    assert cache._resident == len(resident) <= cache.params.capacity_pages
    for fid, dirty in cache._dirty_by_file.items():
        assert dirty and {(fid, page) for page in dirty} <= resident
    ordered = keys(cache._policy)
    assert len(ordered) == len(set(ordered)) and set(ordered) == resident
    if isinstance(cache._policy, LruPolicy):
        ring = []
        run = cache._policy._ring.next
        while run is not cache._policy._ring:
            assert run.start < run.stop
            ring.append(run)
            run = run.next
        for fid, runs in cache._policy._files.items():
            assert runs == sorted((r for r in ring if r.fid == fid),
                                  key=lambda r: r.start)


def _apply(engine, cache, inodes, kind, args):
    """Generator: one scheduled operation; returns its result."""
    if kind == "pause":
        yield engine.timeout(args[0])
        return None
    inode = inodes[args[0]]
    if kind == "read":
        return (yield from cache.access(inode, *_clip(*args[1:])))
    if kind == "prefetch":
        return cache.prefetch(inode, args[1], args[2])
    if kind == "write":
        first, npages = _clip(args[1], args[2])
        return (yield from cache.write_pages(inode, first, npages, *args[3:]))
    if kind == "flush":
        return (yield from cache.flush_file(inode))
    if kind == "sync":
        return (yield from cache.sync_file(inode))
    if kind == "invalidate":
        return cache.invalidate_file(inode)
    if kind == "truncate":
        # The cache's half of ``FileSystem.truncate``: drop every
        # resident page from the new end of file on.
        return cache.drop_pages(inode, args[1])
    assert kind == "drop"
    if args[1] not in cache.resident_pages_of(inode):
        return False
    return cache.drop_pages(inode, args[1], args[1] + 1) == 1


def _clip(first, npages):
    return first, min(npages, FILE_PAGES - first)


_file = st.integers(0, FILES - 1)
_page = st.integers(0, FILE_PAGES - 1)
_npages = st.integers(1, 12)
_op = st.one_of(
    st.tuples(st.just("read"), _file, _page, _npages),
    st.tuples(st.just("read"), _file, _page, _npages),  # reads twice as often
    st.tuples(st.just("prefetch"), _file, _page, st.integers(1, 16)),
    st.tuples(st.just("write"), _file, _page, _npages, st.booleans(),
              st.booleans()),
    st.tuples(st.just("flush"), _file),
    st.tuples(st.just("sync"), _file),
    st.tuples(st.just("invalidate"), _file),
    st.tuples(st.just("drop"), _file, _page),
    st.tuples(st.just("truncate"), _file, _page),
    st.tuples(st.just("pause"), st.sampled_from([0.0, 2e-4, 3e-3])),
)
_scenario = st.tuples(
    st.sampled_from(["lru", "fifo", "clock"]),
    st.integers(3, 40),                                    # capacity
    st.lists(st.lists(_op, min_size=1, max_size=6),        # actors
             min_size=1, max_size=4),
    st.one_of(st.none(), st.sampled_from([0.0, 2e-3, 8e-3])),  # media error
)


# A write waiting on a prefetch's page while a reader invalidates the
# file and fetches that page again in a longer run: the write's
# read-modify-write must wait out the new run too, not overwrite it.
_REFETCHED_UNDER_A_WRITE = [
    [("prefetch", 0, 6, 1), ("write", 0, 0, 7, False, True)],
    [("read", 0, 0, 1), ("invalidate", 0), ("read", 0, 6, 2)],
]

# ``(capacity, actors)`` shapes that exercise the run books' edges,
# each pinned under every policy.
_RUN_SHAPES = [
    # A hit in the middle of an older run, then a publish that evicts
    # the pages on both sides of it.
    (20, [[("read", 0, 0, 12), ("read", 1, 0, 4), ("read", 0, 4, 4),
           ("read", 1, 8, 12)]]),
    # A publish that evicts all of one run and part of another.
    (10, [[("read", 0, 0, 4), ("read", 1, 0, 4), ("read", 2, 0, 8)]]),
    # A run longer than the capacity evicts its own first pages.
    (5, [[("read", 0, 0, 12)]]),
    # Dirty pages in the middle of a run, evicted with it.
    (10, [[("write", 0, 2, 2, False, False), ("read", 0, 0, 8),
           ("read", 1, 0, 10)]]),
    # Two files' runs interleaved in recency: f0 [0, 2) and f0 [2, 4)
    # are contiguous pages but not neighbours in the order.
    (8, [[("read", 0, 0, 2), ("read", 1, 2, 2), ("read", 0, 2, 2),
          ("read", 1, 0, 2), ("read", 2, 0, 5)]]),
]


def _on_every_policy(shapes):
    """``@example`` each ``(capacity, actors)`` shape under every policy."""
    def decorate(test):
        for policy in ("lru", "fifo", "clock"):
            for capacity, actors in shapes:
                test = example((policy, capacity, actors, None))(test)
        return test
    return decorate


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
@example(("lru", 3, _REFETCHED_UNDER_A_WRITE, None))
@example(("lru", 3, [_REFETCHED_UNDER_A_WRITE[0],
                     _REFETCHED_UNDER_A_WRITE[1] + [("read", 0, 0, 7)]],
          None))
# A read registers a run over a written page and its successor while
# the write's read-modify-write fetch of the first is in flight: the
# write must still wait for the successor.
@example(("lru", 3, [[("flush", 0), ("invalidate", 0)],
                     [("read", 0, 0, 1), ("read", 0, 0, 3)],
                     [("write", 0, 1, 2, True, False)]], None))
@_on_every_policy(_RUN_SHAPES)
def test_run_bookkeeping_matches_per_page_cache(scenario):
    assert _run(BufferCache, scenario) == _run(PerPageCache, scenario)
    assert (_run(BufferCache, scenario, instrumented=True)
            == _run(PerPageCache, scenario, instrumented=True))


def test_mid_run_eviction_and_inflight_overlap_match():
    """A fetched run larger than the free space evicts in the middle of
    the run, and a reader that finds part of its range in flight waits
    once per fetch."""
    actors = [
        [("prefetch", 0, 0, 8), ("read", 0, 0, 12)],
        [("read", 0, 4, 8), ("read", 1, 0, 10), ("read", 0, 0, 6)],
        [("write", 0, 2, 3, True, True), ("flush", 0)],
    ]
    for policy in ("lru", "fifo", "clock"):
        scenario = (policy, 10, actors, None)
        result = _run(BufferCache, scenario)
        assert result == _run(PerPageCache, scenario)
        assert result["stats"]["evictions"] > 0
        assert result["stats"]["inflight_waits"] > 0


def test_resident_page_with_a_fetch_in_flight_matches():
    """A page can be resident while a fetch for it is still in flight:
    a writer woken by a landed fetch can find the page evicted and
    prefetched again by same-instant processes that ran first, and
    dirties it anyway.  Readers count that page as a hit, and the
    landing fetch touches it, still dirty, instead of inserting it."""

    def prelude(cache, inodes):
        engine = cache.engine
        engine.run_process(cache.write_pages(inodes[0], 6, 1, False, False))
        done = cache._begin_fetch(inodes[0], 4, 4)  # pages 4-7, 6 resident
        engine.process(cache._complete_fetch(inodes[0], 4, 4, done),
                       daemon=True)

    actors = [[("read", 0, 3, 6)], [("read", 0, 5, 2), ("read", 0, 4, 4)]]
    for policy in ("lru", "fifo", "clock"):
        for capacity in (4, 16):
            scenario = (policy, capacity, actors, None)
            result = _run(BufferCache, scenario, prelude=prelude)
            assert result == _run(PerPageCache, scenario, prelude=prelude)
            first_reads = {name: got for _, name, index, got in result["log"]
                           if index == 0}
            assert first_reads["a1"] == (1, 0)  # page 5 awaited, 6 hit


class CountingLru(LruPolicy):
    """LRU that counts calls to its public hooks, whichever exist."""

    HOOKS = ("on_insert_run", "on_access_run", "on_remove_run", "evict")

    def __init__(self) -> None:
        super().__init__()
        self.calls = Counter()
        for name in self.HOOKS:
            method = getattr(self, name, None)
            if method is not None:
                setattr(self, name, self._counted(name, method))

    def _counted(self, name, method):
        def counted(*args):
            self.calls[name] += 1
            return method(*args)
        return counted


def test_policy_calls_per_run_do_not_grow_with_the_run():
    """Publishing an N-page fetch and hitting an all-resident N-page
    range each cost O(1) eviction-policy calls, not one per page."""
    for npages in (4, 64):
        engine = Engine()
        fs = FileSystem(engine, Disk(engine),
                        cache_params=CacheParams(capacity_pages=256))
        engine.run_process(fs.create("/f", size_bytes=npages * 4096))
        inode = fs.stat("/f")
        policy = fs.cache._policy = CountingLru()

        assert engine.run_process(fs.cache.access(inode, 0, npages)) == (0, npages)
        publish = sum(policy.calls.values())
        policy.calls.clear()
        assert engine.run_process(fs.cache.access(inode, 0, npages)) == (npages, 0)
        hit = sum(policy.calls.values())

        assert keys(policy) == [(inode.file_id, p) for p in range(npages)]
        assert publish <= 2, (npages, publish)
        assert hit <= 2, (npages, hit)


def test_books_hold_one_entry_per_run():
    """A fetched run is one entry in each book, whatever its length: one
    pair of boundaries in the file's resident list and one run in the
    policy's order (per-page entries cost memory on large caches)."""
    engine = Engine()
    fs = FileSystem(engine, Disk(engine))
    engine.run_process(fs.create("/f", size_bytes=32 * 4096))
    inode = fs.stat("/f")
    engine.run_process(fs.cache.access(inode, 0, 32))
    assert fs.cache._runs == {inode.file_id: [0, 32]}
    assert fs.cache.resident_pages == 32
    policy = fs.cache._policy
    assert [(r.start, r.stop) for r in policy._files[inode.file_id]] == [(0, 32)]
    assert policy._ring.next is policy._ring.prev is policy._files[inode.file_id][0]


def _calls(fn) -> int:
    """Python calls made by ``fn()``, counted with ``sys.setprofile``.
    The cyclic collector is off meanwhile: a collection would count the
    calls of ``gc.callbacks`` (hypothesis installs one) and of the
    finalizers of other tests' garbage."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def test_run_operations_call_budget():
    """Host-independent guard on the books' cost per run: Python calls
    made by a warm read (16), the publish of a wholly absent run (6), a
    prefetch over a resident window (3) and a publish that evicts one
    whole victim run (10), counted with ``sys.setprofile`` (as
    ``tests/storage/test_raid.py::test_striped_fragment_call_budget``
    counts the striped path's).  Each is the same at 4 and at 256
    pages; the per-page cache evicted page by page, 22 calls at 4 pages
    and 1,282 at 256."""
    budgets = []
    with detector_or_none(False):  # the race detector adds its own calls
        for npages in (4, 256):
            engine = Engine()
            fs = FileSystem(engine, Disk(engine),
                            cache_params=CacheParams(capacity_pages=npages))
            engine.run_process(fs.create("/a", size_bytes=npages * 4096))
            engine.run_process(fs.create("/b", size_bytes=npages * 4096))
            a, b = fs.stat("/a"), fs.stat("/b")
            cache = fs.cache
            publish = _calls(lambda: cache._publish_run(a.file_id, 0, npages))
            warm = _calls(lambda: engine.run_process(cache.access(a, 0, npages)))
            prefetch = _calls(lambda: cache.prefetch(a, 0, npages))
            evict = _calls(lambda: cache._publish_run(b.file_id, 0, npages))
            assert cache.stats.evictions == npages
            assert cache.resident_pages_of(b) == list(range(npages))
            budgets.append((publish, warm, prefetch, evict))
    assert budgets[0] == budgets[1], budgets
