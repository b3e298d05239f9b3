"""Run-granular cache bookkeeping: the same schedule as a page-at-a-time
cache.

The oracle, :class:`PerPageCache`, classifies, touches, awaits and
publishes one page at a time, the way the cache did before it kept its
books per page run.  Random schedules of same-instant demand readers,
prefetches, writes, flushes, syncs, invalidations and page drops, under
every eviction policy, with capacities small enough to evict in the
middle of a run and an optional media error, must resume every actor
at the same instant in the same order with the same result, and leave
the same resident and dirty pages, the same victims in the same order,
the same device traffic and the same counters; under the race detector
they must also produce the same summary.
"""

from collections import Counter
from dataclasses import asdict
from typing import List, Optional

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import StorageError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.io import CacheParams, FileSystem
from repro.io.buffercache import BufferCache, PageState
from repro.io.eviction import LruPolicy
from repro.io.filesystem import Inode
from repro.sanitizer import runtime as _sanitizer
from repro.sanitizer import shared
from repro.sim import Engine
from repro.sim.event import Event
from repro.storage import Disk, DiskGeometry

from tests.conftest import detector_or_none

GEO = DiskGeometry(cylinders=200, heads=2, sectors_per_track=16)
FILES = 3
FILE_PAGES = 24


class PerPageCache(BufferCache):
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


def _run(cache_cls, scenario, detector: bool = False, prelude=None):
    """Run one schedule; returns everything the two caches must agree on.

    ``prelude(cache, inodes)``, if given, runs after the set-up and
    before the actors start."""
    policy, capacity, actors, media_at = scenario
    with detector_or_none(detector) as det:
        engine = Engine()
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
        policy_state = {name: list(order.items())
                        for name, order in vars(cache._policy).items()
                        if name != "victim"}
        return (log, engine.now, sorted(cache._pages.items()),
                {fid: sorted(pages) for fid, pages in cache._dirty_by_file.items()},
                victims, device_log, asdict(cache.stats), policy_state,
                det.summary() if det is not None else None)


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
    assert kind == "drop"
    if args[1] not in cache.resident_pages_of(inode):
        return False
    cache.drop_page(inode, args[1])
    return True


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


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
@example(("lru", 3, _REFETCHED_UNDER_A_WRITE, None))
@example(("lru", 3, [_REFETCHED_UNDER_A_WRITE[0],
                     _REFETCHED_UNDER_A_WRITE[1] + [("read", 0, 0, 7)]],
          None))
def test_run_bookkeeping_matches_per_page_cache(scenario):
    assert _run(BufferCache, scenario) == _run(PerPageCache, scenario)
    assert (_run(BufferCache, scenario, detector=True)
            == _run(PerPageCache, scenario, detector=True))


def test_mid_run_eviction_and_inflight_overlap_match():
    """A fetched run larger than the free space evicts page by page, and
    a reader that finds part of its range in flight waits once per fetch."""
    actors = [
        [("prefetch", 0, 0, 8), ("read", 0, 0, 12)],
        [("read", 0, 4, 8), ("read", 1, 0, 10), ("read", 0, 0, 6)],
        [("write", 0, 2, 3, True, True), ("flush", 0)],
    ]
    for policy in ("lru", "fifo", "clock"):
        scenario = (policy, 10, actors, None)
        result = _run(BufferCache, scenario)
        assert result == _run(PerPageCache, scenario)
        assert result[6]["evictions"] > 0
        assert result[6]["inflight_waits"] > 0


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
            first_reads = {name: got for _, name, index, got in result[0]
                           if index == 0}
            assert first_reads["a1"] == (1, 0)  # page 5 awaited, 6 hit


class CountingLru(LruPolicy):
    """LRU that counts calls to its public hooks, whichever exist."""

    HOOKS = ("on_insert", "on_access", "on_remove", "on_insert_run",
             "on_access_run", "victim")

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

        assert list(policy._order) == [(inode.file_id, p) for p in range(npages)]
        assert publish <= 2, (npages, publish)
        assert hit <= 2, (npages, hit)


def test_page_map_and_policy_share_key_tuples():
    """One key tuple per resident page, held by both the page map and
    the policy (a second copy per page costs memory on large caches)."""
    engine = Engine()
    fs = FileSystem(engine, Disk(engine))
    engine.run_process(fs.create("/f", size_bytes=32 * 4096))
    inode = fs.stat("/f")
    engine.run_process(fs.cache.access(inode, 0, 32))
    ordered = list(fs.cache._policy._order)
    assert [id(k) for k in ordered] == [id(k) for k in fs.cache._pages]
