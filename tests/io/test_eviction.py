"""Tests for cache eviction policies."""

import pytest

from repro.errors import StorageError
from repro.io import CacheParams, FileSystem
from repro.io.eviction import (
    ClockPolicy,
    EVICTION_POLICIES,
    FifoPolicy,
    LruPolicy,
    make_eviction_policy,
)
from repro.io.prefetch import NoPrefetch
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry

from tests.io.conftest import keys, run


# ---------------------------------------------------------------------------
# Policy units
# ---------------------------------------------------------------------------

def test_factory():
    assert set(EVICTION_POLICIES) == {"lru", "fifo", "clock"}
    assert isinstance(make_eviction_policy("LRU"), LruPolicy)
    with pytest.raises(StorageError):
        make_eviction_policy("random-replacement")
    with pytest.raises(StorageError):
        CacheParams(eviction="arc")


def fill(policy, pages):
    """Insert pages of file 0 as one-page runs, in order, with room."""
    for page in pages:
        assert policy.on_insert_run(0, page, page + 1, room=1) == []


def test_lru_refreshes_on_access():
    p = LruPolicy()
    fill(p, [0, 1, 2])
    p.on_access_run(0, 0, 1)
    assert p.evict(1) == [(0, 1, 2)]
    assert p.evict(1) == [(0, 2, 3)]
    assert p.evict(1) == [(0, 0, 1)]
    with pytest.raises(StorageError):
        p.evict(1)


def test_fifo_ignores_accesses():
    p = FifoPolicy()
    fill(p, [0, 1, 2])
    p.on_access_run(0, 0, 1)
    assert p.evict(1) == [(0, 0, 1)]  # access did not refresh


def test_lru_keeps_order_per_run():
    """A hit in the middle of a run cuts it in two and appends its pages
    as one run; contiguous pages of one file merge only when they are
    neighbours in the order; ``evict`` returns victim runs in order."""
    p = LruPolicy()
    assert p.on_insert_run(0, 0, 6, room=6) == []
    p.on_access_run(0, 2, 4)
    assert keys(p) == [(0, 0), (0, 1), (0, 4), (0, 5), (0, 2), (0, 3)]
    assert p.on_insert_run(0, 6, 8, room=0) == [(0, 0, 2)]
    assert p.on_insert_run(1, 0, 2, room=0) == [(0, 4, 6)]
    assert p.on_insert_run(0, 8, 9, room=1) == []
    assert keys(p) == [(0, 2), (0, 3), (0, 6), (0, 7), (1, 0), (1, 1), (0, 8)]
    assert [(r.start, r.stop) for r in p._files[0]] == [(2, 4), (6, 8), (8, 9)]
    # A run longer than the room left evicts its own first pages last.
    assert p.on_insert_run(2, 0, 9, room=0) == [
        (0, 2, 4), (0, 6, 8), (1, 0, 2), (0, 8, 9), (2, 0, 2)]
    assert keys(p) == [(2, page) for page in range(2, 9)]
    p.on_remove_run(2, 4, 6)
    assert keys(p) == [(2, 2), (2, 3), (2, 6), (2, 7), (2, 8)]


def test_clock_second_chance():
    p = ClockPolicy()
    fill(p, [0, 1, 2])
    p.on_access_run(0, 0, 1)  # reference bit set
    # Hand passes page 0 (bit cleared, moved behind), evicts page 1.
    assert p.evict(1) == [(0, 1, 2)]
    # Now page 2 (bit 0) goes before page 0.
    assert p.evict(1) == [(0, 2, 3)]
    assert p.evict(1) == [(0, 0, 1)]


def test_clock_on_remove_and_len():
    p = ClockPolicy()
    fill(p, [0, 1])
    assert len(p) == 2
    p.on_remove_run(0, 0, 1)
    assert len(p) == 1
    assert p.evict(1) == [(0, 1, 2)]
    with pytest.raises(StorageError):
        p.evict(1)


# ---------------------------------------------------------------------------
# Policies inside the cache
# ---------------------------------------------------------------------------

def fs_with(engine, eviction, capacity=8):
    disk = Disk(engine, geometry=DiskGeometry(cylinders=1000, heads=2, sectors_per_track=40))
    return FileSystem(
        engine,
        disk,
        cache_params=CacheParams(capacity_pages=capacity, eviction=eviction),
        prefetch_policy=NoPrefetch(),
    )


def hot_cold_hit_ratio(eviction):
    """Hot/cold workload: pages 0-3 hot (touched every round), a cold
    stream of new pages interleaved.  LRU should protect the hot set."""
    engine = Engine()
    fs = fs_with(engine, eviction, capacity=8)
    run(engine, fs.create("/f", size_bytes=4096 * 400))
    ino = fs.stat("/f")

    def workload():
        cold = 8
        for _round in range(30):
            for hot in range(4):
                yield from fs.cache.access(ino, hot, 1)
            for _ in range(3):
                yield from fs.cache.access(ino, cold, 1)
                cold += 1

    run(engine, workload())
    return fs.cache.stats.hit_ratio


def test_lru_protects_hot_set_better_than_fifo():
    assert hot_cold_hit_ratio("lru") > hot_cold_hit_ratio("fifo")


def test_clock_approximates_lru():
    lru = hot_cold_hit_ratio("lru")
    clock = hot_cold_hit_ratio("clock")
    fifo = hot_cold_hit_ratio("fifo")
    assert fifo < clock <= lru + 0.01


def test_capacity_respected_under_every_policy():
    for eviction in EVICTION_POLICIES:
        engine = Engine()
        fs = fs_with(engine, eviction, capacity=4)
        run(engine, fs.create("/f", size_bytes=4096 * 100))
        ino = fs.stat("/f")

        def workload():
            for page in range(50):
                yield from fs.cache.access(ino, page, 1)

        run(engine, workload())
        assert fs.cache.resident_pages <= 4, eviction
        assert fs.cache.stats.evictions == 46, eviction
