"""Tests for the buffer cache: hits/misses, prefetch, eviction, flush."""

import pytest

from repro.errors import StorageError
from repro.io import CacheParams, FileSystem
from repro.io.buffercache import BufferCache
from repro.io.prefetch import NoPrefetch
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry

from tests.io.conftest import run


def small_fs(engine, capacity_pages=16):
    disk = Disk(engine, geometry=DiskGeometry(cylinders=1000, heads=2, sectors_per_track=40))
    return FileSystem(
        engine,
        disk,
        cache_params=CacheParams(capacity_pages=capacity_pages),
        prefetch_policy=NoPrefetch(),
    )


def make_file(engine, fs, path="/f", size=100_000):
    run(engine, fs.create(path, size_bytes=size))
    return fs.stat(path)


def test_page_size_must_divide_into_blocks(engine, disk):
    with pytest.raises(StorageError):
        BufferCache(engine, disk, CacheParams(page_size=1000))


def test_first_access_misses_second_hits(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    hits, misses = run(engine, fs.cache.access(ino, 0, 4))
    assert (hits, misses) == (0, 4)
    hits, misses = run(engine, fs.cache.access(ino, 0, 4))
    assert (hits, misses) == (4, 0)
    assert fs.cache.stats.hits == 4
    assert fs.cache.stats.misses == 4


def test_miss_is_orders_of_magnitude_slower_than_hit(engine):
    """The mechanism behind the latency spikes in the paper's Tables 3-4."""
    fs = small_fs(engine)
    ino = make_file(engine, fs)

    t0 = engine.now
    run(engine, fs.cache.access(ino, 0, 1))
    miss_time = engine.now - t0

    t1 = engine.now
    run(engine, fs.cache.access(ino, 0, 1))
    hit_time = engine.now - t1

    assert miss_time > 100 * hit_time


def test_contiguous_misses_fetched_as_one_device_request(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    run(engine, fs.cache.access(ino, 0, 8))
    # 8 pages contiguous in one extent → one batched read.
    assert fs.device.requests_completed.value == 1


def test_prefetch_marks_pages_resident_asynchronously(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    scheduled = fs.cache.prefetch(ino, 0, 4)
    assert scheduled == 4
    assert fs.cache.is_inflight(ino, 0)
    engine.run()  # let the background fetch land
    assert fs.cache.is_resident(ino, 0)
    hits, misses = run(engine, fs.cache.access(ino, 0, 4))
    assert (hits, misses) == (4, 0)


def test_prefetch_skips_resident_and_inflight(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    run(engine, fs.cache.access(ino, 0, 2))
    assert fs.cache.prefetch(ino, 0, 2) == 0
    first = fs.cache.prefetch(ino, 2, 4)
    assert first == 4
    assert fs.cache.prefetch(ino, 2, 4) == 0  # already in flight


def test_prefetch_clamped_to_file_size(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs, size=3 * 4096)
    assert fs.cache.prefetch(ino, 0, 100) == 3


def test_demand_read_waits_for_inflight_prefetch(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    fs.cache.prefetch(ino, 0, 2)

    def demand():
        result = yield from fs.cache.access(ino, 0, 2)
        return result, engine.now

    (hits, misses), finished = run(engine, demand())
    # Neither a hit nor a cold miss: the access waited on the in-flight fetch.
    assert (hits, misses) == (0, 0)
    assert fs.cache.stats.inflight_waits == 2
    assert finished > 0  # had to wait for the device


def test_lru_eviction(engine):
    fs = small_fs(engine, capacity_pages=4)
    ino = make_file(engine, fs)
    run(engine, fs.cache.access(ino, 0, 4))
    run(engine, fs.cache.access(ino, 4, 1))  # evicts page 0
    assert fs.cache.resident_pages == 4
    assert not fs.cache.is_resident(ino, 0)
    assert fs.cache.is_resident(ino, 4)
    assert fs.cache.stats.evictions == 1


def test_access_refreshes_lru_position(engine):
    fs = small_fs(engine, capacity_pages=4)
    ino = make_file(engine, fs)
    run(engine, fs.cache.access(ino, 0, 4))
    run(engine, fs.cache.access(ino, 0, 1))  # page 0 becomes MRU
    run(engine, fs.cache.access(ino, 4, 1))  # evicts page 1, not 0
    assert fs.cache.is_resident(ino, 0)
    assert not fs.cache.is_resident(ino, 1)


def test_write_pages_marks_dirty_without_fetch_for_full_pages(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    fetched = run(engine, fs.cache.write_pages(ino, 0, 2, False, False))
    assert fetched == 0
    assert fs.cache.is_dirty(ino, 0)
    assert fs.device.requests_completed.value == 0


def test_partial_page_write_triggers_read_modify_write(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    fetched = run(engine, fs.cache.write_pages(ino, 0, 1, True, True))
    assert fetched == 1
    assert fs.device.requests_completed.value == 1
    assert fs.cache.is_dirty(ino, 0)


def test_partial_write_beyond_eof_skips_fetch(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs, size=0)
    # Growing a fresh file: no old data to preserve, no fetch.
    fs._grow_to(ino, 4096)
    fetched = run(engine, fs.cache.write_pages(ino, 0, 1, True, True))
    assert fetched == 0


def test_flush_file_cleans_dirty_pages_and_charges_issue_cost(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    run(engine, fs.cache.write_pages(ino, 0, 4, False, False))

    def scenario():
        t0 = engine.now
        count = yield from fs.cache.flush_file(ino)
        return count, engine.now - t0

    count, elapsed = run(engine, scenario())
    assert count == 4
    assert fs.cache.dirty_pages_of(ino) == []
    # Only issue cost lands on the flusher; device writes run in background.
    assert elapsed < 1e-5
    assert fs.cache.stats.writebacks == 4  # background writes finished in run()


def test_sync_file_waits_for_writes(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    run(engine, fs.cache.write_pages(ino, 0, 4, False, False))
    t0 = engine.now
    count = run(engine, fs.cache.sync_file(ino))
    assert count == 4
    assert engine.now - t0 > 1e-3
    assert fs.device.bytes_written.value == 4 * 4096


def test_dirty_eviction_writes_back(engine):
    fs = small_fs(engine, capacity_pages=2)
    ino = make_file(engine, fs)
    run(engine, fs.cache.write_pages(ino, 0, 2, False, False))
    run(engine, fs.cache.access(ino, 2, 2))  # evicts both dirty pages
    engine.run()
    assert fs.cache.stats.writebacks == 2
    assert fs.device.bytes_written.value == 2 * 4096


def test_invalidate_file_drops_pages(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    run(engine, fs.cache.access(ino, 0, 4))
    dropped = fs.cache.invalidate_file(ino)
    assert dropped == 4
    assert fs.cache.resident_pages == 0


def test_drop_pages_takes_the_range_and_nothing_else(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    run(engine, fs.cache.access(ino, 0, 6))
    assert fs.cache.drop_pages(ino, 5, 3) == 0  # an empty range
    assert fs.cache.drop_pages(ino, 2, 4) == 2
    assert sorted(fs.cache.resident_pages_of(ino)) == [0, 1, 4, 5]
    assert fs.cache.drop_pages(ino, 1) == 3  # to the end of the file
    assert fs.cache.resident_pages_of(ino) == [0]
    assert fs.cache.resident_pages == 1


def test_stats_hit_ratio(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    run(engine, fs.cache.access(ino, 0, 2))
    run(engine, fs.cache.access(ino, 0, 2))
    assert fs.cache.stats.hit_ratio == pytest.approx(0.5)


def test_access_validation(engine):
    fs = small_fs(engine)
    ino = make_file(engine, fs)
    with pytest.raises(StorageError):
        run(engine, fs.cache.access(ino, 0, 0))
    with pytest.raises(StorageError):
        run(engine, fs.cache.write_pages(ino, 0, 0, False, False))
