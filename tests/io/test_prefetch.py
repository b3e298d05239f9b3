"""Tests for prefetch policies and the Prefetcher glue."""

import pytest

from repro.errors import StorageError
from repro.io import CacheParams, FileSystem
from repro.io.prefetch import (
    AdaptivePrefetch,
    FixedAheadPrefetch,
    NoPrefetch,
    Prefetcher,
    make_prefetch_policy,
    _FileState,
)
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry

from tests.io.conftest import run


def fs_with(engine, policy):
    disk = Disk(engine, geometry=DiskGeometry(cylinders=1000, heads=2, sectors_per_track=40))
    return FileSystem(
        engine, disk, cache_params=CacheParams(capacity_pages=256), prefetch_policy=policy
    )


def test_factory():
    assert isinstance(make_prefetch_policy("none"), NoPrefetch)
    assert isinstance(make_prefetch_policy("fixed", window=4), FixedAheadPrefetch)
    assert isinstance(make_prefetch_policy("adaptive"), AdaptivePrefetch)
    with pytest.raises(StorageError):
        make_prefetch_policy("psychic")


def test_policy_validation():
    with pytest.raises(StorageError):
        FixedAheadPrefetch(window=0)
    with pytest.raises(StorageError):
        AdaptivePrefetch(initial=0)
    with pytest.raises(StorageError):
        AdaptivePrefetch(initial=8, maximum=4)


def test_no_prefetch_window_always_zero():
    p = NoPrefetch()
    st = _FileState()
    assert p.window_after(st, 0, 4) == 0


def test_fixed_window_constant():
    p = FixedAheadPrefetch(window=6)
    st = _FileState()
    assert p.window_after(st, 0, 4) == 6
    assert p.window_after(st, 100, 1) == 6


def test_adaptive_window_grows_on_sequential_and_resets_on_random():
    p = AdaptivePrefetch(initial=2, maximum=16)
    st = _FileState()
    # First access: no history → initial.
    assert p.window_after(st, 0, 4) == 2
    st.last_end = 4
    # Sequential continuation → doubles.
    assert p.window_after(st, 4, 4) == 4
    st.last_end = 8
    assert p.window_after(st, 8, 4) == 8
    st.last_end = 12
    assert p.window_after(st, 12, 4) == 16
    st.last_end = 16
    # Capped at maximum.
    assert p.window_after(st, 16, 4) == 16
    # Random jump → back to initial.
    assert p.window_after(st, 500, 1) == 2


def test_sequential_reads_hit_prefetched_pages(engine):
    """A sequential scan with read-ahead should miss only at the front."""
    fs = fs_with(engine, FixedAheadPrefetch(window=8))
    run(engine, fs.create("/f", size_bytes=64 * 4096))

    def scan():
        h = yield from fs.open("/f")
        total = 0
        while True:
            got = yield from fs.read(h, 4096)
            if got == 0:
                break
            total += got
        yield from fs.close(h)
        return total

    total = run(engine, scan())
    assert total == 64 * 4096
    stats = fs.cache.stats
    # With an 8-page window, the vast majority of pages arrive ahead of
    # the reader: hits + inflight-waits dominate cold misses.
    assert stats.misses < 16
    assert stats.hits + stats.inflight_waits > 48


def test_prefetch_reduces_scan_time_vs_none(engine):
    def scan_time(policy):
        eng = Engine()
        fs = fs_with(eng, policy)
        run(eng, fs.create("/f", size_bytes=128 * 4096))

        def scan():
            h = yield from fs.open("/f")
            t0 = eng.now
            while True:
                got = yield from fs.read(h, 4096)
                if got == 0:
                    break
            elapsed = eng.now - t0
            yield from fs.close(h)
            return elapsed

        return run(eng, scan())

    with_pf = scan_time(FixedAheadPrefetch(window=16))
    without = scan_time(NoPrefetch())
    assert with_pf < without


def test_on_seek_warms_target(engine):
    fs = fs_with(engine, FixedAheadPrefetch(window=4))
    run(engine, fs.create("/f", size_bytes=400 * 4096))

    def scenario():
        h = yield from fs.open("/f")
        yield from fs.seek(h, 200 * 4096)
        # Give the async prefetch time to land.
        yield engine.timeout(0.1)
        return fs.cache.is_resident(h.inode, 200)

    assert run(engine, scenario())


def test_prefetcher_forget_clears_state(engine):
    fs = fs_with(engine, AdaptivePrefetch())
    run(engine, fs.create("/f", size_bytes=40 * 4096))
    ino = fs.stat("/f")
    pf = fs.prefetcher
    pf.on_access(ino, 0, 2)
    assert ino.file_id in pf._states
    pf.forget(ino)
    assert ino.file_id not in pf._states


def test_whole_file_read_to_eof_schedules_no_prefetch(engine):
    """A read that ends at EOF leaves a window wholly past the file:
    the prefetcher still moves its window and the file's last end, but
    asks the cache for nothing."""
    fs = fs_with(engine, FixedAheadPrefetch(window=8))
    run(engine, fs.create("/f", size_bytes=16 * 4096))
    calls = []
    prefetch = fs.cache.prefetch

    def counting(inode, first_page, npages):
        calls.append((first_page, npages))
        return prefetch(inode, first_page, npages)

    fs.cache.prefetch = counting
    pf = fs.prefetcher
    windows = []
    window_after = pf.policy.window_after

    def recording(state, first_page, npages):
        window = window_after(state, first_page, npages)
        windows.append(window)
        return window

    pf.policy.window_after = recording

    def whole():
        h = yield from fs.open("/f")  # the open warms the first pages
        del calls[:]
        got = yield from fs.read(h, 16 * 4096)
        yield from fs.close(h)
        return got

    before = pf.pages_scheduled
    assert run(engine, whole()) == 16 * 4096
    assert windows == [8]  # the policy was still asked
    assert calls == []
    assert pf.pages_scheduled == before
    assert pf._state(fs.stat("/f")).last_end == 16
