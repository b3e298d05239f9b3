"""Tests for the simulated file system: namespace, extents, ops."""

import pytest

from repro.errors import (
    FileExists,
    FileNotFound,
    FileSystemError,
    InvalidHandle,
    OutOfSpace,
)
from repro.io import FileSystem
from repro.io.filesystem import Inode
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry

from tests.io.conftest import run


def test_create_and_stat(engine, fs):
    run(engine, fs.create("/a.dat", size_bytes=10_000))
    assert fs.exists("/a.dat")
    assert fs.size_of("/a.dat") == 10_000
    assert fs.list_files() == ["/a.dat"]


def test_create_duplicate_rejected(engine, fs):
    run(engine, fs.create("/a.dat"))
    with pytest.raises(FileExists):
        run(engine, fs.create("/a.dat"))


def test_create_exist_ok_grows(engine, fs):
    run(engine, fs.create("/a.dat", size_bytes=100))
    run(engine, fs.create("/a.dat", size_bytes=5000, exist_ok=True))
    assert fs.size_of("/a.dat") == 5000


def test_stat_missing_raises(fs):
    with pytest.raises(FileNotFound):
        fs.stat("/missing")


def test_open_missing_raises(engine, fs):
    with pytest.raises(FileNotFound):
        run(engine, fs.open("/missing"))


def test_open_create_flag(engine, fs):
    handle = run(engine, fs.open("/new.dat", writable=True, create=True))
    assert fs.exists("/new.dat")
    assert handle.open


def test_delete_removes_and_frees(engine, fs):
    run(engine, fs.create("/a.dat", size_bytes=1_000_000))
    before = fs._next_free_lba
    run(engine, fs.delete("/a.dat"))
    assert not fs.exists("/a.dat")
    # Space is reusable: a new allocation should come from the free list.
    run(engine, fs.create("/b.dat", size_bytes=1_000_000))
    assert fs._next_free_lba == before


def test_delete_missing_raises(engine, fs):
    with pytest.raises(FileNotFound):
        run(engine, fs.delete("/missing"))


def test_write_then_read_roundtrip_sizes(engine, fs):
    def scenario():
        h = yield from fs.open("/f", writable=True, create=True)
        n = yield from fs.write(h, 10_000)
        assert n == 10_000
        yield from fs.seek(h, 0)
        got = yield from fs.read(h, 10_000)
        assert got == 10_000
        yield from fs.close(h)

    run(engine, scenario())
    assert fs.size_of("/f") == 10_000


def test_read_clips_at_eof(engine, fs):
    def scenario():
        yield from fs.create("/f", size_bytes=100)
        h = yield from fs.open("/f")
        got = yield from fs.read(h, 500)
        assert got == 100
        got2 = yield from fs.read(h, 500)
        assert got2 == 0  # position advanced to EOF
        yield from fs.close(h)

    run(engine, scenario())


def test_read_at_explicit_offset_does_not_move_position(engine, fs):
    def scenario():
        yield from fs.create("/f", size_bytes=1000)
        h = yield from fs.open("/f")
        yield from fs.read(h, 10, offset=500)
        assert h.position == 0
        yield from fs.read(h, 10)
        assert h.position == 10
        yield from fs.close(h)

    run(engine, scenario())


def test_write_extends_file(engine, fs):
    def scenario():
        h = yield from fs.open("/f", writable=True, create=True)
        yield from fs.write(h, 100, offset=10_000)
        yield from fs.close(h)

    run(engine, scenario())
    assert fs.size_of("/f") == 10_100


def test_write_on_readonly_handle_rejected(engine, fs):
    def scenario():
        yield from fs.create("/f", size_bytes=10)
        h = yield from fs.open("/f", writable=False)
        yield from fs.write(h, 10)

    with pytest.raises(FileSystemError):
        run(engine, scenario())


def test_closed_handle_rejected(engine, fs):
    def scenario():
        yield from fs.create("/f", size_bytes=10)
        h = yield from fs.open("/f")
        yield from fs.close(h)
        yield from fs.read(h, 10)

    with pytest.raises(InvalidHandle):
        run(engine, scenario())


def test_double_close_rejected(engine, fs):
    def scenario():
        yield from fs.create("/f", size_bytes=10)
        h = yield from fs.open("/f")
        yield from fs.close(h)
        yield from fs.close(h)

    with pytest.raises(InvalidHandle):
        run(engine, scenario())


def test_seek_sets_position_and_is_cheap(engine, fs):
    def scenario():
        yield from fs.create("/f", size_bytes=100_000)
        h = yield from fs.open("/f")
        t0 = engine.now
        yield from fs.seek(h, 50_000)
        elapsed = engine.now - t0
        assert h.position == 50_000
        assert elapsed == pytest.approx(fs.params.seek_overhead)
        yield from fs.close(h)

    run(engine, scenario())


def test_negative_arguments_rejected(engine, fs):
    def scenario():
        h = yield from fs.open("/f", writable=True, create=True)
        with pytest.raises(FileSystemError):
            yield from fs.read(h, -1)
        with pytest.raises(FileSystemError):
            yield from fs.write(h, -1)
        with pytest.raises(FileSystemError):
            yield from fs.seek(h, -5)
        with pytest.raises(FileSystemError):
            yield from fs.read(h, 1, offset=-2)
        yield from fs.close(h)

    run(engine, scenario())


def test_close_slower_than_open(engine, fs):
    """The paper's headline observation: 'for all trace files the time
    spent closing a file was longer than the time taken to open it'."""
    def scenario():
        yield from fs.create("/f", size_bytes=10_000)
        t0 = engine.now
        h = yield from fs.open("/f")
        open_time = engine.now - t0
        t1 = engine.now
        yield from fs.close(h)
        close_time = engine.now - t1
        return open_time, close_time

    open_time, close_time = run(engine, scenario())
    assert close_time > open_time


def test_out_of_space(engine):
    tiny = Disk(engine, geometry=DiskGeometry(cylinders=2, heads=1, sectors_per_track=8))
    fs = FileSystem(engine, tiny)
    with pytest.raises(OutOfSpace):
        run(engine, fs.create("/big", size_bytes=10 * 1024 * 1024))


def test_op_times_recorded(engine, fs):
    def scenario():
        h = yield from fs.open("/f", writable=True, create=True)
        yield from fs.write(h, 1000)
        yield from fs.seek(h, 0)
        yield from fs.read(h, 1000)
        yield from fs.close(h)

    run(engine, scenario())
    for op in ("open", "close", "read", "write", "seek"):
        assert fs.op_times[op].count == 1, op


def test_sync_waits_for_device(engine, fs):
    def scenario():
        h = yield from fs.open("/f", writable=True, create=True)
        yield from fs.write(h, 100_000)
        t0 = engine.now
        written = yield from fs.sync(h)
        elapsed = engine.now - t0
        yield from fs.close(h)
        return written, elapsed

    written, elapsed = run(engine, scenario())
    assert written > 0
    assert elapsed > 1e-3  # real disk time, not just software overhead


# ---------------------------------------------------------------------------
# Inode extent mapping
# ---------------------------------------------------------------------------

def test_inode_extent_merge():
    ino = Inode("/x", block_size=512)
    ino.add_extent(100, 10)
    ino.add_extent(110, 10)  # contiguous → merged
    assert ino.extents == [(100, 20)]
    ino.add_extent(200, 5)
    assert ino.extents == [(100, 20), (200, 5)]
    assert ino.allocated_blocks == 25


def test_inode_physical_runs_cross_extents():
    ino = Inode("/x", block_size=512)
    ino.add_extent(100, 4)
    ino.add_extent(200, 4)
    runs = list(ino.physical_runs(2, 4))
    assert runs == [(102, 2), (200, 2)]


def test_inode_physical_runs_clamped_to_allocation():
    ino = Inode("/x", block_size=512)
    ino.add_extent(100, 4)
    assert list(ino.physical_runs(2, 10)) == [(102, 2)]
    assert list(ino.physical_runs(4, 2)) == []


def test_inode_page_count():
    ino = Inode("/x", block_size=512)
    assert ino.page_count(4096) == 0
    ino.size_bytes = 1
    assert ino.page_count(4096) == 1
    ino.size_bytes = 4096
    assert ino.page_count(4096) == 1
    ino.size_bytes = 4097
    assert ino.page_count(4096) == 2


def test_fetch_landing_after_delete_publishes_nothing():
    """Open starts an asynchronous prefetch; a delete before it lands
    drops the file's in-flight registrations, so the landing fetch
    publishes no page for the dead file."""
    engine = Engine()
    fs = FileSystem(engine, Disk(engine))

    def create_open_close_delete():
        yield from fs.create("/a", size_bytes=1 << 20)
        handle = yield from fs.open("/a")
        yield from fs.close(handle)
        yield from fs.delete("/a")

    engine.process(create_open_close_delete())
    engine.run()
    fs.check()
    assert fs.cache.resident_pages == 0
    assert fs.cache._inflight == {}
    # The fetch itself still ran and completed.
    assert fs.device.requests_completed.value > 0
