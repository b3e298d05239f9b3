"""Model-based (stateful) property tests for the I/O stack.

A hypothesis state machine drives random sequences of file-system
operations against the simulated volume, checking after every step
that (a) a pure-Python reference model agrees on sizes/contents-extent
and (b) the volume's own consistency checker passes.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.io import CacheParams, FileSystem, FsParams
from repro.io.prefetch import FixedAheadPrefetch
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry


class FileSystemMachine(RuleBasedStateMachine):
    """Random open/read/write/seek/close/delete against the volume."""

    paths = Bundle("paths")

    @initialize()
    def setup(self):
        self.engine = Engine()
        disk = Disk(
            self.engine,
            geometry=DiskGeometry(cylinders=2000, heads=2, sectors_per_track=40),
        )
        self.fs = FileSystem(
            self.engine,
            disk,
            cache_params=CacheParams(capacity_pages=64),
            prefetch_policy=FixedAheadPrefetch(window=4),
        )
        self.sizes = {}      # reference model: path -> size
        self.handles = {}    # path -> open handle (at most one per path)
        self.counter = 0

    def _run(self, gen):
        return self.engine.run_process(gen)

    # -- rules ------------------------------------------------------------

    @rule(target=paths)
    def create_file(self):
        self.counter += 1
        path = f"/f{self.counter}"
        self._run(self.fs.create(path, size_bytes=0))
        self.sizes[path] = 0
        return path

    @rule(path=paths, nbytes=st.integers(min_value=0, max_value=200_000),
          offset=st.integers(min_value=0, max_value=300_000))
    def write_at(self, path, nbytes, offset):
        if path not in self.sizes:
            return
        handle = self._ensure_open(path)
        self._run(self.fs.write(handle, nbytes, offset=offset))
        if nbytes > 0:
            self.sizes[path] = max(self.sizes[path], offset + nbytes)

    @rule(path=paths, nbytes=st.integers(min_value=1, max_value=200_000),
          offset=st.integers(min_value=0, max_value=300_000))
    def read_at(self, path, nbytes, offset):
        if path not in self.sizes:
            return
        handle = self._ensure_open(path)
        got = self._run(self.fs.read(handle, nbytes, offset=offset))
        expected = max(0, min(nbytes, self.sizes[path] - offset))
        assert got == expected

    @rule(path=paths, offset=st.integers(min_value=0, max_value=500_000))
    def seek_to(self, path, offset):
        if path not in self.sizes:
            return
        handle = self._ensure_open(path)
        self._run(self.fs.seek(handle, offset))
        assert handle.position == offset

    @rule(path=paths)
    def close_file(self, path):
        if path in self.handles:
            self._run(self.fs.close(self.handles.pop(path)))

    @rule(path=paths)
    def delete_file(self, path):
        if path not in self.sizes:
            return
        if path in self.handles:
            self._run(self.fs.close(self.handles.pop(path)))
        self._run(self.fs.delete(path))
        del self.sizes[path]

    @rule(path=paths)
    def open_and_delete_undrained(self, path):
        """Open, close and delete in one process: the open's prefetch is
        still in flight when the file goes (every other rule lets the
        engine drain between operations)."""
        if path not in self.sizes:
            return
        if path in self.handles:
            self._run(self.fs.close(self.handles.pop(path)))

        def open_close_delete():
            handle = yield from self.fs.open(path)
            yield from self.fs.close(handle)
            yield from self.fs.delete(path)

        self._run(open_close_delete())
        del self.sizes[path]

    def _ensure_open(self, path):
        handle = self.handles.get(path)
        if handle is None or not handle.open:
            handle = self._run(self.fs.open(path, writable=True))
            self.handles[path] = handle
        return handle

    # -- invariants ----------------------------------------------------------

    @invariant()
    def volume_is_consistent(self):
        if hasattr(self, "fs"):
            self.fs.check()

    @invariant()
    def sizes_agree(self):
        if not hasattr(self, "fs"):
            return
        for path, size in self.sizes.items():
            assert self.fs.size_of(path) == size

    @invariant()
    def cache_within_capacity(self):
        if hasattr(self, "fs"):
            assert self.fs.cache.resident_pages <= self.fs.cache.params.capacity_pages


FileSystemMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestFileSystemMachine = FileSystemMachine.TestCase


def test_check_detects_overlap_corruption():
    """The checker itself must catch planted corruption."""
    from repro.errors import FileSystemError

    engine = Engine()
    disk = Disk(engine, geometry=DiskGeometry(cylinders=2000, heads=2, sectors_per_track=40))
    fs = FileSystem(engine, disk)
    engine.run_process(fs.create("/a", size_bytes=100_000))
    engine.run_process(fs.create("/b", size_bytes=100_000))
    # Corrupt: make /b's first extent overlap /a's.
    inode_b = fs.stat("/b")
    start, length = inode_b.extents[0]
    inode_b.extents[0] = (0, length)
    with pytest.raises(FileSystemError, match="overlap"):
        fs.check()


def test_check_detects_undersized_allocation():
    from repro.errors import FileSystemError

    engine = Engine()
    disk = Disk(engine, geometry=DiskGeometry(cylinders=2000, heads=2, sectors_per_track=40))
    fs = FileSystem(engine, disk)
    engine.run_process(fs.create("/a", size_bytes=4096))
    fs.stat("/a").size_bytes = 10 * 1024 * 1024  # lie about the size
    with pytest.raises(FileSystemError, match="allocated"):
        fs.check()


def test_check_detects_cache_for_dead_file():
    from repro.errors import FileSystemError

    engine = Engine()
    disk = Disk(engine, geometry=DiskGeometry(cylinders=2000, heads=2, sectors_per_track=40))
    fs = FileSystem(engine, disk)
    engine.run_process(fs.create("/a", size_bytes=100_000))
    ino = fs.stat("/a")
    engine.run_process(fs.cache.access(ino, 0, 2))
    # Remove the file from the namespace without invalidating the cache.
    del fs._files["/a"]
    del fs._by_id[ino.file_id]
    with pytest.raises(FileSystemError, match="dead file"):
        fs.check()
