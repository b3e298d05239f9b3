"""Simulated file system: namespace, extent allocation, and the
syscall-level operations the benchmarks time.

Files are extent-mapped onto the block device; all data motion goes
through the :class:`~repro.io.buffercache.BufferCache`.  Operation
costs follow the structure the paper measures:

========  =======================================================
open      software overhead + *asynchronous* prefetch of the first
          page or two ("a page or two is placed in I/O buffers")
close     larger software overhead + issue write-back of the
          file's dirty pages → always slower than open
read      syscall overhead + cache access (misses block on disk)
write     syscall overhead + dirty-page creation (read-modify-
          write fetch for partial pages)
seek      tiny bookkeeping cost + asynchronous prefetch at target
========  =======================================================

All operations that can touch the device are generator coroutines
(``yield from fs.read(...)`` inside a simulation process).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    FileExists,
    FileNotFound,
    FileSystemError,
    InvalidHandle,
    OutOfSpace,
)
from repro.io.buffercache import BufferCache, CacheParams
from repro.io.prefetch import Prefetcher, PrefetchPolicy
from repro.sim import Counter, Engine, Tally

__all__ = ["FsParams", "Inode", "FileHandle", "FileSystem"]

# Fallback allocators for Inode/FileHandle objects built outside a
# FileSystem (tests, ad-hoc tools).  The file system allocates from
# per-instance counters so two runs in the same interpreter produce
# identical ids — part of the determinism contract.
_file_ids = itertools.count(1)
_handle_ids = itertools.count(1)


@dataclass(frozen=True)
class FsParams:
    """Software-path costs (seconds) and layout knobs.

    Defaults are tuned so the *relative* magnitudes match the paper's
    Tables 1–4 on the SSCLI: seek ≪ open < cached read < close.
    """

    open_overhead: float = 0.6e-6
    close_overhead: float = 5.0e-6
    read_overhead: float = 0.4e-6
    write_overhead: float = 0.5e-6
    seek_overhead: float = 8.0e-8
    create_overhead: float = 2.0e-6
    delete_overhead: float = 2.0e-6
    open_prefetch_pages: int = 2
    allocation_unit_pages: int = 256  # extent growth granularity (1 MiB @4 KiB)

    def __post_init__(self) -> None:
        for name in (
            "open_overhead",
            "close_overhead",
            "read_overhead",
            "write_overhead",
            "seek_overhead",
            "create_overhead",
            "delete_overhead",
        ):
            if getattr(self, name) < 0:
                raise FileSystemError(f"{name} must be >= 0")
        if self.open_prefetch_pages < 0:
            raise FileSystemError("open_prefetch_pages must be >= 0")
        if self.allocation_unit_pages < 1:
            raise FileSystemError("allocation_unit_pages must be >= 1")


class Inode:
    """On-disk file metadata: size and extent map.

    The extent map is a list of ``(start_lba, nblocks)`` runs; a
    cumulative-offset index makes file-block → LBA translation
    O(log extents).
    """

    def __init__(self, path: str, block_size: int,
                 file_id: Optional[int] = None) -> None:
        self.file_id = next(_file_ids) if file_id is None else file_id
        self.path = path
        self.block_size = block_size
        self.size_bytes = 0
        self.extents: List[Tuple[int, int]] = []
        self._cum: List[int] = []  # cumulative block counts before each extent

    @property
    def allocated_blocks(self) -> int:
        return (self._cum[-1] + self.extents[-1][1]) if self.extents else 0

    def add_extent(self, start_lba: int, nblocks: int) -> None:
        """Append an extent (merging with the previous when contiguous)."""
        if nblocks < 1:
            raise FileSystemError(f"extent must be >= 1 block, got {nblocks}")
        if self.extents and self.extents[-1][0] + self.extents[-1][1] == start_lba:
            prev_start, prev_len = self.extents[-1]
            self.extents[-1] = (prev_start, prev_len + nblocks)
        else:
            self._cum.append(self.allocated_blocks)
            self.extents.append((start_lba, nblocks))

    def page_count(self, page_size: int) -> int:
        """Pages needed to hold the current file size."""
        return -(-self.size_bytes // page_size) if self.size_bytes else 0

    def physical_runs(self, file_block: int, nblocks: int) -> Iterator[Tuple[int, int]]:
        """Translate a file-relative block range into device LBA runs."""
        if file_block < 0 or nblocks < 1:
            raise FileSystemError(
                f"bad file-block range ({file_block}, {nblocks})"
            )
        if file_block + nblocks > self.allocated_blocks:
            # Clamp to allocation: the tail of a final partial page may
            # extend past the last allocated block only by rounding.
            nblocks = self.allocated_blocks - file_block
            if nblocks < 1:
                return
        idx = bisect.bisect_right(self._cum, file_block) - 1
        remaining = nblocks
        block = file_block
        while remaining > 0:
            ext_start, ext_len = self.extents[idx]
            offset_in_ext = block - self._cum[idx]
            run = min(remaining, ext_len - offset_in_ext)
            yield ext_start + offset_in_ext, run
            block += run
            remaining -= run
            idx += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Inode {self.path!r} id={self.file_id} size={self.size_bytes} "
            f"extents={len(self.extents)}>"
        )


class FileHandle:
    """An open-file descriptor with a stream position."""

    def __init__(self, fs: "FileSystem", inode: Inode, writable: bool) -> None:
        self.handle_id = next(getattr(fs, "_handle_ids", None) or _handle_ids)
        self.fs = fs
        self.inode = inode
        self.writable = writable
        self.position = 0
        self.open = True

    def _check(self) -> None:
        if not self.open:
            raise InvalidHandle(f"handle {self.handle_id} is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"<FileHandle {self.handle_id} {self.inode.path!r} {state} pos={self.position}>"


class FileSystem:
    """The simulated volume: a namespace over one block device.

    Parameters
    ----------
    engine, device:
        Simulation engine and the backing :class:`Disk` /
        :class:`StripedArray`.
    params, cache_params:
        Cost/layout knobs; see :class:`FsParams`, :class:`CacheParams`.
    prefetch_policy:
        A :class:`~repro.io.prefetch.PrefetchPolicy`; default fixed
        read-ahead of 8 pages.
    """

    def __init__(
        self,
        engine: Engine,
        device,
        params: Optional[FsParams] = None,
        cache_params: Optional[CacheParams] = None,
        prefetch_policy: Optional[PrefetchPolicy] = None,
    ) -> None:
        self.engine = engine
        self.device = device
        self.params = params or FsParams()
        self.cache = BufferCache(engine, device, cache_params)
        self.prefetcher = Prefetcher(self.cache, prefetch_policy)
        self._files: Dict[str, Inode] = {}
        self._by_id: Dict[int, Inode] = {}
        # Per-instance id allocators: two identically-seeded runs hand
        # out identical file/handle ids (the determinism contract).
        self._file_ids = itertools.count(1)
        self._handle_ids = itertools.count(1)
        self.cache.register_inode_resolver(self._by_id.get)

        # Allocator state: bump pointer + first-fit free list.
        self._next_free_lba = 0
        self._free_extents: List[Tuple[int, int]] = []

        # Per-op latency stats (seconds), for the benchmark harness;
        # registered so engine.metrics.snapshot() covers the fs layer.
        self.op_times: Dict[str, Tally] = {
            op: Tally(f"fs.{op}") for op in ("open", "close", "read", "write", "seek")
        }
        self.ops = Counter("fs.ops")
        for tally in self.op_times.values():
            engine.metrics.register(tally.name, tally)
        engine.metrics.register(self.ops.name, self.ops)
        engine.metrics.gauge("fs.files", lambda: len(self._files))

    # -- namespace (non-blocking helpers) ------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def stat(self, path: str) -> Inode:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def size_of(self, path: str) -> int:
        return self.stat(path).size_bytes

    def list_files(self) -> List[str]:
        return sorted(self._files)

    @property
    def page_size(self) -> int:
        return self.cache.params.page_size

    # -- allocator ------------------------------------------------------------

    def _allocate(self, nblocks: int) -> List[Tuple[int, int]]:
        """Reserve ``nblocks`` device blocks; first-fit from freed
        extents, then bump allocation."""
        got: List[Tuple[int, int]] = []
        remaining = nblocks
        # First-fit over the free list.
        i = 0
        while remaining > 0 and i < len(self._free_extents):
            start, length = self._free_extents[i]
            take = min(length, remaining)
            got.append((start, take))
            remaining -= take
            if take == length:
                self._free_extents.pop(i)
            else:
                self._free_extents[i] = (start + take, length - take)
                i += 1
        if remaining > 0:
            if self._next_free_lba + remaining > self.device.total_blocks:
                # Roll back the free-list takes before failing.
                self._free_extents.extend(got)
                raise OutOfSpace(
                    f"cannot allocate {nblocks} blocks "
                    f"({self.device.total_blocks - self._next_free_lba} free)"
                )
            got.append((self._next_free_lba, remaining))
            self._next_free_lba += remaining
        return got

    def _grow_to(self, inode: Inode, new_size: int) -> None:
        """Extend allocation so ``new_size`` bytes fit, in whole
        allocation units."""
        page = self.page_size
        unit_blocks = self.params.allocation_unit_pages * (page // self.device.block_size)
        needed_blocks = -(-new_size // self.device.block_size)
        if needed_blocks <= inode.allocated_blocks:
            return
        grow = needed_blocks - inode.allocated_blocks
        grow = -(-grow // unit_blocks) * unit_blocks  # round up to units
        for start, length in self._allocate(grow):
            inode.add_extent(start, length)

    # -- operations (generator coroutines) ------------------------------------

    def create(self, path: str, size_bytes: int = 0, exist_ok: bool = False):
        """Generator: create a file, preallocating ``size_bytes``."""
        if size_bytes < 0:
            raise FileSystemError(f"negative size: {size_bytes}")
        if path in self._files:
            if not exist_ok:
                raise FileExists(path)
            inode = self._files[path]
        else:
            inode = Inode(path, self.device.block_size,
                          file_id=next(self._file_ids))
            self._files[path] = inode
            self._by_id[inode.file_id] = inode
        if size_bytes > inode.size_bytes:
            self._grow_to(inode, size_bytes)
            inode.size_bytes = size_bytes
        yield self.params.create_overhead
        return inode

    def delete(self, path: str):
        """Generator: remove a file, returning its extents to the free list."""
        inode = self.stat(path)
        self.cache.invalidate_file(inode)
        self.prefetcher.forget(inode)
        self._free_extents.extend(inode.extents)
        del self._files[path]
        del self._by_id[inode.file_id]
        yield self.params.delete_overhead

    def open(self, path: str, writable: bool = False, create: bool = False):
        """Generator: open a file, returning a :class:`FileHandle`.

        Charges the open overhead and *asynchronously* prefetches the
        first ``open_prefetch_pages`` pages (the paper's "page or two").
        """
        start = self.engine.now
        if path not in self._files:
            if not create:
                raise FileNotFound(path)
            yield from self.create(path)
        inode = self._files[path]
        handle = FileHandle(self, inode, writable=writable)
        if self.params.open_prefetch_pages > 0 and inode.size_bytes > 0:
            self.cache.prefetch(inode, 0, self.params.open_prefetch_pages)
        yield self.params.open_overhead
        self._account("open", start)
        return handle

    def close(self, handle: FileHandle):
        """Generator: close a handle; issues write-back of the file's
        dirty pages (asynchronous — only the issue cost is charged,
        which still makes close reliably slower than open)."""
        handle._check()
        start = self.engine.now
        handle.open = False
        yield from self.cache.flush_file(handle.inode)
        yield self.params.close_overhead
        self._account("close", start)

    def read(self, handle: FileHandle, nbytes: int, offset: Optional[int] = None):
        """Generator: read ``nbytes`` at ``offset`` (or the stream
        position).  Returns the byte count actually read (clipped at
        EOF).  Misses block on the device; a prefetch for the following
        region is scheduled afterwards."""
        handle._check()
        if nbytes < 0:
            raise FileSystemError(f"negative read length: {nbytes}")
        start = self.engine.now
        inode = handle.inode
        pos = handle.position if offset is None else offset
        if pos < 0:
            raise FileSystemError(f"negative offset: {pos}")
        avail = max(0, inode.size_bytes - pos)
        count = min(nbytes, avail)
        if count > 0:
            page = self.page_size
            first_page = pos // page
            last_page = (pos + count - 1) // page
            npages = last_page - first_page + 1
            yield from self.cache.access(inode, first_page, npages)
            self.prefetcher.on_access(inode, first_page, npages)
        yield self.params.read_overhead
        if offset is None:
            handle.position = pos + count
        self._account("read", start)
        return count

    def write(self, handle: FileHandle, nbytes: int, offset: Optional[int] = None):
        """Generator: write ``nbytes`` at ``offset`` (or the stream
        position), extending the file as needed.  Returns the byte
        count written."""
        handle._check()
        if not handle.writable:
            raise FileSystemError(f"handle for {handle.inode.path!r} is read-only")
        if nbytes < 0:
            raise FileSystemError(f"negative write length: {nbytes}")
        start = self.engine.now
        inode = handle.inode
        pos = handle.position if offset is None else offset
        if pos < 0:
            raise FileSystemError(f"negative offset: {pos}")
        if nbytes > 0:
            new_size = max(inode.size_bytes, pos + nbytes)
            self._grow_to(inode, new_size)
            page = self.page_size
            first_page = pos // page
            last_page = (pos + nbytes - 1) // page
            npages = last_page - first_page + 1
            partial_head = pos % page != 0
            partial_tail = (pos + nbytes) % page != 0
            yield from self.cache.write_pages(
                inode, first_page, npages, partial_head, partial_tail
            )
            inode.size_bytes = new_size
            self.prefetcher.on_access(inode, first_page, npages)
        yield self.params.write_overhead
        if offset is None:
            handle.position = pos + nbytes
        self._account("write", start)
        return nbytes

    def seek(self, handle: FileHandle, offset: int):
        """Generator: move the stream position.  Pure bookkeeping plus
        an asynchronous prefetch at the target region — matching the
        paper's near-zero seek times with occasional downstream
        fault costs."""
        handle._check()
        if offset < 0:
            raise FileSystemError(f"negative seek target: {offset}")
        start = self.engine.now
        handle.position = offset
        if handle.inode.size_bytes > 0:
            self.prefetcher.on_seek(handle.inode, offset // self.page_size)
        yield self.params.seek_overhead
        self._account("seek", start)
        return offset

    def sync(self, handle: FileHandle):
        """Generator: synchronous flush of the file's dirty pages
        (waits for the device).  Returns pages written."""
        handle._check()
        result = yield from self.cache.sync_file(handle.inode)
        return result

    def rename(self, old_path: str, new_path: str):
        """Generator: move a file within the namespace (pure metadata;
        extents and cached pages are keyed by file id and unaffected)."""
        if new_path in self._files:
            raise FileExists(new_path)
        inode = self.stat(old_path)
        del self._files[old_path]
        inode.path = new_path
        self._files[new_path] = inode
        yield self.params.create_overhead
        return inode

    def truncate(self, handle: FileHandle, new_size: int):
        """Generator: set the file size.  Shrinking drops cached pages
        beyond the new EOF (allocation is kept, as real file systems
        commonly defer); growing allocates and zero-extends."""
        handle._check()
        if not handle.writable:
            raise FileSystemError(f"handle for {handle.inode.path!r} is read-only")
        if new_size < 0:
            raise FileSystemError(f"negative size: {new_size}")
        inode = handle.inode
        if new_size > inode.size_bytes:
            self._grow_to(inode, new_size)
        else:
            page = self.page_size
            keep_pages = -(-new_size // page) if new_size else 0
            for page_idx in self.cache.resident_pages_of(inode):
                if page_idx >= keep_pages:
                    self.cache.drop_page(inode, page_idx)
        inode.size_bytes = new_size
        if handle.position > new_size:
            handle.position = new_size
        yield self.params.create_overhead
        return new_size

    def glob(self, prefix: str) -> List[str]:
        """Paths starting with ``prefix``, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    # -- consistency -------------------------------------------------------------

    def check(self) -> None:
        """Verify volume invariants; raises :class:`FileSystemError`
        with a description of the first violation found.

        Checked invariants:

        * no two live extents (file-owned or free-listed) overlap;
        * every extent lies within the device;
        * every file's allocation covers its size;
        * no block beyond the bump pointer is referenced;
        * the cache holds pages only for live files, within their size.
        """
        claimed: List[Tuple[int, int, str]] = []
        for inode in self._files.values():
            needed = -(-inode.size_bytes // self.device.block_size)
            if inode.allocated_blocks < needed:
                raise FileSystemError(
                    f"{inode.path}: size {inode.size_bytes} needs {needed} "
                    f"blocks but only {inode.allocated_blocks} allocated"
                )
            for start, length in inode.extents:
                claimed.append((start, length, inode.path))
        for start, length in self._free_extents:
            claimed.append((start, length, "<free>"))
        for start, length, owner in claimed:
            if start < 0 or length < 1:
                raise FileSystemError(f"{owner}: malformed extent ({start},{length})")
            if start + length > self.device.total_blocks:
                raise FileSystemError(f"{owner}: extent beyond device end")
            if start + length > self._next_free_lba:
                raise FileSystemError(f"{owner}: extent beyond the bump pointer")
        claimed.sort()
        for (s1, l1, o1), (s2, l2, o2) in zip(claimed, claimed[1:]):
            if s1 + l1 > s2:
                raise FileSystemError(
                    f"extent overlap: {o1}({s1},{l1}) and {o2}({s2},{l2})"
                )
        page = self.page_size
        for (file_id, page_idx) in list(self.cache._pages):
            inode = self._by_id.get(file_id)
            if inode is None:
                raise FileSystemError(f"cache holds page for dead file {file_id}")
            if page_idx >= max(1, inode.page_count(page)):
                raise FileSystemError(
                    f"{inode.path}: cached page {page_idx} beyond EOF"
                )

    # -- accounting ------------------------------------------------------------

    def _account(self, op: str, start: float) -> None:
        self.op_times[op].record(self.engine.now - start)
        self.ops.add()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(f"fs.{op}", "io", start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FileSystem files={len(self._files)} next_lba={self._next_free_lba}>"
