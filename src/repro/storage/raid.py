"""RAID arrays: striping (RAID-0) and mirroring (RAID-1).

:class:`StripedArray` serves the Figure 4 experiment (QCRD speedup vs
number of disks): the behavioral-model executor points its I/O bursts
at the array and varies the disk count.

The address map is the standard RAID-0 layout: logical blocks are
grouped into stripe units of ``stripe_unit`` blocks; consecutive units
rotate round-robin across member disks.  A logical request splits into
at most one contiguous physical request per (disk, stripe-unit run)
and completes when every fragment has.

:class:`MirroredArray` is the resilience counterpart: every block lives
on every member, reads rotate across in-sync members and fail over when
one errors or goes offline (degraded mode), and a repaired member is
brought back with a chunked background :meth:`~MirroredArray.rebuild`
whose progress is exported as a gauge.

Both arrays validate member geometry at construction: mixing disks with
different block sizes, capacities, or cylinder/head/sector layouts
would silently mis-map blocks, so it raises :class:`DiskError` instead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import DiskError, DiskFailedError, MediaError
from repro.sanitizer import runtime as _sanitizer
from repro.sim import Counter, Engine
from repro.sim.event import Event
from repro.storage.disk import Disk
from repro.storage.request import IORequest

__all__ = ["StripedArray", "MirroredArray"]


def _validate_members(disks: Sequence[Disk], kind: str) -> None:
    """Reject heterogeneous member sets (would silently mis-map blocks)."""
    if not disks:
        raise DiskError(f"{kind} needs at least one disk")
    if len({d.block_size for d in disks}) != 1:
        raise DiskError("member disks must share a block size")
    if len({d.total_blocks for d in disks}) != 1:
        raise DiskError("member disks must share a capacity")
    if len({d.geometry for d in disks}) != 1:
        raise DiskError(
            "member disks must share a geometry "
            "(cylinders/heads/sectors_per_track/block_size)"
        )


class StripedArray:
    """RAID-0 over homogeneous member disks.

    Exposes the same device interface as :class:`Disk` (``block_size``,
    ``total_blocks``, ``submit_range``) so the file-system layer can
    mount either interchangeably.
    """

    def __init__(self, engine: Engine, disks: Sequence[Disk], stripe_unit: int = 128) -> None:
        _validate_members(disks, "StripedArray")
        if stripe_unit < 1:
            raise DiskError(f"stripe unit must be >= 1 block, got {stripe_unit}")
        self.engine = engine
        self.disks: List[Disk] = list(disks)
        self.stripe_unit = stripe_unit

    # -- device interface ----------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.disks[0].block_size

    @property
    def total_blocks(self) -> int:
        return self.disks[0].total_blocks * len(self.disks)

    def map_block(self, logical_block: int) -> Tuple[int, int]:
        """Map a logical block to ``(disk_index, physical_block)``."""
        if not (0 <= logical_block < self.total_blocks):
            raise DiskError(f"logical block {logical_block} out of range")
        unit_index, offset = divmod(logical_block, self.stripe_unit)
        ndisks = len(self.disks)
        disk_index = unit_index % ndisks
        physical_unit = unit_index // ndisks
        return disk_index, physical_unit * self.stripe_unit + offset

    def split(self, lba: int, nblocks: int) -> List[Tuple[int, int, int]]:
        """Split a logical range into ``(disk_index, physical_lba, nblocks)``
        fragments, each contiguous on its member disk."""
        if nblocks < 1:
            raise DiskError(f"nblocks must be >= 1, got {nblocks}")
        end = lba + nblocks
        if lba < 0 or end > self.total_blocks:
            raise DiskError(f"range [{lba}, {end}) out of array bounds")
        ndisks = len(self.disks)
        if ndisks == 1:
            # Consecutive stripe units share the one disk and are
            # physically contiguous: the range is a single fragment.
            return [(0, lba, nblocks)]
        # With two or more disks consecutive units land on different
        # members, so every stripe-unit run is its own fragment.
        unit = self.stripe_unit
        unit_index, offset = divmod(lba, unit)
        physical_unit, disk_index = divmod(unit_index, ndisks)
        fragments: List[Tuple[int, int, int]] = []
        block = lba
        while block < end:
            run = min(end - block, unit - offset)
            fragments.append((disk_index, physical_unit * unit + offset, run))
            block += run
            offset = 0
            disk_index += 1
            if disk_index == ndisks:
                disk_index = 0
                physical_unit += 1
        return fragments

    def submit_range(self, lba: int, nblocks: int, is_write: bool = False) -> Event:
        """Submit a logical range; the event succeeds with the list of
        completed member :class:`IORequest` objects once all land.

        The first fragment failure fails the event with that error."""
        fragments = self.split(lba, nblocks)
        events = [
            self.disks[disk].submit(IORequest(lba=phys, nblocks=run, is_write=is_write))
            for disk, phys, run in fragments
        ]
        done = self.engine.event()
        remaining = len(events)

        def _gather(ev: Event) -> None:
            nonlocal remaining
            if _sanitizer.active is not None:
                # Runs in the drain loop's root context: accumulate each
                # fragment's clock so the waiter orders after all of them.
                _sanitizer.active.on_condition(done, ev)
            if done.triggered:
                return  # an earlier fragment already failed it
            if not ev.ok:
                done.fail(ev.value)
                return
            remaining -= 1
            if remaining == 0:
                done.succeed([e.value for e in events])

        for ev in events:
            ev.add_callback(_gather)
        return done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StripedArray disks={len(self.disks)} unit={self.stripe_unit}>"


class MirroredArray:
    """RAID-1 over homogeneous member disks.

    Same device interface as :class:`Disk` / :class:`StripedArray`
    (``block_size`` / ``total_blocks`` / ``submit_range``), so it can
    be mounted under a file system unchanged.

    Reads rotate round-robin across in-sync members and fail over to
    the next one on :class:`~repro.errors.MediaError` or
    :class:`~repro.errors.DiskFailedError`; a read served while any
    member is unavailable counts as *degraded* (``{name}.degraded_reads``).
    Writes go to every in-sync member and succeed as long as one lands;
    a member that misses a write is marked stale and excluded from
    reads until :meth:`rebuild` copies it back into sync
    (``{name}.rebuild_progress`` gauge, 0..1).
    """

    def __init__(self, engine: Engine, disks: Sequence[Disk],
                 name: str = "mirror") -> None:
        _validate_members(disks, "MirroredArray")
        if len(disks) < 2:
            raise DiskError("MirroredArray needs at least two disks")
        self.engine = engine
        self.disks: List[Disk] = list(disks)
        self.name = name
        self._stale: set = set()
        self._next_read = 0
        self._rebuild_progress = 1.0
        self.degraded_reads = Counter(f"{name}.degraded_reads")
        self.failovers = Counter(f"{name}.failovers")
        reg = engine.metrics
        for counter in (self.degraded_reads, self.failovers):
            reg.register(counter.name, counter, device=name)
        reg.gauge(f"{name}.rebuild_progress",
                  lambda: self._rebuild_progress, device=name)

    # -- device interface ----------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.disks[0].block_size

    @property
    def total_blocks(self) -> int:
        return self.disks[0].total_blocks

    def _note_failures(self) -> None:
        """An offline member is stale until rebuilt, even after repair."""
        for i, disk in enumerate(self.disks):
            if disk.failed:
                self._stale.add(i)

    def in_sync_members(self) -> List[int]:
        """Indices of members that are online and hold current data."""
        self._note_failures()
        return [i for i, d in enumerate(self.disks)
                if not d.failed and i not in self._stale]

    @property
    def degraded(self) -> bool:
        """True while any member is offline or stale."""
        return len(self.in_sync_members()) < len(self.disks)

    @property
    def rebuild_progress(self) -> float:
        """Resilver progress, 0..1 (1.0 when fully in sync)."""
        return self._rebuild_progress

    def submit_range(self, lba: int, nblocks: int, is_write: bool = False) -> Event:
        """Submit a logical range; the event succeeds with the list of
        completed member :class:`IORequest` objects (one for reads, one
        per surviving member for writes)."""
        if nblocks < 1:
            raise DiskError(f"nblocks must be >= 1, got {nblocks}")
        if lba < 0 or lba + nblocks > self.total_blocks:
            raise DiskError(f"range [{lba}, {lba + nblocks}) out of array bounds")
        done = self.engine.event()
        body = self._write(lba, nblocks, done) if is_write else \
            self._read(lba, nblocks, done)
        self.engine.process(
            body, name=f"{self.name}.{'write' if is_write else 'read'}",
            daemon=True)
        return done

    def _fail(self, done: Event, error: Exception) -> None:
        # The caller may have abandoned the event (timed-out retry
        # attempt); the sacrificial callback keeps the engine from
        # treating that as an unobserved failure.
        done.add_callback(lambda ev: None)
        done.fail(error)

    def _read(self, lba: int, nblocks: int, done: Event):
        members = self.in_sync_members()
        if not members:
            self._fail(done, DiskFailedError(
                f"array {self.name}: no in-sync member left"))
            return
        degraded = len(members) < len(self.disks)
        # Rotate the starting member so a healthy array balances reads.
        self._next_read = (self._next_read + 1) % len(members)
        order = members[self._next_read:] + members[:self._next_read]
        last_error: Optional[Exception] = None
        for attempt, index in enumerate(order):
            disk = self.disks[index]
            try:
                request = yield disk.submit(
                    IORequest(lba=lba, nblocks=nblocks))
            except (MediaError, DiskFailedError) as exc:
                last_error = exc
                self.failovers.add()
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant("raid.failover", "storage",
                                   device=self.name, member=disk.name,
                                   lba=lba, error=type(exc).__name__)
                degraded = True
                continue
            if degraded:
                self.degraded_reads.add()
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant("raid.degraded_read", "storage",
                                   device=self.name, member=disk.name,
                                   lba=lba, nblocks=nblocks)
            done.succeed([request])
            return
        self._fail(done, last_error or DiskFailedError(
            f"array {self.name}: all members failed"))

    def _write(self, lba: int, nblocks: int, done: Event):
        members = self.in_sync_members()
        if not members:
            self._fail(done, DiskFailedError(
                f"array {self.name}: no in-sync member left"))
            return
        pending: List[Tuple[int, Event]] = []
        for index in members:
            try:
                pending.append((index, self.disks[index].submit(
                    IORequest(lba=lba, nblocks=nblocks, is_write=True))))
            except DiskFailedError:
                self._stale.add(index)
        results = []
        last_error: Optional[Exception] = None
        for index, event in pending:
            try:
                results.append((yield event))
            except (MediaError, DiskFailedError) as exc:
                # This member missed the write: stale until rebuilt.
                last_error = exc
                self._stale.add(index)
        if results:
            done.succeed(results)
        else:
            self._fail(done, last_error or DiskFailedError(
                f"array {self.name}: write lost on every member"))

    # -- rebuild -------------------------------------------------------------

    def rebuild(self, target_index: int, chunk_blocks: int = 256):
        """Generator: copy the full address space from an in-sync member
        onto member ``target_index``, returning blocks copied.

        Run it as a process (``engine.process(array.rebuild(1))``); it
        shares the disks with foreground traffic, so rebuild time
        reflects contention.  Progress is visible while it runs via the
        ``{name}.rebuild_progress`` gauge and a ``raid.rebuild_progress``
        tracer counter series.
        """
        if not (0 <= target_index < len(self.disks)):
            raise DiskError(f"no member {target_index}")
        if chunk_blocks < 1:
            raise DiskError(f"chunk_blocks must be >= 1, got {chunk_blocks}")
        target = self.disks[target_index]
        if target.failed:
            raise DiskFailedError(
                f"member {target.name} is offline; repair it before rebuilding")
        if target_index not in self._stale:
            return 0
        started = self.engine.now
        total = self.total_blocks
        copied = 0
        self._rebuild_progress = 0.0
        for lba in range(0, total, chunk_blocks):
            run = min(chunk_blocks, total - lba)
            sources = [i for i in self.in_sync_members() if i != target_index]
            if not sources:
                raise DiskFailedError(
                    f"array {self.name}: lost the last in-sync source "
                    "mid-rebuild")
            yield self.disks[sources[0]].submit(
                IORequest(lba=lba, nblocks=run))
            yield target.submit(
                IORequest(lba=lba, nblocks=run, is_write=True))
            copied += run
            self._rebuild_progress = copied / total
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.counter(f"{self.name}.rebuild_progress", "storage",
                               self._rebuild_progress)
        self._stale.discard(target_index)
        self._rebuild_progress = 1.0
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete("raid.rebuild", "storage", started,
                            device=self.name, member=target.name,
                            blocks=copied)
        return copied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MirroredArray {self.name} disks={len(self.disks)} "
                f"stale={sorted(self._stale)}>")
