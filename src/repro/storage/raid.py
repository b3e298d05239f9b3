"""RAID arrays: striping (RAID-0) and mirroring (RAID-1).

:class:`StripedArray` serves the Figure 4 experiment (QCRD speedup vs
number of disks): the behavioral-model executor points its I/O bursts
at the array and varies the disk count.

The address map is the standard RAID-0 layout: logical blocks are
grouped into stripe units of ``stripe_unit`` blocks; consecutive units
rotate round-robin across member disks.  A logical request splits into
at most one contiguous physical request per (disk, stripe-unit run)
and completes when every fragment has.  Over members that commit FCFS
service at enqueue (see :mod:`repro.storage.disk`) every fragment's
finish is known at submit: each member commits its fragments as one
extent (they are physically contiguous there), worked out from the
stripe arithmetic with no request per fragment, and the whole range
takes one heap entry, at its latest fragment's finish.  Over members that
commit at start a finish is known only once its fragment starts, so
each fragment is queued on its own and the last to land decides the
range.

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

from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DiskError, DiskFailedError, MediaError
from repro.sanitizer import runtime as _sanitizer
from repro.sim import Counter, Engine
from repro.sim.event import Event
from repro.storage.disk import _LANDED, Disk, _Extent, _fragments_in
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


class _CommittedRange(SequenceABC):
    """One striped range over committing disks: one extent per member
    it touches, and its heap entry, at the latest fragment finish,
    which settles the whole range (see :meth:`Engine._push_commitment`).

    It is also the range's event value: a sequence of its fragments, in
    stripe order, as :class:`IORequest` records derived from the
    extents when read."""

    __slots__ = ("engine", "members", "count", "done", "seq", "due",
                 "failed", "lost")

    def __init__(self, engine: Engine, count: int, done: Event,
                 seq: int) -> None:
        self.engine = engine
        # (disk, extent) per member touched, in stripe order: fragment
        # i is on member i % len(members).
        self.members: List[Tuple[Disk, _Extent]] = []
        self.count = count      # fragments
        self.done = done
        self.seq = seq
        self.failed = False
        # Extent -> the first of its fragments a failure settled (it
        # stamped them itself).
        self.lost: Dict[_Extent, int] = {}

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        return self.fragments()[index]

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.fragments())

    def fragments(self) -> List[IORequest]:
        """Every fragment, in stripe order, stamped as far as the clock
        has reached."""
        members = self.members
        for disk, _ in members:
            disk._catch_up()
        rows = [disk._records(extent) for disk, extent in members]
        return [row[j] for j in range(len(rows[0])) for row in rows
                if j < len(row)]

    def fire(self) -> None:
        # Every fragment has finished; each disk records its extent when
        # it is next read (at once when tracing: spans come out in
        # order).  The extents let go of the range, so it frees once its
        # event does.
        members = self.members
        if self.engine.tracer.enabled:
            for disk, _ in members:
                disk._catch_up()
        for _, extent in members:
            if extent.owner is self:  # else recorded, or a failure settled it
                extent.owner = _LANDED
        det = _sanitizer.active
        if det is not None:
            self._stamp(det)
        if not self.failed:
            # The event's value is this range: hold no reference back.
            done, self.done = self.done, None
            self.engine._schedule_call(lambda: done.succeed(self))

    def _stamp(self, det) -> None:
        """Each fragment that finished normally triggers in its disk's
        context, accumulated into the range's event if it finished now
        (an earlier finish's clock would not reach a waiter now)."""
        engine = self.engine
        now = engine._now
        done = self.done
        rows = []
        for disk, extent in self.members:
            finishes = [times[3] for times in disk._fragment_times(extent)]
            cut = self.lost.get(extent)
            if cut is not None:  # the fragments before the cut finished
                del finishes[_fragments_in(extent.lba, cut, extent.unit):]
            rows.append((disk, finishes))
        for j in range(max(len(finishes) for _, finishes in rows)):
            for disk, finishes in rows:
                if j >= len(finishes):
                    continue
                prev = det.enter(disk)
                try:
                    stamp = Event(engine)
                    det.on_trigger(stamp)
                finally:
                    det.leave(prev)
                if finishes[j] == now and not done.triggered:
                    det.on_condition(done, stamp)

    def settle(self, extent: _Extent, error: Exception) -> None:
        """A member failed with ``extent``'s fragments from its cursor
        on unfinished (in the failing context): the first such failure
        fails the range."""
        engine = self.engine
        done = self.done
        det = _sanitizer.active
        if det is not None:
            # As each fragment settled by its disk: once the failure has
            # triggered the range's event, a late fragment's clock joins
            # from a slot of its own, so a waiter already queued at this
            # instant misses it.
            for _ in range(_fragments_in(extent.cursor, extent.end,
                                         extent.unit)):
                stamp = Event(engine)
                det.on_trigger(stamp)
                if done.triggered:
                    engine._schedule_call(
                        lambda stamp=stamp: det.on_condition(done, stamp))
                else:
                    det.on_condition(done, stamp)
        self.lost[extent] = extent.cursor
        if self.failed:
            return
        self.failed = True
        engine._schedule_call(lambda: done.fail(error))

    def retime(self) -> None:
        """After a failure: fire at the latest finish still to come (a
        fragment in service ends its transfer), or never."""
        engine = self.engine
        for disk, _ in self.members:
            disk._catch_up()
        now, cur, seq = engine._now, engine._cur_seq, self.seq
        due = None
        for _, extent in self.members:
            at = extent.finish
            if at is not None and (at > now or (at == now and seq > cur)) \
                    and (due is None or at > due):
                due = at
        if due == self.due:
            return
        self.due = due
        if due is not None:
            engine._push_commitment(self, due, seq)
        else:
            det = _sanitizer.active
            if det is not None:
                self._stamp(det)


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
        self._committed = all(disk._committed for disk in self.disks)

    # -- device interface ----------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.disks[0].block_size

    @property
    def total_blocks(self) -> int:
        # Only whole stripe units are addressable: a member's tail
        # shorter than a unit would map past the end of some member.
        per_disk = self.disks[0].total_blocks
        return (per_disk - per_disk % self.stripe_unit) * len(self.disks)

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
        self._check_range(lba, nblocks)
        return self._fragments(lba, nblocks)

    def _check_range(self, lba: int, nblocks: int) -> None:
        if nblocks < 1:
            raise DiskError(f"nblocks must be >= 1, got {nblocks}")
        end = lba + nblocks
        if lba < 0 or end > self.total_blocks:
            raise DiskError(f"range [{lba}, {end}) out of array bounds")

    def _fragments(self, lba: int, nblocks: int) -> List[Tuple[int, int, int]]:
        """The stripe map walk behind :meth:`split`, for a checked range:
        fragment ``i`` lands on member ``(first + i) % ndisks``."""
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
        base = physical_unit * unit  # the current physical unit's start
        phys = base + offset
        run = unit - offset
        left = nblocks
        fragments = []
        while run < left:
            fragments.append((disk_index, phys, run))
            left -= run
            run = unit
            disk_index += 1
            if disk_index == ndisks:
                disk_index = 0
                base += unit
            phys = base
        fragments.append((disk_index, phys, left))
        return fragments

    def submit_range(self, lba: int, nblocks: int, is_write: bool = False) -> Event:
        """Submit a logical range; the event succeeds with the sequence
        of completed member :class:`IORequest` fragments, in stripe
        order, once all land (over members that commit at enqueue the
        records are derived from the member extents when read).

        The first fragment failure fails the event with that error.  A
        range touching an offline member raises
        :class:`~repro.errors.DiskFailedError` before any fragment is
        queued."""
        self._check_range(lba, nblocks)
        disks = self.disks
        ndisks = len(disks)
        # The members the range touches: consecutive ones (mod ndisks)
        # from the first unit's, one per stripe unit.
        unit = self.stripe_unit
        first_unit = lba // unit
        touched = (lba + nblocks - 1) // unit - first_unit + 1
        members = min(touched, ndisks)
        for k in range(members):
            disk = disks[(first_unit + k) % ndisks]
            if disk.failed:
                raise DiskFailedError(f"disk {disk.name} is offline")
        engine = self.engine
        done = Event(engine)
        if self._committed:
            # One extent per member, from the stripe arithmetic: member
            # k holds units first_unit + k, + ndisks, ... (consecutive
            # physical units there), the first starting at the range's
            # offset into its unit and the last ending where the range
            # does; the members after the one holding the last unit hold
            # one unit fewer.  A committed disk's service depends only
            # on its own queue, so the order the members commit in
            # changes nothing.
            seq = engine._seq = engine._seq + 1
            landing = _CommittedRange(engine, touched if ndisks > 1 else 1,
                                      done, seq)
            now = engine._now
            physical, index = divmod(first_unit, ndisks)
            base = physical * unit
            start = base + lba - first_unit * unit
            run = ((touched - 1) // ndisks + 1) * unit
            last = (touched - 1) % ndisks  # the member with the last unit
            short = (first_unit + touched) * unit - lba - nblocks
            step = unit if ndisks > 1 else disks[0].total_blocks
            due = -1.0
            for k in range(members):
                disk = disks[index]
                end = base + run
                if k == last:
                    end -= short
                    run -= unit
                extent = _Extent(start, end, step, is_write, seq, landing, now)
                landing.members.append((disk, extent))
                finish = disk._commit(extent)
                if finish > due:
                    due = finish
                index += 1
                if index == ndisks:
                    index = 0
                    base += unit
                start = base
            landing.due = due
            engine._push_commitment(landing, due, seq)
            return done

        fragments = self._fragments(lba, nblocks)
        requests = []
        remaining = 0

        # Each fragment settles by a direct call from its disk's
        # completion entry (members that commit at start); only
        # the call that decides the range (the last to land, or the first
        # to fail) takes a heap slot, scheduled where it lands, and
        # triggers the array's event from there.  Same-instant entries
        # keep the order one completion event per fragment would give.
        def land(request: IORequest, error: Optional[Exception]) -> None:
            nonlocal remaining
            det = _sanitizer.active
            if det is not None:
                # The fragment's trigger, in the disk's context, accumulated
                # into the array's event.  Once a failure has triggered that
                # event, a late fragment's clock joins from a slot of its
                # own, so a waiter already queued at this instant misses it.
                stamp = Event(engine)
                det.on_trigger(stamp)
                if done.triggered:
                    engine._schedule_call(
                        lambda: det.on_condition(done, stamp))
                else:
                    det.on_condition(done, stamp)
            if remaining == 0:
                return  # an earlier fragment already failed the range
            if error is not None:
                remaining = 0
                engine._schedule_call(lambda: done.fail(error))
                return
            remaining -= 1
            if remaining == 0:
                engine._schedule_call(lambda: done.succeed(requests))

        for disk, phys, run in fragments:
            request = IORequest(phys, run, is_write)
            requests.append(request)
            remaining += 1
            disks[disk].enqueue(request, land)
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
