"""Mechanical disk model.

Service time of a request = controller overhead + seek + rotational
latency + media transfer.  The seek cost follows the standard
square-root curve between track-to-track and full-stroke times; the
rotational latency is half a revolution in deterministic mode or
uniform(0, revolution) from a seeded stream otherwise.

Defaults approximate a 7200 rpm desktop drive of the paper's era
(2004): ~8.5 ms average seek, ~4.2 ms average rotational latency,
50 MB/s media rate.

The one way in is ``enqueue(request, on_done)``: the disk settles the
request by calling ``on_done(request, error)`` exactly once, with
``error`` None when the transfer completed, a
:class:`~repro.errors.MediaError` when the media failed it, or a
:class:`~repro.errors.DiskFailedError` when :meth:`Disk.fail_disk`
took the device offline first.  The call is direct: it runs inside
the disk's completion step (or inside ``fail_disk``) and takes no heap
slot of its own, so a caller that needs one schedules it itself.

A disk serves one request at a time, and *commits* each one: it fixes
the request's start, service time and finish, and queues one heap
entry at the finish, ranked among same-instant entries by the engine
sequence number the request took when it was queued (``request.seq``).
There is one service and two commit points, chosen from the disk's
configuration:

* **At enqueue** — an FCFS disk with no fault injector (and
  deterministic rotation, or no generator of its own to draw from).
  Nothing can reorder or change its requests once queued, so
  ``enqueue`` fixes each one's start (``max(now, previous finish)``)
  and service time (from the head the previous request leaves) on the
  spot.  :class:`~repro.storage.raid.StripedArray` commits a whole
  range at once, as one extent per member disk (its physically
  contiguous run of fragments, split at stripe-unit boundaries), with
  one entry at its latest fragment's finish.  A lone request is a
  one-fragment extent.  Only an extent's first fragment may
  reposition; every later one continues the one before, so its finish
  is arithmetic, and the disk keeps the extent as one in-flight entry
  whatever its fragment count.
* **At start** — every other disk (SSTF, SCAN, C-SCAN, C-LOOK, or any
  disk with an injector).  Requests wait in the scheduler.  An idle
  disk starts at a call it schedules when a request arrives, so the
  scheduler chooses among every request queued before then; a busy
  one starts the next at the previous one's finish.  A start pops the
  scheduler at the head's cylinder and draws the injector's fault: a
  slowdown or a stall stretches the service, and a media error settles
  the request with a :class:`~repro.errors.MediaError` at its finish
  and breaks the stream.

A start at a start step is recorded there.  Every other start, and
every finish, is recorded by one catch-up — statistics, the busy
signal, the queue depth and tracer spans, per fragment — when the disk is next
looked at (through any of its collectors, its registry, its next
request or a completion entry), for every start and finish the clock
has passed by then: a read at time ``t`` sees the disk as it was at
``t``.  A completion entry catches up first, so a finish is recorded
at the latest in its own step.

``submit()`` is the :class:`~repro.sim.event.Event` adapter over
``enqueue``: the returned event succeeds with the request, or fails
with the error, from inside ``on_done``, so callers simply::

    done = disk.submit(IORequest(lba=0, nblocks=8))
    req = yield done
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import DiskError, DiskFailedError, MediaError
from repro.sanitizer import runtime as _sanitizer
from repro.sim import Counter, Engine, Tally, TimeWeighted
from repro.sim.event import Event
from repro.storage.geometry import DiskGeometry
from repro.storage.request import IORequest
from repro.storage.scheduler import DiskScheduler, FCFSScheduler, make_scheduler
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["DiskParams", "Disk"]

#: ``on_done(request, error)``: how the disk settles an enqueued request.
OnDone = Callable[[IORequest, Optional[Exception]], None]


class _Current:
    """A disk attribute read through :meth:`Disk._catch_up`, so whoever
    reads a disk's statistics sees every start and finish the clock has
    passed."""

    def __init__(self, slot: str) -> None:
        self.slot = slot

    def __get__(self, disk, owner=None):
        if disk is None:
            return self
        disk._catch_up()
        return getattr(disk, self.slot)


def _fragments_in(lba: int, end: int, unit: int) -> int:
    """How many fragments of an extent split at multiples of ``unit``
    lie in ``[lba, end)``."""
    return (end - 1) // unit - lba // unit + 1 if lba < end else 0


class _Queued:
    """What the disk's service reads of whatever it queued: fragments
    one caller queued back to back at once, the physically contiguous
    run ending at ``end``, split at multiples of ``unit``.  ``owner``
    (with ``settle``/``retime``) is what a failure settles them through,
    and ``seq`` ranks their completions.  ``finish`` is the last
    fragment's finish; ``cursor`` is the first fragment whose finish is
    not recorded yet, ``at`` and ``next`` its start and finish, and
    ``left`` the fragments from it on.  A failure sets ``owner`` to
    None, ``finish`` to the fragment in service's (and ``left`` to that
    one), or None; a served one drops its owner too."""

    __slots__ = ("end", "unit", "is_write", "seq", "owner", "submitted_at",
                 "finish", "cursor", "left", "at", "next")

    #: The caller's request, stamped as it moves (a lone request's).
    request: Optional[IORequest] = None


class _Extent(_Queued):
    """A striped range's run on one member, ``[lba, end)``.
    :meth:`Disk._commit` fixes ``start`` and ``first``, the first
    fragment's start and finish (it may reposition; on an extent of one
    fragment, ``at`` and ``next`` are those); every later fragment
    continues the one before, so its finish is the previous one's plus
    ``span`` (overhead and a whole unit's transfer), or ``tail`` for
    the last one (set only on an extent of more than one fragment)."""

    __slots__ = ("lba", "start", "first", "span", "tail")

    def __init__(self, lba: int, end: int, unit: int, is_write: bool,
                 seq: int, owner, now: float) -> None:
        self.lba = self.cursor = lba
        self.end = end
        self.unit = unit
        self.is_write = is_write
        self.seq = seq
        self.owner = owner
        self.submitted_at = now


class _Completion(_Queued):
    """A lone request on a disk: a one-fragment extent, and its heap
    entry, which at the request's finish settles it (see
    :meth:`Engine._push_commitment`) and, on a disk that commits at
    start, starts the next one."""

    __slots__ = ("disk", "request", "on_done", "due", "error")

    def __init__(self, disk: "Disk", request: IORequest, on_done: OnDone,
                 seq: int, end: int, now: float) -> None:
        self.disk = disk
        self.request = request
        self.on_done: Optional[OnDone] = on_done
        # The MediaError a fault drawn at the start settles it with.
        self.error: Optional[MediaError] = None
        self.cursor = request.lba
        self.end = self.unit = end  # no unit boundary inside the request
        self.is_write = request.is_write
        self.seq = seq
        self.owner = self
        self.submitted_at = now

    @property
    def lba(self) -> int:
        return self.request.lba

    def fire(self) -> None:
        disk = self.disk
        disk._catch_up()
        on_done = self.on_done
        # None: fail_disk settled it, and the transfer ended just now.
        if on_done is not None:
            det = _sanitizer.active
            if det is None:
                on_done(self.request, self.error)
            else:
                prev = det.enter(disk)  # the disk settles in its own context
                try:
                    on_done(self.request, self.error)
                finally:
                    det.leave(prev)
        if not disk._committed:
            disk._start_next()

    def settle(self, extent: _Queued, error: Exception) -> None:
        on_done, self.on_done = self.on_done, None
        request = self.request
        request._owner = None
        on_done(request, error)

    def retime(self) -> None:
        if self.finish is None:
            self.due = None  # never started: the entry (if any) lapses


@dataclass(frozen=True)
class DiskParams:
    """Timing parameters of the mechanical model.

    Attributes
    ----------
    rpm:
        Spindle speed; one revolution takes ``60 / rpm`` seconds.
    seek_track_to_track / seek_full_stroke:
        Seek-time endpoints (seconds); intermediate distances follow
        ``t2t + (full - t2t) * sqrt(d / max_d)``.
    transfer_rate:
        Sustained media rate, bytes/second.
    controller_overhead:
        Fixed per-request command processing cost (seconds).
    deterministic:
        If True, rotational latency is always half a revolution; if
        False it is sampled uniformly from a seeded stream.
    """

    rpm: float = 7200.0
    seek_track_to_track: float = 0.0008
    seek_full_stroke: float = 0.018
    transfer_rate: float = 50.0 * MB
    controller_overhead: float = 0.0002
    deterministic: bool = True

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise DiskError(f"rpm must be positive, got {self.rpm}")
        if self.seek_track_to_track < 0 or self.seek_full_stroke < 0:
            raise DiskError("seek times must be >= 0")
        if self.seek_full_stroke < self.seek_track_to_track:
            raise DiskError("full-stroke seek must be >= track-to-track seek")
        if self.transfer_rate <= 0:
            raise DiskError(f"transfer rate must be positive, got {self.transfer_rate}")
        if self.controller_overhead < 0:
            raise DiskError("controller overhead must be >= 0")

    @property
    def revolution_time(self) -> float:
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency(self) -> float:
        return self.revolution_time / 2.0


class Disk:
    """One disk: geometry + mechanics + a service that commits each
    request at enqueue or when it starts (see the module docstring).

    Parameters
    ----------
    engine:
        The simulation engine.
    geometry, params:
        Physical description; defaults model a 2004 desktop drive.
    scheduler:
        Policy name (``"fcfs"``, ``"sstf"``, ``"scan"``, ``"cscan"``,
        ``"clook"``) or a ready :class:`DiskScheduler` instance.
    rng:
        numpy Generator used only when ``params.deterministic`` is
        False (rotational-latency sampling).
    injector:
        Optional :class:`~repro.faults.FaultInjector`; when given, the
        disk consults it as each request starts (media errors,
        slowdowns, stalls) and ``disk.fail`` rules targeting this
        device are armed.

    The statistics (``requests_completed``, ``bytes_read``,
    ``bytes_written``, ``media_errors``, ``service_times``,
    ``response_times``, ``busy``), ``queue_depth`` and ``head_cylinder``
    are current whenever they are read.
    """

    requests_completed = _Current("_completed")
    bytes_read = _Current("_bytes_read")
    bytes_written = _Current("_bytes_written")
    media_errors = _Current("_media_errors")
    service_times = _Current("_service_times")
    response_times = _Current("_response_times")
    busy = _Current("_busy")
    #: Requests waiting for service (not the one being served).
    queue_depth = _Current("_depth")

    def __init__(
        self,
        engine: Engine,
        geometry: Optional[DiskGeometry] = None,
        params: Optional[DiskParams] = None,
        scheduler: "str | DiskScheduler" = "fcfs",
        rng: Optional[np.random.Generator] = None,
        name: str = "disk",
        injector=None,
    ) -> None:
        self.engine = engine
        self.geometry = geometry or DiskGeometry()
        self.params = params or DiskParams()
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, self.geometry)
        self.scheduler: DiskScheduler = scheduler
        self._rng = rng
        self.name = name

        # The head as the last committed request leaves it: what
        # service_time reads.
        self._head_cylinder = 0
        self._last_end_lba: Optional[int] = None
        self._injector = injector
        self.failed = False
        # Requests waiting for service (not the one in service), and
        # the most there have been at once.
        self._depth = 0
        self.queue_max_depth = 0
        # Commit at enqueue, or at start (see the module docstring).
        self._committed = (type(scheduler) is FCFSScheduler
                           and injector is None
                           and (self.params.deterministic or rng is None))
        # Committed extents with a finish not recorded yet, in service
        # order (at most the request in service when committing at
        # start); whether the first of them has started its service
        # (its start was recorded); and the head as the last served
        # fragment left it.
        self._inflight: Deque[_Queued] = deque()
        self._head_started = False
        self._served_cylinder = 0
        self._served_end_lba: Optional[int] = None
        # Committing at start: no request in service and no start
        # scheduled, so the next request schedules one.
        self._idle = True

        # Statistics (registered with the engine's metrics registry so
        # one snapshot covers every device on the machine).
        self._completed = Counter(f"{name}.completed")
        self._bytes_read = Counter(f"{name}.bytes_read")
        self._bytes_written = Counter(f"{name}.bytes_written")
        self._media_errors = Counter(f"{name}.media_errors")
        self._service_times = Tally(f"{name}.service")
        self._response_times = Tally(f"{name}.response")
        self._busy = TimeWeighted(engine, initial=0.0)
        reg = engine.metrics
        for collector in (self._completed, self._bytes_read,
                          self._bytes_written, self._media_errors,
                          self._service_times, self._response_times):
            reg.register(collector.name, collector, device=name)
        reg.register(f"{name}.busy", self._busy, device=name)
        reg.gauge(f"{name}.queue_depth", lambda: self.queue_depth, device=name)
        reg.gauge(f"{name}.queue_max_depth",
                  lambda: self.queue_max_depth, device=name)
        reg.add_settler(self._catch_up)

        if _sanitizer.active is not None:
            _sanitizer.active.on_spawn(self, f"{name}.arm")
        if injector is not None:
            injector.register_disk(self)

    # -- device interface (shared with StripedArray) ------------------------

    @property
    def block_size(self) -> int:
        return self.geometry.block_size

    @property
    def total_blocks(self) -> int:
        return self.geometry.total_blocks

    @property
    def head_cylinder(self) -> int:
        """Current arm position (cylinder index)."""
        self._catch_up()
        return self._served_cylinder

    def enqueue(self, request: IORequest, on_done: OnDone) -> None:
        """Queue ``request``; the disk calls ``on_done(request, error)``
        exactly once when it settles (see the module docstring)."""
        if self.failed:
            raise DiskFailedError(f"disk {self.name} is offline")
        end_lba = request.lba + request.nblocks
        if end_lba > self.geometry.total_blocks:
            raise DiskError(
                f"request [{request.lba}, {end_lba}) exceeds disk "
                f"of {self.geometry.total_blocks} blocks"
            )
        if request._owner is not None:  # queued or in flight, here or elsewhere
            raise DiskError(f"request {request.request_id} already submitted")
        engine = self.engine
        seq = engine._seq = engine._seq + 1
        now = request.submitted_at = engine._now
        completion = request._owner = _Completion(
            self, request, on_done, seq, end_lba, now)
        request.seq = seq
        if self._committed:
            due = completion.due = self._commit(completion)
            engine._push_commitment(completion, due, seq)
            return
        self.scheduler.push(request)
        depth = self._depth = self._depth + 1
        if depth > self.queue_max_depth:
            self.queue_max_depth = depth
        tracer = engine.tracer
        if tracer.enabled:
            tracer.counter(f"{self.name}.queue", "storage", depth)
        if self._idle:
            # Start at the next slot: the scheduler chooses among every
            # request queued at this instant before then.
            self._idle = False
            engine._schedule_call(self._start_next)

    def submit(self, request: IORequest) -> Event:
        """Queue ``request``; the returned event succeeds with it when
        the transfer completes, or fails with the disk's error."""
        done = Event(self.engine)

        def settle(request: IORequest, error: Optional[Exception]) -> None:
            if error is None:
                done.succeed(request)
            else:
                # Guard against "failed event nobody waited on": background
                # fetchers may have been abandoned by a timed-out retry.
                done.add_callback(lambda ev: None)
                done.fail(error)

        self.enqueue(request, settle)
        return done

    def submit_range(self, lba: int, nblocks: int, is_write: bool = False) -> Event:
        """Convenience: build and submit a request for a block range."""
        return self.submit(IORequest(lba=lba, nblocks=nblocks, is_write=is_write))

    # -- failure lifecycle ---------------------------------------------------

    def fail_disk(self, reason: str = "injected failure") -> None:
        """Take the whole device offline.

        Every queued (and in-service) request fails with
        :class:`~repro.errors.DiskFailedError`, in submission order;
        new submissions raise synchronously until :meth:`repair` is
        called.  Requests that have not started never happen; the one
        in service ends its transfer unrecorded.  An extent splits
        where the failure lands: its finished fragments stay recorded,
        the one in service ends its transfer, and the rest never
        happen.
        """
        if self.failed:
            return
        self.failed = True
        error = DiskFailedError(f"disk {self.name} failed: {reason}")
        self._catch_up()
        inflight = self._inflight
        pending = [extent for extent in inflight if extent.owner is not None]
        keep = 1 if self._head_started else 0
        while len(inflight) > keep:
            inflight.pop().finish = None
        if not self._committed:
            # Drain the scheduler from where the last served request
            # left the head (its policy may keep state across pops).
            for _ in range(self._depth):
                completion = self.scheduler.pop(self._served_cylinder)._owner
                completion.finish = None
                pending.append(completion)
        self._depth = 0
        if keep:
            # The fragment in service ends its transfer: the extent
            # ends there.
            serving = inflight[0]
            cursor, unit = serving.cursor, serving.unit
            end_lba = min(serving.end, cursor + unit - cursor % unit)
            serving.finish = serving.next
            serving.left = 1
            self._head_cylinder = (
                (end_lba - 1) // self.geometry.blocks_per_cylinder)
            self._last_end_lba = end_lba
        else:
            self._head_cylinder = self._served_cylinder
            self._last_end_lba = self._served_end_lba
        owners = []
        for extent in sorted(pending, key=attrgetter("seq")):
            owner, extent.owner = extent.owner, None
            if owner not in owners:  # identity: owners define no __eq__
                owners.append(owner)
            owner.settle(extent, error)
        for owner in owners:
            owner.retime()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("disk.failed", "storage", device=self.name,
                           reason=reason)

    def repair(self) -> None:
        """Bring a failed device back online (empty, ready for rebuild)."""
        if not self.failed:
            return
        self.failed = False
        # The stream broke, unless a request that was in service when the
        # disk failed is still ending its transfer: it continues there.
        self._catch_up()
        if not self._inflight:
            self._last_end_lba = self._served_end_lba = None
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("disk.repaired", "storage", device=self.name)

    # -- the service -----------------------------------------------------------
    #
    # A committed fragment's life is two positions, each a (time, seq)
    # the clock reaches like a heap entry's: its start, which is the
    # previous fragment's finish or, on an idle disk, where its extent
    # was queued (time: then, seq: the extent's), and its finish (seq:
    # the extent's).  The disk records both lazily, in order, once
    # (engine._now, engine._cur_seq) has reached them: in _catch_up.  A
    # start at a start step (_start_next) is recorded on the spot.

    def _commit(self, extent: _Queued) -> float:
        """Fix the service of ``extent``'s fragments, queued back to
        back behind what is in flight on a disk that commits at enqueue;
        returns the last one's finish.  ``enqueue`` commits a lone
        request, a striped range one extent per member."""
        engine = self.engine
        inflight = self._inflight
        if inflight:
            self._catch_up()
        # Caught up, what is left has not finished: queue behind it.
        start = extent.at = (inflight[-1].finish if inflight
                             else engine._now)
        lba = extent.cursor
        end = extent.end
        unit = extent.unit
        stop = lba + unit - lba % unit
        if stop > end:
            stop = end
        if lba == self._last_end_lba:
            # A sequential continuation: service_time's arithmetic.
            p = self.params
            finish = start + (p.controller_overhead + (stop - lba)
                              * self.geometry.block_size / p.transfer_rate)
        else:
            finish = start + self._service(lba, stop - lba)
        extent.next = finish
        count = 1
        if stop < end:
            # Every later fragment continues the one before: whole
            # units, then what is left of the last one.  (A lone
            # fragment's ``at`` and ``next`` never move: they are its
            # start and finish.)
            extent.start = start
            extent.first = finish
            p = self.params
            overhead = p.controller_overhead
            rate = p.transfer_rate
            block_size = self.geometry.block_size
            whole, rest = divmod(end - stop, unit)
            span = extent.span = extent.tail = (
                overhead + unit * block_size / rate)
            for _ in range(whole):
                finish = finish + span
            if rest:
                tail = extent.tail = overhead + rest * block_size / rate
                finish = finish + tail
                whole += 1
            count += whole
        extent.finish = finish
        extent.left = count
        inflight.append(extent)
        self._head_cylinder = (end - 1) // self.geometry.blocks_per_cylinder
        self._last_end_lba = end
        depth = self._depth
        tracer = engine.tracer
        if tracer.enabled:  # one sample per fragment, as each was queued
            for queued in range(depth + 1, depth + count + 1):
                tracer.counter(f"{self.name}.queue", "storage", queued)
        # The depth only rises in a run: its final value is the highest.
        depth = self._depth = depth + count
        if depth > self.queue_max_depth:
            self.queue_max_depth = depth
        return finish

    def _start_next(self) -> None:
        """On a disk that commits at start: start the request the
        scheduler picks and commit it, or go idle on an empty queue
        (fail_disk may have drained it since the start was scheduled)."""
        if not self._depth:
            self._idle = True
            return
        request = self.scheduler.pop(self._head_cylinder)
        self._depth -= 1
        self._busy.record(1.0)
        self._head_started = True
        completion = request._owner
        now = request.started_at = completion.at = self.engine._now
        service = self._service(request.lba, request.nblocks)
        if self._injector is not None:
            fault = self._injector.disk_fault(
                self.name, request.lba, request.nblocks)
            if fault is not None:
                kind, spec = fault
                if kind == "disk.slow":
                    service *= spec.slow_factor
                elif kind == "disk.stall":
                    service += spec.delay
                elif kind == "disk.media_error":
                    completion.error = MediaError(
                        f"disk {self.name}: unrecoverable read at lba "
                        f"{request.lba}+{request.nblocks}")
        end_lba = completion.end
        self._head_cylinder = (end_lba - 1) // self.geometry.blocks_per_cylinder
        # A media error breaks the stream: the next request repositions.
        self._last_end_lba = end_lba if completion.error is None else None
        completion.left = 1
        due = completion.due = completion.next = completion.finish = \
            now + service
        self._inflight.append(completion)
        self.engine._push_commitment(completion, due, completion.seq)

    def _catch_up(self) -> None:
        """Record every committed start and finish the clock has reached:
        the busy signal, the queue depth, statistics and tracer spans,
        as they stood at each of them."""
        inflight = self._inflight
        if not inflight:
            return
        engine = self.engine
        now = engine._now
        cur = engine._cur_seq
        extent = inflight[0]
        seq = extent.seq
        # The busy signal is 0 while the disk idles and 1 while it
        # serves, so a rise adds nothing to its area and a fragment's
        # service adds the float its ``record`` call would: the signal
        # is kept here directly.
        busy = self._busy
        started = 0  # starts recorded
        if not self._head_started:  # it was queued on an idle disk
            at = extent.at
            if at > now or (at == now and seq > cur):
                return
            self._head_started = True
            started = 1
            busy._last_time = at
            busy._last_value = 1.0
            if busy._max < 1.0:
                busy._max = 1.0
            request = extent.request
            if request is not None:
                request.started_at = at
        at = extent.next
        if at > now or (at == now and seq > cur):
            self._depth -= started
            return
        # Finishes to record, each maybe followed by the next start, in
        # one loop.  Counter.add's and Tally.record's checks hold by
        # construction (whole counts, finite float times), so the totals
        # are summed here and the tallies appended to directly.
        area = busy._area
        service = self._service_times._values
        response = self._response_times._values
        tracing = engine.tracer.enabled
        faults = not self._committed  # only a start draws a fault
        completed = read = written = 0
        broke = False
        while True:
            # The head extent's fragment at its cursor finished at ``at``.
            owner = extent.owner
            # None: a failure settled the extent, and only the fragment
            # that was in service is left; an error: a media error.
            recorded = owner is not None and (not faults
                                              or owner.error is None)
            first = extent.cursor
            start = extent.at
            left = total = extent.left
            submitted = extent.submitted_at
            while True:
                took = at - start
                area += took
                if recorded:
                    service.append(took)
                    response.append(at - submitted)
                    if tracing:
                        self._trace_completion(extent, left, start, at)
                elif owner is not None:  # a media error
                    self._media_errors.value += 1
                    if tracing:
                        self._trace_completion(extent, left, start, at,
                                               "MediaError")
                left -= 1
                if not left:
                    break
                # The next fragment continues this one, from right here.
                start = at
                at = start + (extent.span if left > 1 else extent.tail)
                if at > now or (at == now and seq > cur):
                    break
            if left:
                # It stopped mid-extent (so it has more than one
                # fragment, on a disk that commits at enqueue: all
                # recorded), the last finish followed by the next start.
                finished = total - left
                started += finished
                completed += finished
                unit = extent.unit
                cursor = extent.cursor = (first // unit + finished) * unit
                extent.left = left
                if extent.is_write:
                    written += cursor - first
                else:
                    read += cursor - first
                extent.at = start
                extent.next = at
                busy._last_time = start
                break
            started += total - 1
            if owner is None:  # it ends after the fragment in service
                unit = extent.unit
                cursor = min(extent.end, first + unit - first % unit)
            else:
                cursor = extent.end
                if recorded:
                    completed += total
                    if extent.is_write:
                        written += cursor - first
                    else:
                        read += cursor - first
            extent.cursor = cursor
            extent.owner = None  # served: drop the owner's cycle
            inflight.popleft()
            request = extent.request
            if request is not None:
                request.completed_at = at
                request._owner = None
            # A media error broke the stream.
            broke = not recorded and owner is not None
            if not inflight:
                busy._last_time = at
                busy._last_value = 0.0  # idle
                self._head_started = False
                break
            # The next one was queued behind this one (_commit caught
            # up first), so it starts right here.
            extent = inflight[0]
            seq = extent.seq
            started += 1
            request = extent.request
            if request is not None:
                request.started_at = at
            finish = extent.next
            if finish > now or (finish == now and seq > cur):
                busy._last_time = at
                break
            at = finish
        busy._area = area
        self._depth -= started
        self._served_cylinder = (
            (cursor - 1) // self.geometry.blocks_per_cylinder)
        self._served_end_lba = None if broke else cursor
        if completed:
            self._completed.value += completed
            if read:
                self._bytes_read.value += read * self.geometry.block_size
            if written:
                self._bytes_written.value += (
                    written * self.geometry.block_size)

    def _trace_completion(self, extent: _Queued, left: int, started: float,
                          at: float, error: Optional[str] = None) -> None:
        """The span of ``extent``'s fragment with ``left`` fragments to
        go (itself included), served from ``started`` to ``at``, and the
        queue depth it left."""
        tracer = self.engine.tracer
        end, unit = extent.end, extent.unit
        index = (end - 1) // unit - left + 1  # of its stripe unit
        lba = max(extent.lba, index * unit)
        nblocks = min(end, index * unit + unit) - lba
        name = f"disk.{'write' if extent.is_write else 'read'}"
        if error is not None:
            tracer.complete(name, "storage", started, end=at,
                            device=self.name, lba=lba, nblocks=nblocks,
                            error=error)
            return
        tracer.complete(
            name, "storage", started, end=at,
            device=self.name, lba=lba, nblocks=nblocks,
            wait_ms=round((started - extent.submitted_at) * 1e3, 6),
        )
        if self._committed:
            # Waiters when it finished: the rest of its extent and the
            # fragments queued by then (at an exact tie, only the one
            # queued behind it, which starts right then).
            waiting = left - 1
            for queued in islice(self._inflight, 1, None):
                submitted = queued.submitted_at
                if submitted < at:
                    waiting += _fragments_in(queued.cursor, queued.end,
                                             queued.unit)
                    continue
                if submitted == at and queued.at == at:
                    waiting += 1
                break
        else:
            waiting = self._depth  # recorded in its own completion step
        tracer.counter(f"{self.name}.queue", "storage", waiting, at=at)

    def _fragment_times(self, extent: _Extent
                        ) -> List[Tuple[int, int, float, float]]:
        """Each fragment of ``extent`` as ``(lba, stop, start, finish)``:
        the arithmetic :meth:`_commit` and :meth:`_catch_up` run."""
        p = self.params
        overhead = p.controller_overhead
        rate = p.transfer_rate
        block_size = self.geometry.block_size
        lba, end, unit = extent.lba, extent.end, extent.unit
        stop = min(end, lba + unit - lba % unit)
        if stop == end:  # one fragment: see _commit
            return [(lba, end, extent.at, extent.next)]
        finish = extent.first
        times = [(lba, stop, extent.start, finish)]
        while stop < end:
            lba = stop
            stop = min(end, lba + unit)
            start = finish
            finish = start + (overhead + (stop - lba) * block_size / rate)
            times.append((lba, stop, start, finish))
        return times

    def _records(self, extent: _Extent) -> List[IORequest]:
        """``extent``'s fragments as :class:`IORequest` records, stamped
        as far as they have been recorded."""
        inflight = self._inflight
        cursor = extent.cursor
        serving = (self._head_started and bool(inflight)
                   and inflight[0] is extent)
        records = []
        for lba, stop, start, finish in self._fragment_times(extent):
            request = IORequest(lba, stop - lba, extent.is_write,
                                submitted_at=extent.submitted_at)
            request.seq = extent.seq
            if lba < cursor:
                request.started_at = start
                request.completed_at = finish
            elif lba == cursor and serving:
                request.started_at = start
            records.append(request)
        return records

    # -- timing model --------------------------------------------------------

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Arm move cost between two cylinders (0 if already there)."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        p = self.params
        max_d = max(1, self.geometry.cylinders - 1)
        return p.seek_track_to_track + (
            p.seek_full_stroke - p.seek_track_to_track
        ) * math.sqrt(distance / max_d)

    def rotational_latency(self) -> float:
        """Rotational delay for the next request."""
        p = self.params
        if p.deterministic or self._rng is None:
            return p.avg_rotational_latency
        return float(self._rng.uniform(0.0, p.revolution_time))

    def transfer_time(self, nblocks: int) -> float:
        """Media transfer cost for ``nblocks`` consecutive blocks."""
        return nblocks * self.geometry.block_size / self.params.transfer_rate

    def service_time(self, request: IORequest) -> float:
        """Positioning + transfer cost from the current head position.

        A sequential continuation — ``request`` starts exactly where
        the previous request on this disk ended, so the drive keeps
        streaming without repositioning (the firmware's
        sequential-detection path) — pays only controller overhead and
        media transfer; a random request adds seek + rotation.
        """
        return self._service(request.lba, request.nblocks)

    def _service(self, lba: int, nblocks: int) -> float:
        # transfer_time(), inlined: this runs once per request.
        p = self.params
        geometry = self.geometry
        transfer = nblocks * geometry.block_size / p.transfer_rate
        if lba == self._last_end_lba:  # None: no stream to continue
            return p.controller_overhead + transfer
        target = geometry.cylinder_of(lba)
        return (
            p.controller_overhead
            + self.seek_time(self._head_cylinder, target)
            + self.rotational_latency()
            + transfer
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Disk {self.name} head@{self._head_cylinder} "
            f"queued={self._depth}>"
        )
