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

A disk serves its queue in one of two ways, chosen from its
configuration:

* **Committed at enqueue** — an FCFS disk with no fault injector (and
  deterministic rotation, or no generator of its own to draw from).
  Nothing can reorder or change its requests once queued, so
  ``enqueue`` fixes each one's start (``max(now, previous finish)``),
  service time (from the head the previous request leaves) and finish
  on the spot, and queues one heap entry at the finish.
  :class:`~repro.storage.raid.StripedArray` commits a whole range at
  once, with one entry at its latest fragment's finish.  Statistics,
  the busy signal, the queue depth and tracer spans are recorded when
  the disk is next looked at (through any of its collectors, its
  registry or its next request), for every start and finish the clock
  has passed by then: a read at time ``t`` sees what a serving arm
  would show at ``t``.
* **The arm** — every other disk (SSTF, SCAN, C-SCAN, C-LOOK, or any
  disk with an injector, whose faults are drawn per serviced request):
  a callback state machine, driven by the engine, that drains the
  attached scheduler and decides each request when its service starts.

Both rank a completion among same-instant heap entries by the engine
sequence number taken when its request was queued (``request.seq``),
so the two give the same schedule for the same FCFS workload.

``submit()`` is the :class:`~repro.sim.event.Event` adapter over
``enqueue``: the returned event succeeds with the request, or fails
with the error, from inside ``on_done``, so callers simply::

    done = disk.submit(IORequest(lba=0, nblocks=8))
    req = yield done
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Deque, Dict, Optional, Tuple

import numpy as np

from repro.errors import DiskError, DiskFailedError, MediaError
from repro.sanitizer import runtime as _sanitizer
from repro.sim import Counter, Engine, Tally, TimeWeighted
from repro.sim.event import Event
from repro.storage.geometry import DiskGeometry
from repro.storage.request import IORequest
from repro.storage.scheduler import DiskScheduler, FCFSScheduler, make_scheduler
from repro.units import MB

__all__ = ["DiskParams", "Disk"]

#: ``on_done(request, error)``: how the disk settles an enqueued request.
OnDone = Callable[[IORequest, Optional[Exception]], None]


class _Current:
    """A disk attribute read through :meth:`Disk._catch_up`, so whoever
    reads a committing disk's statistics sees every start and finish
    the clock has passed."""

    def __init__(self, slot: str) -> None:
        self.slot = slot

    def __get__(self, disk, owner=None):
        if disk is None:
            return self
        disk._catch_up()
        return getattr(disk, self.slot)


class _Completion:
    """The heap entry of one request queued on a committing disk: at the
    request's finish it settles it (see :meth:`Engine._push_commitment`)."""

    __slots__ = ("disk", "request", "on_done", "due")

    def __init__(self, disk: "Disk", request: IORequest,
                 on_done: OnDone) -> None:
        self.disk = disk
        self.request = request
        self.on_done: Optional[OnDone] = on_done

    def fire(self) -> None:
        disk = self.disk
        disk._catch_up()
        on_done = self.on_done
        if on_done is None:
            return  # fail_disk settled it; the transfer ended just now
        det = _sanitizer.active
        if det is None:
            on_done(self.request, None)
            return
        prev = det.enter(disk)  # the disk settles in its own context
        try:
            on_done(self.request, None)
        finally:
            det.leave(prev)

    def settle(self, request: IORequest, error: Exception) -> None:
        on_done, self.on_done = self.on_done, None
        on_done(request, error)

    def retime(self) -> None:
        if self.request._finish is None:
            self.due = None  # never started: the entry lapses


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
    """One disk: geometry + mechanics + FCFS service committed at
    enqueue, or a scheduler-driven arm (see the module docstring).

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
        arm consults it per serviced request (media errors, slowdowns,
        stalls) and ``disk.fail`` rules targeting this device are armed.

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

        # The head as the last queued request leaves it (committed) or
        # as the last served one left it (arm): what service_time reads.
        self._head_cylinder = 0
        self._last_end_lba: Optional[int] = None
        self._injector = injector
        self.failed = False
        # Requests waiting for service (not the one in service), and
        # the most there have been at once.
        self._depth = 0
        self.queue_max_depth = 0
        self._committed = (type(scheduler) is FCFSScheduler
                           and injector is None
                           and (self.params.deterministic or rng is None))
        # Committed requests whose finish has not been recorded yet, in
        # service order (always empty on an arm disk).
        self._inflight: Deque[IORequest] = deque()

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

        if _sanitizer.active is not None:
            _sanitizer.active.on_spawn(self, f"{name}.arm")
        if self._committed:
            # Whether the first queued request has started its service
            # (its start was recorded), and the head as the last served
            # request left it.
            self._head_started = False
            self._served_cylinder = 0
            self._served_end_lba: Optional[int] = None
            reg.add_settler(self._catch_up)
        else:
            # Arm state: the pending wake-up while idle, the request
            # (and its injected fault) while serving, and request_id ->
            # (request, on_done) for every request queued or in
            # service, in submission order.
            self._wakeup: Optional[Event] = None
            self._serving: Optional[IORequest] = None
            self._fault = None
            self._completions: Dict[int, Tuple[IORequest, OnDone]] = {}
            engine._schedule_call(self._arm_start)
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
        if self._committed:
            self._catch_up()
            return self._served_cylinder
        return self._head_cylinder

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
        engine = self.engine
        if self._committed:
            if request._owner is not None:
                raise DiskError(
                    f"request {request.request_id} already submitted")
            seq = engine._seq = engine._seq + 1
            completion = _Completion(self, request, on_done)
            due = completion.due = self._commit(request, seq, completion)
            engine._push_commitment(completion, due, seq)
            return
        if request.request_id in self._completions:
            raise DiskError(f"request {request.request_id} already submitted")
        request.seq = engine._seq = engine._seq + 1
        request.submitted_at = engine._now
        self._completions[request.request_id] = (request, on_done)
        self.scheduler.push(request)
        depth = self._depth = self._depth + 1
        if depth > self.queue_max_depth:
            self.queue_max_depth = depth
        tracer = engine.tracer
        if tracer.enabled:
            tracer.counter(f"{self.name}.queue", "storage", depth)
        if self._wakeup is not None:
            wake, self._wakeup = self._wakeup, None
            wake.succeed()

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
        :class:`~repro.errors.DiskFailedError`; new submissions raise
        synchronously until :meth:`repair` is called.
        """
        if self.failed:
            return
        self.failed = True
        error = DiskFailedError(f"disk {self.name} failed: {reason}")
        if self._committed:
            self._fail_committed(error)
        else:
            # Drain the scheduler so the arm never services stale requests.
            for _ in range(self._depth):
                self.scheduler.pop(self._head_cylinder)
            self._depth = 0
            pending = list(self._completions.values())
            self._completions.clear()
            for request, on_done in pending:
                on_done(request, error)
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
        if not self._committed:
            self._last_end_lba = None
        else:
            self._catch_up()
            if not self._inflight:
                self._last_end_lba = self._served_end_lba = None
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("disk.repaired", "storage", device=self.name)

    # -- committed service -----------------------------------------------------
    #
    # A committed request's life is two positions, each a (time, seq)
    # the clock reaches like a heap entry's: its start, which is the
    # previous request's finish or, on an idle disk, where it was
    # queued (time: then, seq: its own), and its finish (seq: its own).
    # The disk records both lazily, in order, once (engine._now,
    # engine._cur_seq) has reached them: in _catch_up.

    def _commit(self, request: IORequest, seq: int, owner) -> float:
        """Fix ``request``'s service on this committing disk; returns
        its finish.  ``seq`` ranks its completion; ``owner`` (with
        ``settle``/``retime``) is what a failure settles it through."""
        engine = self.engine
        inflight = self._inflight
        if inflight:
            self._catch_up()
        now = request.submitted_at = engine._now
        # Caught up, what is left has not finished: queue behind it.
        start = inflight[-1]._finish if inflight else now
        finish = start + self.service_time(request)
        end_lba = request.lba + request.nblocks
        self._head_cylinder = (end_lba - 1) // self.geometry.blocks_per_cylinder
        self._last_end_lba = end_lba
        request._start = start
        request._finish = finish
        request.seq = seq
        request._owner = owner
        inflight.append(request)
        depth = self._depth = self._depth + 1
        if depth > self.queue_max_depth:
            self.queue_max_depth = depth
        tracer = engine.tracer
        if tracer.enabled:
            tracer.counter(f"{self.name}.queue", "storage", depth)
        return finish

    def _catch_up(self) -> None:
        """Record every committed start and finish the clock has reached:
        the busy signal, the queue depth, statistics and tracer spans,
        as the arm would have at each of them."""
        inflight = self._inflight
        if not inflight:
            return
        engine = self.engine
        now = engine._now
        cur = engine._cur_seq
        busy = self._busy
        request = inflight[0]
        if not self._head_started:  # it was queued on an idle disk
            at = request._start
            if at > now or (at == now and request.seq > cur):
                return
            self._head_started = True
            self._depth -= 1
            busy.record(1.0, at)
            request.started_at = at
        at = request._finish
        if at > now or (at == now and request.seq > cur):
            return
        # Finishes to record, each maybe followed by the next start.
        # Counter.add's and Tally.record's checks hold by construction
        # (whole counts, finite float times), so the totals are summed
        # here and the tallies appended to directly.
        service = self._service_times._values
        response = self._response_times._values
        tracing = engine.tracer.enabled
        completed = read = written = 0
        while True:
            inflight.popleft()
            request.completed_at = at
            retired = request
            if request._owner is not None:  # else fail_disk settled it
                request._owner = None
                completed += 1
                if request.is_write:
                    written += request.nblocks
                else:
                    read += request.nblocks
                service.append(at - request.started_at)
                response.append(at - request.submitted_at)
                if tracing:
                    self._trace_completion(request, at)
            if not inflight:
                busy.record(0.0, at)  # idle
                self._head_started = False
                break
            # The next one was queued behind this one (_commit caught
            # up first), so it starts right here.
            request = inflight[0]
            self._depth -= 1
            busy.record(1.0, at)
            request.started_at = at
            at = request._finish
            if at > now or (at == now and request.seq > cur):
                self._head_started = True
                break
        end_lba = self._served_end_lba = retired.lba + retired.nblocks
        self._served_cylinder = (
            (end_lba - 1) // self.geometry.blocks_per_cylinder)
        if completed:
            block_size = self.geometry.block_size
            self._completed.value += completed
            self._bytes_read.value += read * block_size
            self._bytes_written.value += written * block_size

    def _trace_completion(self, request: IORequest, at: float) -> None:
        tracer = self.engine.tracer
        started = request.started_at
        tracer.complete(
            f"disk.{'write' if request.is_write else 'read'}",
            "storage", started, end=at,
            device=self.name, lba=request.lba, nblocks=request.nblocks,
            wait_ms=round((started - request.submitted_at) * 1e3, 6),
        )
        # Waiters when it finished: those queued by then (at an exact
        # tie, only the one queued behind it, which starts right then).
        waiting = 0
        for queued in self._inflight:
            if queued.submitted_at > at or (
                    queued.submitted_at == at and queued._start != at):
                break
            waiting += 1
        tracer.counter(f"{self.name}.queue", "storage", waiting, at=at)

    def _fail_committed(self, error: DiskFailedError) -> None:
        """fail_disk on a committing disk: requests that have not started
        never happen; the one in service ends its transfer unrecorded."""
        self._catch_up()
        inflight = self._inflight
        pending = [request for request in inflight
                   if request._owner is not None]
        keep = 1 if self._head_started else 0
        while len(inflight) > keep:
            inflight.pop()._finish = None
        self._depth = 0
        if keep:
            serving = inflight[0]
            end_lba = serving.lba + serving.nblocks
            self._head_cylinder = (
                (end_lba - 1) // self.geometry.blocks_per_cylinder)
            self._last_end_lba = end_lba
        else:
            self._head_cylinder = self._served_cylinder
            self._last_end_lba = self._served_end_lba
        owners = []
        for request in pending:
            owner, request._owner = request._owner, None
            if owner not in owners:  # identity: owners define no __eq__
                owners.append(owner)
            owner.settle(request, error)
        for owner in owners:
            owner.retime()

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
        # transfer_time(), inlined: this runs once per request.
        p = self.params
        geometry = self.geometry
        transfer = request.nblocks * geometry.block_size / p.transfer_rate
        if request.lba == self._last_end_lba:  # None: no stream to continue
            return p.controller_overhead + transfer
        target = geometry.cylinder_of(request.lba)
        return (
            p.controller_overhead
            + self.seek_time(self._head_cylinder, target)
            + self.rotational_latency()
            + transfer
        )

    # -- the arm -------------------------------------------------------------
    #
    # The arm is a callback state machine driven by the engine: idle
    # (waiting on ``_wakeup``) -> serving (one service event per
    # request, queued with the seq its request took at enqueue) ->
    # complete -> serving the next request or idle again.  An exception
    # in a step propagates out of ``Engine.run``.  Under an active race
    # detector every step runs in the arm's own sanitizer context.
    #
    # A request costs one frame per transition: ``enqueue``, ``_serve``
    # (called from the previous ``_complete`` or a wake-up) and
    # ``_complete``.  The disk counts its own queue depth, so no step
    # asks the scheduler for its length.

    def _arm_start(self) -> None:
        det = _sanitizer.active
        if det is None:
            self._serve()
        else:
            self._sanitized_step(det, None, self._serve)

    def _on_wake(self, event: Event) -> None:
        det = _sanitizer.active
        if det is None:
            self._serve()
        else:
            self._sanitized_step(det, event, self._serve)

    def _on_served(self, event: Event) -> None:
        det = _sanitizer.active
        if det is None:
            self._complete()
        else:
            self._sanitized_step(det, event, self._complete)

    def _sanitized_step(self, det, event: Optional[Event], step) -> None:
        # The first step is a start (no event), not a wake-up.
        prev = det.resume(self, event)
        try:
            step()
        finally:
            det._current = prev

    def _serve(self) -> None:
        """Start the next queued request, or go idle on an empty queue."""
        engine = self.engine
        if not self._depth:
            # fail_disk() may have drained the queue between a submit's
            # wake-up and this step; then too, wait for the next one.
            wake = self._wakeup = Event(engine)
            wake.callbacks.append(self._on_wake)
            self._busy.record(0.0)
            return
        self._busy.record(1.0)
        request = self.scheduler.pop(self._head_cylinder)
        self._depth -= 1
        request.started_at = engine._now
        service = self.service_time(request)
        fault = None
        if self._injector is not None:
            fault = self._injector.disk_fault(
                self.name, request.lba, request.nblocks)
            if fault is not None:
                kind, spec = fault
                if kind == "disk.slow":
                    service *= spec.slow_factor
                elif kind == "disk.stall":
                    service += spec.delay
        self._serving = request
        self._fault = fault
        # A Timeout, but ranked by the seq its request took at enqueue.
        served = Event(engine)
        served._value = None
        if _sanitizer.active is not None:
            _sanitizer.active.on_trigger(served)
        served.callbacks.append(self._on_served)
        heappush(engine._queue, (engine._now + service, request.seq, 1, served))

    def _complete(self) -> None:
        request = self._serving
        fault = self._fault
        self._serving = self._fault = None
        end_lba = request.lba + request.nblocks
        # Head ends at the cylinder holding the request's last block
        # (enqueue() checked that block is on the disk).
        geometry = self.geometry
        self._head_cylinder = (end_lba - 1) // geometry.blocks_per_cylinder
        self._last_end_lba = end_lba
        now = request.completed_at = self.engine._now

        # fail_disk() may have settled the request mid-service.
        entry = self._completions.pop(request.request_id, None)
        if entry is not None:
            if fault is not None and fault[0] == "disk.media_error":
                self._fail_media(request, entry[1])
            else:
                # Counter.add's checks hold by construction: whole,
                # non-negative counts.
                self._completed.value += 1
                nbytes = request.nblocks * geometry.block_size
                if request.is_write:
                    self._bytes_written.value += nbytes
                else:
                    self._bytes_read.value += nbytes
                started = request.started_at
                self._service_times.record(now - started)
                self._response_times.record(now - request.submitted_at)
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.complete(
                        f"disk.{'write' if request.is_write else 'read'}",
                        "storage", started,
                        device=self.name, lba=request.lba,
                        nblocks=request.nblocks,
                        wait_ms=round((started - request.submitted_at) * 1e3, 6),
                    )
                    tracer.counter(f"{self.name}.queue", "storage",
                                   self._depth)
                entry[1](request, None)
        self._serve()

    def _fail_media(self, request: IORequest, on_done: OnDone) -> None:
        self._media_errors.add()
        self._last_end_lba = None  # the stream broke; reposition
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(
                f"disk.{'write' if request.is_write else 'read'}",
                "storage", request.started_at,
                device=self.name, lba=request.lba,
                nblocks=request.nblocks, error="MediaError",
            )
        on_done(request, MediaError(
            f"disk {self.name}: unrecoverable read at lba "
            f"{request.lba}+{request.nblocks}"
        ))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Disk {self.name} head@{self._head_cylinder} "
            f"queued={self._depth}>"
        )
