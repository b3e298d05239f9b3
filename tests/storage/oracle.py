"""The disk arm: a differential oracle for :class:`repro.storage.Disk`.

Before every disk committed its service, a disk that could not commit
at enqueue (a scheduler other than FCFS, or a fault injector) was
served by its *arm*: a callback state machine, driven by the engine,
that drains the attached scheduler and decides each request when its
service starts.  :class:`ArmDisk` is that arm, kept verbatim, serving
every request whatever the disk's scheduler and injector.  It keeps
its own books (the pending wake-up, the request in service and its
fault, and ``request_id -> (request, on_done)`` for every request
queued or in service), so it shares nothing with the committed
service but the timing model and the statistics' collectors.

The arm takes one heap entry at construction (its first step, which
goes idle) and one wake-up event each time an idle arm is handed a
request; it queues each service event with the seq its request took
at enqueue.  :class:`~repro.storage.Disk` starts an idle disk at a
call taken where the wake-up event would be, and has no construction
entry.  The two differ in one case only: a request queued before the
engine ran the arm's construction entry starts at that entry on the
arm, which may be before same-instant entries queued in between
(``test_idle_disk_starts_after_its_first_request`` in
``test_committed_service.py`` pins the disk's choice).
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, Optional, Tuple

from repro.errors import DiskError, DiskFailedError, MediaError
from repro.sanitizer import runtime as _sanitizer
from repro.sim.event import Event
from repro.storage import Disk
from repro.storage.disk import OnDone
from repro.storage.request import IORequest

__all__ = ["ArmDisk"]


class ArmDisk(Disk):
    """A :class:`Disk` served by the arm (same constructor)."""

    def __init__(self, engine, *args, injector=None, **kwargs) -> None:
        super().__init__(engine, *args, **kwargs)
        self._committed = False
        self._injector = injector
        # Arm state: the pending wake-up while idle, the request (and
        # its injected fault) while serving, and request_id ->
        # (request, on_done) for every request queued or in service, in
        # submission order.
        self._wakeup: Optional[Event] = None
        self._serving: Optional[IORequest] = None
        self._fault = None
        self._completions: Dict[int, Tuple[IORequest, OnDone]] = {}
        engine._schedule_call(self._arm_start)
        if injector is not None:
            injector.register_disk(self)

    @property
    def head_cylinder(self) -> int:
        return self._head_cylinder

    def enqueue(self, request: IORequest, on_done: OnDone) -> None:
        if self.failed:
            raise DiskFailedError(f"disk {self.name} is offline")
        end_lba = request.lba + request.nblocks
        if end_lba > self.geometry.total_blocks:
            raise DiskError(
                f"request [{request.lba}, {end_lba}) exceeds disk "
                f"of {self.geometry.total_blocks} blocks"
            )
        engine = self.engine
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

    def fail_disk(self, reason: str = "injected failure") -> None:
        if self.failed:
            return
        self.failed = True
        error = DiskFailedError(f"disk {self.name} failed: {reason}")
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
        if not self.failed:
            return
        self.failed = False
        # The stream broke, unless a request that was in service when the
        # disk failed is still ending its transfer: it continues there.
        self._last_end_lba = None
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("disk.repaired", "storage", device=self.name)

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


class Queued:
    """Every request the disks queue, in submission order: through
    ``enqueue`` on a disk that commits at start (and on the arm), and
    through ``_commit`` on one that commits at enqueue, where a lone
    request is committed as is and a striped range as one extent per
    member.  :meth:`stamps` reads each request's, and each range
    fragment's, ``(lba, nblocks, submitted_at, started_at,
    completed_at)``: a range's fragments are the records
    ``_CommittedRange.fragments`` derives from its member extents, in
    stripe order."""

    def __init__(self, disks) -> None:
        self.entries = []  # IORequests and committed ranges
        for disk in disks:
            if disk._committed:
                def recording(extent, _commit=disk._commit):
                    finish = _commit(extent)
                    entry = extent.request or extent.owner
                    if not self.entries or self.entries[-1] is not entry:
                        self.entries.append(entry)  # a range commits once
                    return finish
                disk._commit = recording
            else:
                def recording(request, on_done, _enqueue=disk.enqueue):
                    _enqueue(request, on_done)
                    self.entries.append(request)
                disk.enqueue = recording

    def stamps(self):
        requests = []
        for entry in self.entries:
            if isinstance(entry, IORequest):
                requests.append(entry)
            else:
                requests.extend(entry.fragments())
        return [(r.lba, r.nblocks, r.submitted_at, r.started_at,
                 r.completed_at) for r in requests]
