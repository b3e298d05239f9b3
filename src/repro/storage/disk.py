"""Mechanical disk model.

Service time of a request = controller overhead + seek + rotational
latency + media transfer.  The seek cost follows the standard
square-root curve between track-to-track and full-stroke times; the
rotational latency is half a revolution in deterministic mode or
uniform(0, revolution) from a seeded stream otherwise.

Defaults approximate a 7200 rpm desktop drive of the paper's era
(2004): ~8.5 ms average seek, ~4.2 ms average rotational latency,
50 MB/s media rate.

A :class:`Disk` is an active object: its arm is a callback state
machine, driven by the engine, that drains the attached scheduler.
The one way in is ``enqueue(request, on_done)``: the arm settles the
request by calling ``on_done(request, error)`` exactly once, with
``error`` None when the transfer completed, a
:class:`~repro.errors.MediaError` when the media failed it, or a
:class:`~repro.errors.DiskFailedError` when :meth:`Disk.fail_disk`
took the device offline first.  The call is direct: it runs inside
the arm's step (or inside ``fail_disk``) and takes no heap slot of its
own, so a caller that needs one schedules it itself.

``submit()`` is the :class:`~repro.sim.event.Event` adapter over
``enqueue``: the returned event succeeds with the request, or fails
with the error, from inside ``on_done``, so callers simply::

    done = disk.submit(IORequest(lba=0, nblocks=8))
    req = yield done
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import DiskError, DiskFailedError, MediaError
from repro.sanitizer import runtime as _sanitizer
from repro.sim import Counter, Engine, Tally, TimeWeighted
from repro.sim.event import Event, Timeout
from repro.storage.geometry import DiskGeometry
from repro.storage.request import IORequest
from repro.storage.scheduler import DiskScheduler, make_scheduler
from repro.units import MB

__all__ = ["DiskParams", "Disk"]

#: ``on_done(request, error)``: how the arm settles an enqueued request.
OnDone = Callable[[IORequest, Optional[Exception]], None]


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
    """One disk: geometry + mechanics + a scheduler-driven arm.

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
    """

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

        self._head_cylinder = 0
        self._last_end_lba: Optional[int] = None
        # Arm state: the pending wake-up while idle, the request (and
        # its injected fault) while serving.
        self._wakeup: Optional[Event] = None
        self._serving: Optional[IORequest] = None
        self._fault = None
        # request_id -> (request, on_done) for every request queued or
        # in service, in submission order.
        self._completions: Dict[int, Tuple[IORequest, OnDone]] = {}
        self._injector = injector
        self.failed = False
        # Requests waiting in the scheduler (not the one in service),
        # and the most there have been at once.
        self.queue_depth = 0
        self.queue_max_depth = 0

        # Statistics (registered with the engine's metrics registry so
        # one snapshot covers every device on the machine).
        self.requests_completed = Counter(f"{name}.completed")
        self.bytes_read = Counter(f"{name}.bytes_read")
        self.bytes_written = Counter(f"{name}.bytes_written")
        self.media_errors = Counter(f"{name}.media_errors")
        self.service_times = Tally(f"{name}.service")
        self.response_times = Tally(f"{name}.response")
        self.busy = TimeWeighted(engine, initial=0.0)
        reg = engine.metrics
        for collector in (self.requests_completed, self.bytes_read,
                          self.bytes_written, self.media_errors,
                          self.service_times, self.response_times):
            reg.register(collector.name, collector, device=name)
        reg.register(f"{name}.busy", self.busy, device=name)
        reg.gauge(f"{name}.queue_depth", lambda: self.queue_depth, device=name)
        reg.gauge(f"{name}.queue_max_depth",
                  lambda: self.queue_max_depth, device=name)

        if _sanitizer.active is not None:
            _sanitizer.active.on_spawn(self, f"{name}.arm")
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
        return self._head_cylinder

    def enqueue(self, request: IORequest, on_done: OnDone) -> None:
        """Queue ``request``; the arm calls ``on_done(request, error)``
        exactly once when it settles (see the module docstring)."""
        if self.failed:
            raise DiskFailedError(f"disk {self.name} is offline")
        end_lba = request.lba + request.nblocks
        if end_lba > self.geometry.total_blocks:
            raise DiskError(
                f"request [{request.lba}, {end_lba}) exceeds disk "
                f"of {self.geometry.total_blocks} blocks"
            )
        if request.request_id in self._completions:
            raise DiskError(f"request {request.request_id} already submitted")
        request.submitted_at = self.engine._now
        self._completions[request.request_id] = (request, on_done)
        self.scheduler.push(request)
        depth = self.queue_depth = self.queue_depth + 1
        if depth > self.queue_max_depth:
            self.queue_max_depth = depth
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.counter(f"{self.name}.queue", "storage", depth)
        if self._wakeup is not None:
            wake, self._wakeup = self._wakeup, None
            wake.succeed()

    def submit(self, request: IORequest) -> Event:
        """Queue ``request``; the returned event succeeds with it when
        the transfer completes, or fails with the arm's error."""
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
        # Drain the scheduler so the arm never services stale requests.
        for _ in range(self.queue_depth):
            self.scheduler.pop(self._head_cylinder)
        self.queue_depth = 0
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
        self._last_end_lba = None
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("disk.repaired", "storage", device=self.name)

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
    # (waiting on ``_wakeup``) -> serving (one Timeout per request) ->
    # complete -> serving the next request or idle again.  Each step
    # takes the heap slots the equivalent generator process would, so
    # simulated timing and event order are unchanged; an exception in a
    # step propagates out of ``Engine.run``.  Under an active race
    # detector every step runs in the arm's own vector-clock context.
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
        if event is not None:  # the first step is a start, not a wake-up
            det.on_wakeup(self, event)
        prev = det.enter(self)
        try:
            step()
        finally:
            det.leave(prev)

    def _serve(self) -> None:
        """Start the next queued request, or go idle on an empty queue."""
        engine = self.engine
        if not self.queue_depth:
            # fail_disk() may have drained the queue between a submit's
            # wake-up and this step; then too, wait for the next one.
            wake = self._wakeup = Event(engine)
            wake.callbacks.append(self._on_wake)
            self.busy.record(0.0)
            return
        self.busy.record(1.0)
        request = self.scheduler.pop(self._head_cylinder)
        self.queue_depth -= 1
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
        Timeout(engine, service).callbacks.append(self._on_served)

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
                self.requests_completed.value += 1
                nbytes = request.nblocks * geometry.block_size
                if request.is_write:
                    self.bytes_written.value += nbytes
                else:
                    self.bytes_read.value += nbytes
                started = request.started_at
                self.service_times.record(now - started)
                self.response_times.record(now - request.submitted_at)
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
                                   self.queue_depth)
                entry[1](request, None)
        self._serve()

    def _fail_media(self, request: IORequest, on_done: OnDone) -> None:
        self.media_errors.add()
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
            f"queued={self.queue_depth}>"
        )
