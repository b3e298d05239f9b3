"""Tests for the mechanical disk model."""

import pytest

from repro.errors import DiskError
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry, DiskParams, IORequest


SMALL_GEO = DiskGeometry(cylinders=100, heads=2, sectors_per_track=10)


def make_disk(engine, **kwargs):
    kwargs.setdefault("geometry", SMALL_GEO)
    return Disk(engine, **kwargs)


def test_request_validation():
    with pytest.raises(DiskError, match=r"^negative LBA: -1$"):
        IORequest(lba=-1, nblocks=1)
    with pytest.raises(DiskError,
                       match=r"^request must cover >= 1 block, got 0$"):
        IORequest(lba=0, nblocks=0)


def test_request_fields_ids_and_slots():
    a = IORequest(lba=3, nblocks=2)
    b = IORequest(4, 1, True)
    assert (a.lba, a.nblocks, a.is_write) == (3, 2, False)
    assert (b.lba, b.nblocks, b.is_write) == (4, 1, True)
    assert a.submitted_at is a.started_at is a.completed_at is None
    assert b.request_id > a.request_id
    assert IORequest(lba=0, nblocks=1, request_id=7).request_id == 7
    assert a.end_lba == 5
    # One object per request: no per-instance dict, identity equality.
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.tag = "x"
    assert a != IORequest(lba=3, nblocks=2)
    with pytest.raises(DiskError, match="not yet serviced"):
        a.service_time
    with pytest.raises(DiskError, match="not yet completed"):
        a.response_time


def test_params_validation():
    with pytest.raises(DiskError):
        DiskParams(rpm=0)
    with pytest.raises(DiskError):
        DiskParams(transfer_rate=0)
    with pytest.raises(DiskError):
        DiskParams(seek_track_to_track=0.01, seek_full_stroke=0.001)
    with pytest.raises(DiskError):
        DiskParams(controller_overhead=-1.0)


def test_revolution_and_latency():
    p = DiskParams(rpm=7200)
    assert p.revolution_time == pytest.approx(60.0 / 7200.0)
    assert p.avg_rotational_latency == pytest.approx(60.0 / 7200.0 / 2)


def test_seek_time_zero_for_same_cylinder():
    eng = Engine()
    d = make_disk(eng)
    assert d.seek_time(5, 5) == 0.0


def test_seek_time_monotone_in_distance():
    eng = Engine()
    d = make_disk(eng)
    times = [d.seek_time(0, dist) for dist in (1, 10, 50, 99)]
    assert times == sorted(times)
    assert times[0] >= d.params.seek_track_to_track
    assert times[-1] <= d.params.seek_full_stroke + 1e-12


def test_seek_full_stroke_cost():
    eng = Engine()
    d = make_disk(eng)
    assert d.seek_time(0, SMALL_GEO.cylinders - 1) == pytest.approx(
        d.params.seek_full_stroke
    )


def test_transfer_time_scales_with_blocks():
    eng = Engine()
    d = make_disk(eng)
    assert d.transfer_time(2) == pytest.approx(2 * d.transfer_time(1))


def test_single_request_timing():
    eng = Engine()
    d = make_disk(eng)
    done = d.submit_range(lba=0, nblocks=1)
    eng.run()
    req = done.value
    expected = (
        d.params.controller_overhead
        + d.params.avg_rotational_latency
        + d.transfer_time(1)
    )  # head starts at cylinder 0 → no seek
    assert req.service_time == pytest.approx(expected)
    assert req.completed_at == pytest.approx(expected)


def test_head_moves_to_request_cylinder():
    eng = Engine()
    d = make_disk(eng)
    lba = SMALL_GEO.lba_of(50, 0, 0)
    d.submit_range(lba=lba, nblocks=1)
    eng.run()
    assert d.head_cylinder == 50


def test_fcfs_services_in_submission_order():
    eng = Engine()
    d = make_disk(eng, scheduler="fcfs")
    far = d.submit_range(lba=SMALL_GEO.lba_of(99, 0, 0), nblocks=1)
    near = d.submit_range(lba=0, nblocks=1)
    eng.run()
    assert far.value.completed_at < near.value.completed_at


def test_sstf_services_nearest_first():
    eng = Engine()
    # Occupy the arm briefly so both test requests are queued together.
    d = make_disk(eng, scheduler="sstf")
    d.submit_range(lba=0, nblocks=1)
    far = d.submit_range(lba=SMALL_GEO.lba_of(99, 0, 0), nblocks=1)
    near = d.submit_range(lba=SMALL_GEO.lba_of(1, 0, 0), nblocks=1)
    eng.run()
    assert near.value.completed_at < far.value.completed_at


def test_out_of_range_request_rejected():
    eng = Engine()
    d = make_disk(eng)
    with pytest.raises(DiskError):
        d.submit_range(lba=SMALL_GEO.total_blocks - 1, nblocks=2)


def test_double_submission_rejected():
    eng = Engine()
    d = make_disk(eng)
    req = IORequest(lba=0, nblocks=1)
    d.submit(req)
    with pytest.raises(DiskError):
        d.submit(req)


@pytest.mark.parametrize("first,second", [
    ("sstf", "sstf"), ("sstf", "fcfs"), ("fcfs", "sstf"), ("fcfs", "fcfs")])
def test_one_request_on_two_disks_is_rejected(first, second):
    """A request is queued on one disk at a time, whichever commit point
    either disk has: the second enqueue raises, and the first disk
    settles the request once."""
    eng = Engine()
    disks = [make_disk(eng, scheduler=first, name="a"),
             make_disk(eng, scheduler=second, name="b")]
    req = IORequest(lba=0, nblocks=1)
    settled = []
    disks[0].enqueue(req, lambda request, error: settled.append(error))
    with pytest.raises(DiskError, match=f"request {req.request_id} "
                                        "already submitted"):
        disks[1].enqueue(req, lambda request, error: settled.append(error))
    eng.run()
    assert settled == [None]
    assert [d.requests_completed.value for d in disks] == [1, 0]
    assert req.completed_at == req.service_time == pytest.approx(
        disks[0].service_time(IORequest(lba=0, nblocks=1)))


def test_statistics_accumulate():
    eng = Engine()
    d = make_disk(eng)
    d.submit_range(lba=0, nblocks=4, is_write=False)
    d.submit_range(lba=8, nblocks=2, is_write=True)
    eng.run()
    assert d.requests_completed.value == 2
    assert d.bytes_read.value == 4 * 512
    assert d.bytes_written.value == 2 * 512
    assert d.service_times.count == 2
    assert d.response_times.count == 2


def test_queued_request_response_includes_waiting():
    eng = Engine()
    d = make_disk(eng)
    a = d.submit_range(lba=0, nblocks=1)
    b = d.submit_range(lba=0, nblocks=1)
    eng.run()
    assert b.value.response_time > b.value.service_time
    assert a.value.response_time == pytest.approx(a.value.service_time)


def test_nondeterministic_rotation_uses_rng():
    import numpy as np

    eng = Engine()
    rng = np.random.default_rng(7)
    d = make_disk(eng, params=DiskParams(deterministic=False), rng=rng)
    samples = {d.rotational_latency() for _ in range(8)}
    assert len(samples) > 1
    assert all(0.0 <= s <= d.params.revolution_time for s in samples)


def test_deterministic_rotation_constant():
    eng = Engine()
    d = make_disk(eng)
    assert d.rotational_latency() == d.rotational_latency()


def test_disk_reusable_after_idle():
    """The arm must wake again after draining its queue once."""
    eng = Engine()
    d = make_disk(eng)
    first = d.submit_range(lba=0, nblocks=1)
    eng.run()
    assert first.value.completed_at is not None
    second = d.submit_range(lba=16, nblocks=1)
    eng.run()
    assert second.value.completed_at > first.value.completed_at


# -- the service: completion entries, not a process --------------------------


def test_constructing_a_disk_spawns_no_process(monkeypatch):
    from repro.sim import process as process_module

    spawned = []
    original = process_module.Process.__init__

    def counting_init(self, *args, **kwargs):
        spawned.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(process_module.Process, "__init__", counting_init)
    eng = Engine()
    d = make_disk(eng)
    done = d.submit_range(lba=0, nblocks=4)
    eng.run()
    assert spawned == []
    assert done.value.completed_at is not None


class _ExplodingScheduler:
    """Queue whose ``pop`` raises, standing in for any arm bug.  The
    disk counts its own queue depth, so push and pop are all the arm
    asks of a scheduler."""

    def __init__(self):
        self._queue = []

    def push(self, request):
        self._queue.append(request)

    def pop(self, head_cylinder):
        raise RuntimeError("scheduler exploded")


def test_exception_in_the_arm_propagates_from_run():
    eng = Engine()
    d = make_disk(eng, scheduler=_ExplodingScheduler())

    def client():
        yield d.submit_range(lba=0, nblocks=1)

    eng.process(client())
    # Not a DeadlockError about a blocked client: the arm's own error.
    with pytest.raises(RuntimeError, match="scheduler exploded"):
        eng.run()


def test_exception_in_fault_hook_propagates_from_run():
    class BrokenInjector:
        def register_disk(self, disk):
            pass

        def disk_fault(self, name, lba, nblocks):
            raise RuntimeError("injector exploded")

    eng = Engine()
    d = make_disk(eng, injector=BrokenInjector())
    d.submit_range(lba=0, nblocks=1)
    with pytest.raises(RuntimeError, match="injector exploded"):
        eng.run()


def test_fail_disk_between_wakeup_and_service_leaves_arm_serving():
    from repro.errors import DiskFailedError

    eng = Engine()
    d = make_disk(eng)
    eng.run()  # the arm goes idle
    lost = d.submit_range(lba=0, nblocks=1)  # wakes the arm...
    d.fail_disk("swap")  # ...and the queue is drained before it runs
    eng.run()
    assert not lost.ok and isinstance(lost.value, DiskFailedError)
    d.repair()
    served = d.submit_range(lba=8, nblocks=1)
    eng.run()
    assert served.ok and served.value.completed_at is not None


def test_arm_runs_in_its_own_sanitizer_context():
    from repro.sanitizer import sanitized

    with sanitized() as det:
        eng = Engine()
        d = make_disk(eng, name="d7")
        seen = []

        def client():
            yield d.submit_range(lba=0, nblocks=1)
            seen.append(det._reach(det._current, eng.now))

        eng.process(client())
        eng.run()
    arm = d._san_ctx
    assert arm.name == "d7.arm"
    # The client resumed after the arm's completion: it reaches the
    # arm's node (a happens-before edge from the arm to its waiter).
    assert seen and seen[0].get(arm, 0) > 0
    assert det.races == []


# -- fault paths: completions and stats pinned to exact values --------------

FAULT_GEO = DiskGeometry(cylinders=500, heads=2, sectors_per_track=20)
FAULT_RANGES = ((0, 8), (4000, 16), (8, 8), (19000, 4))


def _faulted_run(specs=(), fail_at=None):
    from repro.errors import DiskFailedError, MediaError
    from repro.faults import FaultInjector, FaultPlan

    engine = Engine()
    injector = FaultInjector(engine, FaultPlan(seed=3, specs=tuple(specs)))
    disk = Disk(engine, geometry=FAULT_GEO, name="d0", injector=injector)
    outcomes = []

    def client(lba, nblocks):
        try:
            request = yield disk.submit_range(lba, nblocks)
            outcomes.append((lba, request.started_at, request.completed_at))
        except (MediaError, DiskFailedError) as exc:
            outcomes.append((lba, type(exc).__name__, engine.now))

    for lba, nblocks in FAULT_RANGES:
        engine.process(client(lba, nblocks))
    if fail_at is not None:
        engine._schedule_call(lambda: disk.fail_disk("test"), fail_at)
    engine.run()
    stats = (disk.requests_completed.value, disk.bytes_read.value,
             disk.media_errors.value, disk.service_times.values,
             disk.head_cylinder, engine.now)
    return outcomes, stats


def test_fail_disk_mid_service_completions_and_stats():
    # The failure lands while lba 8 is in service: the arm finishes the
    # transfer, finds its completion claimed, and goes idle.
    assert _faulted_run(fail_at=0.02) == (
        [(0, 0.0, 0.004448586666666666),
         (4000, 0.004448586666666666, 0.017478870807149872),
         (8, "DiskFailedError", 0.02),
         (19000, "DiskFailedError", 0.02)],
        (2, 12288, 0, [0.004448586666666666, 0.013030284140483205],
         0, 0.030427234947633077),
    )


def test_media_error_completions_and_stats():
    from repro.faults import FaultSpec

    spec = FaultSpec(kind="disk.media_error", probability=0.5)
    assert _faulted_run([spec]) == (
        [(0, "MediaError", 0.004448586666666666),
         (4000, 0.004448586666666666, 0.017478870807149872),
         (8, "MediaError", 0.030427234947633077),
         (19000, "MediaError", 0.05241613756235833)],
        (1, 8192, 3, [0.013030284140483205], 475, 0.05241613756235833),
    )


def test_slow_fault_completions_and_stats():
    from repro.faults import FaultSpec

    spec = FaultSpec(kind="disk.slow", probability=1.0, slow_factor=3.0,
                     max_hits=2)
    assert _faulted_run([spec]) == (
        [(0, 0.0, 0.013345759999999998),
         (4000, 0.013345759999999998, 0.05243661242144962),
         (8, 0.05243661242144962, 0.06538497656193282),
         (19000, 0.06538497656193282, 0.08737387917665806)],
        (4, 18432, 0,
         [0.013345759999999998, 0.03909085242144962,
          0.012948364140483198, 0.021988902614725248],
         475, 0.08737387917665806),
    )


def test_stall_fault_completions_and_stats():
    from repro.faults import FaultSpec

    spec = FaultSpec(kind="disk.stall", probability=0.5, delay=0.01)
    assert _faulted_run([spec]) == (
        [(0, 0.0, 0.004448586666666666),
         (4000, 0.004448586666666666, 0.027478870807149874),
         (8, 0.027478870807149874, 0.050427234947633084),
         (19000, 0.050427234947633084, 0.07241613756235835)],
        (4, 18432, 0,
         [0.004448586666666666, 0.023030284140483206,
          0.02294836414048321, 0.02198890261472526],
         475, 0.07241613756235835),
    )


def test_out_of_range_lbas_raise_disk_error():
    eng = Engine()
    d = make_disk(eng)
    total = SMALL_GEO.total_blocks
    for lba, nblocks in ((total, 1), (total - 4, 5), (10**9, 1)):
        with pytest.raises(DiskError):
            d.submit_range(lba=lba, nblocks=nblocks)
    assert d.submit_range(lba=total - 4, nblocks=4) is not None


# -- the disk-owned queue depth ----------------------------------------------


def _depth_gauges(disk):
    snap = disk.engine.metrics.snapshot()
    return (snap[f"{disk.name}.queue_depth"]["value"],
            snap[f"{disk.name}.queue_max_depth"]["value"])


def make_arm_disk(engine, **kwargs):
    """A disk that commits at start: a fault injector, even one with an
    empty plan, makes the disk decide each request when it starts."""
    from repro.faults import FaultInjector, FaultPlan

    return make_disk(engine, injector=FaultInjector(engine, FaultPlan()),
                     **kwargs)


def test_fcfs_disk_commits_and_other_disks_keep_the_arm():
    eng = Engine()
    assert make_disk(eng)._committed
    assert not make_disk(eng, scheduler="sstf")._committed
    assert not make_arm_disk(eng)._committed


def test_queue_depth_counts_waiting_requests_only():
    eng = Engine()
    d = make_arm_disk(eng)
    eng.run()  # the arm goes idle
    for lba in (0, 40, 80):
        d.submit_range(lba=lba, nblocks=1)
    assert (d.queue_depth, d.queue_max_depth) == (3, 3)
    eng.step()  # the wake-up: the arm takes the first request
    assert (d.queue_depth, d.queue_max_depth) == (2, 3)
    assert _depth_gauges(d) == (2, 3)
    eng.run()
    assert (d.queue_depth, d.queue_max_depth) == (0, 3)
    assert len(d.scheduler) == 0


def test_committed_queue_depth_counts_waiting_requests_only():
    """On a committing disk the first request leaves the queue once the
    clock passes the position it was queued at, as the arm's wake-up
    would take it; each later one at its predecessor's finish."""
    eng = Engine()
    d = make_disk(eng)
    eng.run()
    requests = [IORequest(lba=lba, nblocks=1) for lba in (0, 40, 80)]
    events = [d.submit(request) for request in requests]
    assert (d.queue_depth, d.queue_max_depth) == (3, 3)
    assert _depth_gauges(d) == (3, 3)
    eng.run(until=0.0)  # past the enqueue: the first request is served
    assert (d.queue_depth, d.queue_max_depth) == (2, 3)
    assert _depth_gauges(d) == (2, 3)
    assert not events[0].triggered and d.busy.current == 1.0
    while not events[0].triggered:  # the first's finish: the second starts
        eng.step()
    assert (d.queue_depth, d.queue_max_depth) == (1, 3)
    assert requests[1].started_at == requests[0].completed_at == eng.now
    assert d.requests_completed.value == 1
    eng.run()
    assert (d.queue_depth, d.queue_max_depth) == (0, 3)
    assert len(d.scheduler) == 0


def test_fail_disk_mid_service_empties_the_queue_depth():
    _fail_mid_service(make_disk)


def test_arm_fail_disk_mid_service_empties_the_queue_depth():
    _fail_mid_service(make_arm_disk)


def _fail_mid_service(make):
    from repro.errors import DiskFailedError

    eng = Engine()
    d = make(eng)
    eng.run()
    events = [d.submit_range(lba=lba, nblocks=1) for lba in (0, 40, 80)]
    eng.run(until=0.001)  # the first request is in service
    assert d.busy.current == 1.0 and d.queue_depth == 2
    d.fail_disk("test")
    assert (d.queue_depth, d.queue_max_depth) == (0, 3)
    assert _depth_gauges(d) == (0, 3)
    assert len(d.scheduler) == 0
    eng.run()
    assert all(not ev.ok and isinstance(ev.value, DiskFailedError)
               for ev in events)
    assert d.requests_completed.value == 0
    assert d.queue_depth == 0

    # Repaired, the disk serves normally and keeps its high-water mark.
    d.repair()
    served = d.submit_range(lba=8, nblocks=2)
    assert d.queue_depth == 1
    eng.run()
    assert served.ok and served.value.completed_at is not None
    assert d.requests_completed.value == 1
    assert (d.queue_depth, d.queue_max_depth) == (0, 3)


def test_media_error_settles_exactly_once():
    from repro.errors import MediaError
    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    eng = Engine()
    spec = FaultSpec(kind="disk.media_error", probability=1.0)
    injector = FaultInjector(eng, FaultPlan(seed=0, specs=(spec,)))
    d = Disk(eng, geometry=FAULT_GEO, name="d0", injector=injector)
    settled = []
    for lba in (0, 8):
        d.enqueue(IORequest(lba=lba, nblocks=8),
                  lambda request, error: settled.append((request.lba, error)))
    eng.run()
    assert [lba for lba, _ in settled] == [0, 8]
    assert all(isinstance(error, MediaError) for _, error in settled)
    assert d.media_errors.value == 2
    assert d.requests_completed.value == 0
    assert not d._inflight and len(d.scheduler) == 0  # nothing left queued
    assert (d.queue_depth, d.queue_max_depth) == (0, 2)
