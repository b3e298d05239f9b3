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
    with pytest.raises(DiskError):
        IORequest(lba=-1, nblocks=1)
    with pytest.raises(DiskError):
        IORequest(lba=0, nblocks=0)


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


# -- the arm: a callback state machine, not a process ------------------------


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
    """FCFS queue whose ``pop`` raises, standing in for any arm bug."""

    def __init__(self, geometry):
        from repro.storage.scheduler import FCFSScheduler

        self._inner = FCFSScheduler(geometry)
        self.max_depth = 0

    def push(self, request):
        self._inner.push(request)

    def pop(self, head_cylinder):
        raise RuntimeError("scheduler exploded")

    def note_depth(self):
        return self._inner.note_depth()

    @property
    def empty(self):
        return self._inner.empty

    def __len__(self):
        return len(self._inner)


def test_exception_in_the_arm_propagates_from_run():
    eng = Engine()
    d = make_disk(eng, scheduler=_ExplodingScheduler(SMALL_GEO))

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
            seen.append(det._current.clock)

        eng.process(client())
        eng.run()
    arm = d._san_ctx
    assert arm.name == "d7.arm"
    # The client resumed after the arm's completion: it joined the
    # arm's clock (a happens-before edge from the arm to its waiter).
    assert seen and seen[0].get(arm.tid, 0) > 0
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
