"""The disk's one service: the same schedule as the arm.

A disk commits each request's service when it is queued (FCFS, no
fault injector) or when its service starts (every other disk), and
records it lazily; the arm (:class:`tests.storage.oracle.ArmDisk`)
decides each request when its service starts, with books of its own,
which makes it the oracle here.  Random schedules of same-instant
requesters (on striped ranges and on single disks), under each
scheduler and under no injector, an empty plan or per-disk
``disk.media_error``/``disk.slow``/``disk.stall`` rules, a ticker that
reads every disk's registry entries at completion instants (a few
zero-delay hops in), and an optional ``fail_disk`` of one or two disks
(with an optional repair) must leave the same log, the same request
stamps, the same disk statistics, the same fault injections and the
same clock under both, and under the race detector the same races.
Requesters may start at a completion instant (their wake-up queued
before the failer's), the ticker sleeps by yielding delays (which may
pass in its own frame) and ranges may continue where the previous one
ended, so ties at a completion instant, sleeps over committed finishes
and streaming all occur.
"""

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DiskFailedError, MediaError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sanitizer import shared
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry, StripedArray
from repro.storage.disk import _Extent
from repro.storage.request import IORequest

from tests.conftest import detector_or_none
from tests.storage.oracle import ArmDisk, Queued

GEO = DiskGeometry(cylinders=50, heads=2, sectors_per_track=8)

#: Registry entries the ticker reads, per disk.
READ = ("completed", "bytes_read", "bytes_written", "media_errors",
        "queue_depth", "queue_max_depth")

#: FCFS twice: an FCFS disk without an injector commits at enqueue.
SCHEDULERS = ("fcfs", "fcfs", "sstf", "scan", "cscan", "clook")

#: The plain service: FCFS, no injector.
PLAIN = ("fcfs", None)


def _run(arm: bool, scenario, tick_at: List[float], detector: bool = False):
    """Run one schedule; returns everything the two services must
    agree on."""
    with detector_or_none(detector) as det:
        outcome = _schedule(arm, scenario, tick_at)
        races = None if det is None else [
            (race.var_name.split("#")[0], race.time, race.first.describe(),
             race.second.describe()) for race in det.races]
    return outcome + (races,)


def _plan(specs) -> FaultPlan:
    return FaultPlan(seed=5, specs=tuple(
        FaultSpec(kind=kind, target=f"d{index}", probability=probability,
                  max_hits=max_hits, slow_factor=2.5, delay=0.004)
        for kind, index, probability, max_hits in specs))


def _schedule(arm, scenario, tick_at):
    ndisks, unit, requesters, singles, hops, fault, service = scenario
    scheduler, specs = service
    engine = Engine()
    injector = None if specs is None else FaultInjector(engine, _plan(specs))
    disks = [(ArmDisk if arm else Disk)(
        engine, geometry=GEO, name=f"d{i}", scheduler=scheduler,
        injector=injector) for i in range(ndisks)]
    committed = not arm and service == PLAIN
    assert all(disk._committed is committed for disk in disks)
    queued = Queued(disks)
    array = StripedArray(engine, disks, stripe_unit=unit)
    log = []
    var = shared("committed.order")

    def outcome(submit, name):
        try:
            done = submit()
        except DiskFailedError as exc:
            log.append((engine.now, name, "raised", str(exc)))
            return
        try:
            value = yield done
        except (DiskFailedError, MediaError) as exc:
            log.append((engine.now, name, "failed", str(exc)))
        else:
            if isinstance(value, IORequest):
                value = [value]
            log.append((engine.now, name,
                        tuple((r.lba, r.nblocks) for r in value)))
        var.write(engine)

    def ranges_of(ranges, total):
        lba = 0
        for start, nblocks, write in ranges:
            if start is not None:  # else: continue where the last ended
                lba = start
            lba %= total
            nblocks = min(nblocks, total - lba)
            yield lba, nblocks, write
            lba += nblocks

    def requester(name, start_at, ranges):
        if start_at:
            yield engine.timeout(start_at)
        for lba, nblocks, write in ranges_of(ranges, array.total_blocks):
            yield from outcome(
                lambda: array.submit_range(lba, nblocks, write), name)

    def single(name, index, ranges):
        disk = disks[index % ndisks]
        for lba, nblocks, write in ranges_of(ranges, GEO.total_blocks):
            yield from outcome(lambda: disk.submit(
                IORequest(lba=lba, nblocks=nblocks, is_write=write)), name)

    def ticker():
        for hop, at in enumerate(tick_at):
            yield max(0.0, at - engine.now)  # 0.0: a zero-delay hop
            snap = engine.metrics.snapshot()
            log.append((engine.now, "ticker", hop, tuple(
                snap[f"{disk.name}.{key}"].get("value")
                for disk in disks for key in READ)))
            var.write(engine)

    def failer(indexes, at, hops, repair_after):
        yield engine.timeout(at)
        for index in indexes:
            for _ in range(hops):  # land between same-instant heap entries
                yield engine.timeout(0)
            log.append((engine.now, "failer", index))
            var.write(engine)  # before the failure: fragments carry it
            disks[index].fail_disk("test")
        if repair_after is not None:
            yield engine.timeout(repair_after)
            for index in indexes:
                disks[index].repair()
                log.append((engine.now, "repaired", index))
                # Served from wherever the failure left the head.
                yield from outcome(lambda: disks[index].submit(
                    IORequest(lba=index * 64, nblocks=8)), "repaired")

    for i, (start_at, ranges) in enumerate(requesters):
        engine.process(requester(f"r{i}", start_at, ranges))
    for i, (index, ranges) in enumerate(singles):
        engine.process(single(f"s{i}", index, ranges))
    engine.process(ticker())
    if fault is not None:
        engine.process(failer(*fault))
    engine.run()
    stamps = queued.stamps()
    stats = [(d.requests_completed.value, d.bytes_read.value,
              d.bytes_written.value, d.service_times.values,
              d.response_times.values, d.busy.integral(), d.busy.current,
              d.queue_depth, d.queue_max_depth, d.head_cylinder,
              d.media_errors.value)
             for d in disks]
    injections = None if injector is None else injector.schedule_dump()
    return log, stamps, stats, injections, engine.now


def _completion_instants(scenario) -> List[float]:
    """Every instant a request completes, from a run without faults
    where every requester starts at once."""
    ndisks, unit, requesters, singles, hops, _, service = scenario
    plain = [(0.0, ranges) for _, ranges in requesters]
    stamps = _run(
        True, (ndisks, unit, plain, singles, hops, None, service), [])[1]
    return sorted({0.0} | {s[4] for s in stamps if s[4] is not None})


_range = st.tuples(st.one_of(st.none(), st.integers(0, 10_000)),
                   st.integers(1, 96), st.booleans())
_spec = st.tuples(
    st.sampled_from(("disk.media_error", "disk.slow", "disk.stall")),
    st.integers(0, 3),                                    # target disk
    st.sampled_from((0.3, 0.7, 1.0)),                     # probability
    st.one_of(st.none(), st.integers(1, 3)))              # max_hits
_scenario = st.tuples(
    st.integers(1, 4),                                    # disks
    st.integers(1, 24),                                   # stripe unit
    st.lists(st.lists(_range, min_size=1, max_size=3),    # striped
             min_size=0, max_size=3),
    st.lists(st.tuples(st.integers(0, 3),                 # single-disk
                       st.lists(_range, min_size=1, max_size=3)),
             min_size=0, max_size=2),
    st.integers(1, 4),                                    # ticker reads
    st.tuples(st.sampled_from(SCHEDULERS),                # service
              st.one_of(st.none(),                        # no injector
                        st.lists(_spec, max_size=3))),    # plan ([]: empty)
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario, st.booleans(), st.data())
def test_committed_fcfs_matches_the_arm(scenario, fail, data):
    ndisks, unit, requesters, singles, hops, service = scenario
    instants = _completion_instants(
        (ndisks, unit, [(0.0, r) for r in requesters], singles, hops, None,
         service))
    requesters = [(data.draw(st.sampled_from(instants)), ranges)
                  for ranges in requesters]
    # The ticker's instants: repeats are zero-delay hops, and a later
    # instant is a sleep queued mid-run that ends on a completion.
    tick_at = sorted(data.draw(st.lists(st.sampled_from(instants),
                                        min_size=hops, max_size=hops)))
    fault = None
    if fail:
        # Strike at a completion instant (a few zero-delay hops in) or
        # halfway to the next one; maybe repair a completion gap later.
        indexes = data.draw(st.lists(st.integers(0, ndisks - 1),
                                     min_size=1, max_size=2, unique=True))
        at = data.draw(st.sampled_from(instants))
        if at != instants[-1] and data.draw(st.booleans()):
            at = (at + instants[instants.index(at) + 1]) / 2
        fail_hops = data.draw(st.integers(0, 3))
        repair_after = data.draw(st.sampled_from(
            [None, 0.0] + [t - at for t in instants if t > at][:3]))
        fault = (indexes, at, fail_hops, repair_after)
    scenario = (ndisks, unit, requesters, singles, hops, fault, service)

    assert _run(False, scenario, tick_at) == _run(True, scenario, tick_at)
    committed = _run(False, scenario, tick_at, detector=True)
    assert committed == _run(True, scenario, tick_at, detector=True)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 4), st.integers(2, 8), st.integers(2, 5),
       st.sampled_from(("before", "mid", "boundary")), st.data())
def test_failure_inside_an_extent_matches_the_arm(ndisks, unit, rounds,
                                                  where, data):
    """``fail_disk`` (and a repair) landing inside multi-fragment member
    runs: two ranges of ``rounds`` fragments per member, the second
    queued behind the first, fail one or two members before a run's
    first start, mid-fragment, or exactly at a fragment boundary (a
    few zero-delay hops in: the ``(time, seq)`` tie).  Log, stamps,
    tallies, busy integral, queue depth and settle order are the arm's,
    under the race detector too."""
    offset = data.draw(st.integers(0, unit - 1))  # a partial first unit
    nblocks = ndisks * unit * rounds
    ranges = [(0.0, [(offset, nblocks, False)]),
              (0.0, [(offset + nblocks, nblocks, True)])]
    instants = _completion_instants((ndisks, unit, ranges, [], 1, None,
                                     PLAIN))
    if where == "before":
        # The first fragments are in service; every later one, and the
        # whole second range, is queued.
        at = instants[1] / 2
    elif where == "mid":
        i = data.draw(st.integers(1, len(instants) - 2))
        at = (instants[i] + instants[i + 1]) / 2
    else:
        at = data.draw(st.sampled_from(instants[1:-1]))
    indexes = data.draw(st.lists(st.integers(0, ndisks - 1), min_size=1,
                                 max_size=2, unique=True))
    fail_hops = data.draw(st.integers(0, 3))
    repair_after = data.draw(st.sampled_from(
        [None, 0.0] + [t - at for t in instants if t > at][:3]))
    tick_at = sorted(data.draw(st.lists(st.sampled_from(instants),
                                        min_size=2, max_size=2)))
    scenario = (ndisks, unit, ranges, [], 2,
                (indexes, at, fail_hops, repair_after), PLAIN)

    assert _run(False, scenario, tick_at) == _run(True, scenario, tick_at)
    committed = _run(False, scenario, tick_at, detector=True)
    assert committed == _run(True, scenario, tick_at, detector=True)


def test_second_failure_at_an_instant_joins_the_range_late():
    """Two members fail at one instant, a zero-delay hop apart: the first
    failure has already triggered the range's event when the second
    settles its fragment, so the second failer's write races the
    waiter's, on the committed range as on the arm."""
    ranges = [(0.0, [(0, 32, False)])]
    at = _completion_instants((2, 4, ranges, [], 0, None, PLAIN))[1]
    for service in (PLAIN, ("sstf", [])):
        scenario = (2, 4, ranges, [], 0, ([0, 1], at, 1, None), service)
        committed = _run(False, scenario, [], detector=True)
        assert committed == _run(True, scenario, [], detector=True)
        log, _, _, _, _, races = committed
        assert log == [(at, "failer", 0), (at, "failer", 1),
                       (at, "r0", "failed", "disk d0 failed: test")]
        assert [(first.split(" in ")[1], second.split(" in ")[1])
                for _, _, first, second in races] == [
            ("[main > failer]", "[main > requester]")]


# The single-schedule cases below run each disk three ways: committed
# at enqueue, committed at start (an injector with an empty plan draws
# no fault but moves the commit point), and the arm.

def _at_enqueue(engine, **kwargs):
    return Disk(engine, **kwargs)


def _at_start(engine, **kwargs):
    return Disk(engine, injector=FaultInjector(engine, FaultPlan()), **kwargs)


def _arm(engine, **kwargs):
    return ArmDisk(engine, **kwargs)


SERVICES = (_at_enqueue, _at_start, _arm)


def _same(run, *args):
    """``run(make, *args)`` under each service; all must agree."""
    committed, at_start, arm = (run(make, *args) for make in SERVICES)
    assert committed == at_start == arm
    return committed


def _fail_and_repair(make, first_lba: int, second_lba: int,
                     fail_at: float):
    """One request queued at t=0.01; the disk fails at ``fail_at`` and is
    repaired at once; a second request follows at once.  Returns both
    requests' stamps or outcomes."""
    engine = Engine()
    disk = make(engine, geometry=GEO, name="d0")
    first = IORequest(lba=first_lba, nblocks=8)
    log = []

    def client():
        yield engine.timeout(0.01)
        try:
            yield disk.submit(first)
        except DiskFailedError:
            pass
        log.append(("first", first.started_at, first.completed_at))

    def failer():
        yield engine.timeout(fail_at)  # queued after the client's wake-up
        disk.fail_disk("test")
        disk.repair()
        second = yield disk.submit(IORequest(lba=second_lba, nblocks=8))
        log.append(("second", second.started_at, second.completed_at))

    engine.process(client())
    engine.process(failer())
    engine.run()
    log.append(("first", first.started_at, first.completed_at))
    return log, disk.head_cylinder, engine.now


def test_failure_before_a_queued_request_starts_keeps_the_head():
    """The request queued at the failure's instant, but not yet started,
    never moves the head: the next request seeks from where the head
    was."""
    far = GEO.blocks_per_cylinder * 40
    log, head, _ = _same(_fail_and_repair, far, 0, 0.01)
    assert log[0] == log[-1] == ("first", None, None) and head == 0


def test_failure_mid_transfer_streams_on_after_repair():
    """The request in service when the disk fails still ends its
    transfer; a request that continues it after the repair streams
    without repositioning."""
    log, _, _ = _same(_fail_and_repair, 80, 88, 0.0101)
    # Failed mid-transfer: the client saw no finish, the transfer ended.
    assert log[0] == ("first", 0.01, None)
    (_, started, finished), = [e for e in log if e[0] == "second"]
    assert started == log[-1][2]  # queued behind the failed transfer
    disk = Disk(Engine(), geometry=GEO)
    assert finished - started == pytest.approx(
        disk.params.controller_overhead + disk.transfer_time(8))


def _queued_at_a_finish(make, finish: float):
    """P is queued at t=0 and finishes at ``finish``; a client whose
    wake-up was queued before P submits R at that instant, and a reader
    whose wake-up was queued after P reads the disk there too."""
    engine = Engine()
    disk = make(engine, geometry=GEO, name="d0")
    seen = []

    def client():
        yield engine.timeout(finish)
        yield disk.submit(IORequest(lba=400, nblocks=8))

    def starter():
        done = disk.submit(IORequest(lba=0, nblocks=8))
        yield engine.timeout(finish)  # queued after P
        seen.append((engine.now, disk.queue_depth, disk.busy.current,
                     disk.requests_completed.value))
        yield done

    engine.process(client())
    engine.process(starter())
    engine.run()
    return seen, engine.now


def test_request_queued_behind_a_finish_at_its_instant_starts_there():
    """R, queued at the instant P finishes but before P's completion ran,
    starts at P's completion, as the arm would pop it there: a reader
    after that completion sees R in service, not waiting."""
    finish = Disk(Engine(), geometry=GEO).service_time(
        IORequest(lba=0, nblocks=8))
    committed = _same(_queued_at_a_finish, finish)
    assert committed[0] == [(finish, 0, 1.0, 1)]


def _idle_gap_inside_a_range(make):
    """d1 is busy with a far request, so a two-disk range lands on d0
    long before it ends on d1; d0 goes idle and serves a request queued
    in that gap, before the range's one completion entry records the
    fragment."""
    engine = Engine()
    disks = [make(engine, geometry=GEO, name=f"d{i}") for i in range(2)]
    array = StripedArray(engine, disks, stripe_unit=4)
    far = GEO.blocks_per_cylinder * 45

    def ranges():
        first = disks[1].submit(IORequest(lba=far, nblocks=8))
        done = array.submit_range(0, 8)
        yield done
        yield first

    def gap():
        yield 0.005  # d0's fragment has landed; the range has not
        yield disks[0].submit(IORequest(lba=40, nblocks=8))

    engine.process(ranges())
    engine.process(gap())
    engine.run()
    return [(d.busy.integral(), d.busy.mean(), d.service_times.values,
             d.response_times.values) for d in disks], engine.now


def test_idle_gap_between_a_fragment_and_its_range_end_is_idle():
    committed = _same(_idle_gap_inside_a_range)
    (busy_d0, _, service_d0, _), _ = committed[0]
    assert busy_d0 == pytest.approx(sum(service_d0))  # idle in the gap


def _traced_ranges(make):
    from repro.obs import Tracer

    tracer = Tracer()
    engine = Engine(tracer=tracer)
    disks = [make(engine, geometry=GEO, name=f"d{i}") for i in range(3)]
    array = StripedArray(engine, disks, stripe_unit=4)

    def requester(ranges):
        for lba, nblocks in ranges:
            yield array.submit_range(lba, nblocks)

    engine.process(requester([(0, 40), (40, 8), (300, 30)]))
    engine.process(requester([(500, 20), (12, 4)]))
    engine.run()
    spans = sorted((e.name, e.start, e.end, tuple(sorted(e.attrs.items())))
                   for e in tracer.spans("storage"))
    queues = {}
    for event in tracer.events:
        if event.kind == "counter":
            queues.setdefault(event.name, []).append(
                (event.start, event.attrs["value"]))
    return spans, queues


def test_traced_spans_and_queue_samples_match_the_arm():
    """Committed spans carry the arm's start, end and wait, though they
    are recorded when the range's entry fires; each disk's queue-depth
    samples are the arm's, in time order."""
    spans, queues = _same(_traced_ranges)
    assert len(spans) == 10 + 2 + 8 + 5 + 1
    for samples in queues.values():
        assert samples == sorted(samples, key=lambda sample: sample[0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, GEO.total_blocks - 97),
                          st.integers(1, 96), st.integers(1, 24)),
                min_size=1, max_size=6))
def test_a_run_commits_as_its_requests_one_at_a_time(extents):
    """A member's run is one extent, its requests the extent's
    fragments: ``Disk._commit`` of an extent gives every fragment the
    start and finish, and leaves the head and the queue depth, that
    committing its fragments one at a time does, an extent that
    repositions after the first included (only an extent's first
    fragment repositions)."""
    def commit(batched):
        disk = Disk(Engine(), geometry=GEO)
        times, end = [], 0
        for jump, lba, nblocks, unit in extents:
            if not jump:  # continue the previous one, within the disk
                lba = end % (GEO.total_blocks - 96)
            end = lba + nblocks
            if batched:
                parts = [_Extent(lba, end, unit, False, 1, None, 0.0)]
            else:  # one lone fragment per stripe-unit run
                cuts = [lba] + list(range(lba - lba % unit + unit, end,
                                          unit)) + [end]
                parts = [_Extent(a, b, b, False, 1, None, 0.0)
                         for a, b in zip(cuts, cuts[1:])]
            for extent in parts:
                disk._commit(extent)
                times += [(start, finish) for _, _, start, finish
                          in disk._fragment_times(extent)]
        return (times, disk._head_cylinder, disk._last_end_lba, disk._depth,
                disk.queue_max_depth)

    assert commit(True) == commit(False)


def test_idle_disk_starts_after_its_first_request():
    """The one schedule where the disk and the arm differ: a request
    queued before the engine ran the arm's construction-time entry.  The
    arm started there, before a process queued in between could add a
    request; the disk starts at the slot after the first enqueue, as on
    any idle disk, so SSTF sees the process's near request too."""
    def run(make):
        engine = Engine()
        disk = make(engine, geometry=GEO, name="d0", scheduler="sstf")
        near = IORequest(lba=GEO.blocks_per_cylinder, nblocks=8)

        def client():
            yield disk.submit(near)

        engine.process(client())
        far = IORequest(lba=GEO.blocks_per_cylinder * 45, nblocks=8)
        disk.submit(far)
        engine.run()
        return far.started_at, near.started_at

    far_start, near_start = run(Disk)
    assert near_start == 0.0 and far_start > 0.0
    far_start, near_start = run(_arm)
    assert far_start == 0.0 and near_start > 0.0  # far started first


def _drained_mid_service(make):
    """On a SCAN disk, R1 (cylinder 45) is in service, having left R0's
    cylinder 40, when H (cylinder 42) is queued and the disk fails.  The
    drain pops H from where the last served request left the head, as
    the arm did, which keeps the sweep going up; after the repair, of
    two requests queued at once the one above the head goes first."""
    engine = Engine()
    disk = make(engine, geometry=GEO, name="d0", scheduler="scan")
    cylinder = GEO.blocks_per_cylinder
    up = IORequest(lba=48 * cylinder, nblocks=8)
    down = IORequest(lba=10 * cylinder, nblocks=8)

    def client():
        first = disk.submit(IORequest(lba=40 * cylinder, nblocks=8))
        second = disk.submit(IORequest(lba=45 * cylinder, nblocks=8))
        yield first
        yield 0.001  # R1 is in service
        held = disk.submit(IORequest(lba=42 * cylinder, nblocks=8))
        disk.fail_disk("test")
        disk.repair()
        for lost in (second, held):
            try:
                yield lost
            except DiskFailedError:
                pass
        yield 0.1  # R1's transfer has ended
        yield engine.all_of([disk.submit(up), disk.submit(down)])

    engine.process(client())
    engine.run()
    return up.started_at, down.started_at


def test_failure_drains_the_scheduler_from_the_served_head():
    up_start, down_start = _drained_mid_service(Disk)
    assert (up_start, down_start) == _drained_mid_service(_arm)
    assert up_start < down_start
