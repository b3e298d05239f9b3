"""Reading a disk changes nothing.

A disk that commits at enqueue records what it served when something
reads it, not when a striped range lands, and a commit on a disk whose
last extent has finished skips the catch-up: the unrecorded backlog may
then hold idle gaps.  Random schedules of striped ranges and lone
requests over such disks (idle gaps, zero-delay resubmits, a same-instant
read right after a commit whose predecessor finished at exactly that
instant, an optional ``fail_disk`` with an optional repair), driven by
``run(until=)`` bounds and single ``step()`` calls, must leave every
disk in the same state whether it is read after every step, at every
bound and right after every submit, or only at the end: the same
tallies, busy signal, counters, queue depths, head, request stamps and
range fragments.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import DiskFailedError
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry, StripedArray
from repro.storage.request import IORequest

from tests.storage.oracle import Queued

GEO = DiskGeometry(cylinders=50, heads=2, sectors_per_track=8)


def _run(eager: bool, scenario):
    """Run ``scenario``, reading every disk at every chance when
    ``eager``; returns the state the two runs must agree on."""
    ndisks, unit, striped, singles, fault, actions, drain = scenario
    engine = Engine()
    disks = [Disk(engine, geometry=GEO, name=f"d{i}") for i in range(ndisks)]
    assert all(disk._committed for disk in disks)
    queued = Queued(disks)
    array = StripedArray(engine, disks, stripe_unit=unit)
    log = []

    def read():
        if eager:
            engine.metrics.snapshot()  # settles every disk

    def requester(name, ops, submit, total):
        lba = 0
        for gap, start, nblocks, write in ops:
            if gap:
                yield gap  # else a zero-delay resubmit
            if start is not None:
                lba = start
            lba %= total
            nblocks = min(nblocks, total - lba)
            try:
                done = submit(lba, nblocks, write)
            except DiskFailedError:
                log.append((engine.now, name, "raised"))
                continue
            read()
            try:
                value = yield done
            except DiskFailedError:
                log.append((engine.now, name, "failed"))
            else:
                log.append((engine.now, name, lba, len(
                    value if isinstance(value, list) else [value])))
            lba += nblocks

    def single(index):
        disk = disks[index % ndisks]
        return lambda lba, nblocks, write: disk.submit(
            IORequest(lba=lba, nblocks=nblocks, is_write=write))

    def failer(index, at, repair_after):
        yield at
        disks[index % ndisks].fail_disk("test")
        log.append((engine.now, "failed", index))
        if repair_after is not None:
            yield repair_after
            disks[index % ndisks].repair()
            log.append((engine.now, "repaired", index))

    for i, ops in enumerate(striped):
        engine.process(requester(f"r{i}", ops, array.submit_range,
                                 array.total_blocks))
    for i, (index, ops) in enumerate(singles):
        engine.process(requester(f"s{i}", ops, single(index),
                                 GEO.total_blocks))
    if fault is not None:
        engine.process(failer(*fault))
    for kind, amount in actions:
        if kind == "run":
            engine.run(until=engine.now + amount)
            read()
        else:
            for _ in range(amount):
                if not engine._queue:
                    break
                engine.step()
                read()
    if drain:
        engine.run()
    stats = []
    for d in disks:
        busy = d.busy
        stats.append((
            tuple(d.service_times.values), tuple(d.response_times.values),
            busy._area, busy._last_time, busy._last_value, busy._max,
            busy.mean(), d.requests_completed.value, d.bytes_read.value,
            d.bytes_written.value, d.media_errors.value, d.queue_depth,
            d.queue_max_depth, d.head_cylinder))
    return log, queued.stamps(), stats, engine.now


_gap = st.sampled_from((0.0, 0.0, 0.001, 0.006, 0.02))
_op = st.tuples(_gap, st.one_of(st.none(), st.integers(0, 2_000)),
                st.integers(1, 40), st.booleans())
_ops = st.lists(_op, min_size=1, max_size=4)
_action = st.one_of(
    st.tuples(st.just("run"), st.sampled_from((0.0, 0.002, 0.005, 0.013))),
    st.tuples(st.just("step"), st.integers(1, 12)))
_scenario = st.tuples(
    st.integers(1, 3),                                     # disks
    st.integers(1, 16),                                    # stripe unit
    st.lists(_ops, max_size=2),                            # striped
    st.lists(st.tuples(st.integers(0, 2), _ops), max_size=2),  # lone
    st.one_of(st.none(), st.tuples(                        # fail_disk
        st.integers(0, 2), st.sampled_from((0.0, 0.004, 0.011, 0.03)),
        st.one_of(st.none(), st.sampled_from((0.0, 0.002, 0.01))))),
    st.lists(_action, min_size=1, max_size=5),
    st.booleans(),                                         # drain
)


#: One striped requester on one disk: a range, then the next one.
def _two_ranges(gap, start, actions):
    return (1, 4, [[(0.0, 0, 8, False), (gap, start, 8, False)]], [], None,
            actions, False)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario)
# Read mid-service, after an idle gap: the busy signal rose at the
# second range's own start, not at the first one's finish.
@example(_two_ranges(0.001, 400, [("run", 0.002), ("run", 0.005)]))
# Read right after a zero-delay resubmit committed behind a range that
# finished at that very instant: the second range has not started, and
# the most ever queued is its one fragment.
@example(_two_ranges(0.0, None, [("step", 4)]))
@example(_two_ranges(0.0, None, [("step", 5)]))
def test_reading_a_disk_changes_nothing(scenario):
    assert _run(True, scenario) == _run(False, scenario)
