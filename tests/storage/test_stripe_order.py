"""Fragment-as-completion striping: the same schedule as one completion
event per fragment.

The oracle gives every fragment its own completion :class:`Event`
(``Disk.submit``) and gathers them with a countdown callback on those
events.  The array under test settles fragments by direct calls from
the disk arms and takes one heap slot per range, where the deciding
fragment's event sits in the oracle.  Random schedules of
same-instant requesters, an unrelated ``Timeout`` process and an
optional mid-range fault must resume every process at the same instant,
in the same order, with the same outcome, and leave every request with
the same timestamps, under both arrays; under the race detector they
must also produce the same summary.
"""

from typing import List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DiskFailedError, MediaError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sanitizer import runtime as _sanitizer
from repro.sanitizer import shared
from repro.sim import Engine
from repro.sim.event import Event
from repro.storage import Disk, DiskGeometry, StripedArray
from repro.storage.request import IORequest

from tests.conftest import detector_or_none
from tests.storage.oracle import Queued

GEO = DiskGeometry(cylinders=50, heads=2, sectors_per_track=8)


class EventGatherArray(StripedArray):
    """Oracle: one completion event per fragment, gathered by a
    countdown callback on those events.  Like the array under test it
    checks every member before queuing, so the two differ only in how
    fragments are gathered."""

    def submit_range(self, lba, nblocks, is_write=False):
        fragments = self.split(lba, nblocks)
        for disk, _, _ in fragments:
            if self.disks[disk].failed:
                raise DiskFailedError(f"disk {self.disks[disk].name} is offline")
        events = [
            self.disks[disk].submit(
                IORequest(lba=phys, nblocks=run, is_write=is_write))
            for disk, phys, run in fragments
        ]
        done = self.engine.event()
        remaining = len(events)

        def _gather(ev: Event) -> None:
            nonlocal remaining
            if _sanitizer.active is not None:
                _sanitizer.active.on_condition(done, ev)
            if done.triggered:
                return
            if not ev.ok:
                done.fail(ev.value)
                return
            remaining -= 1
            if remaining == 0:
                done.succeed([e.value for e in events])

        for ev in events:
            ev.add_callback(_gather)
        return done


def _outcome(exc: BaseException) -> tuple:
    return type(exc).__name__, str(exc)


def _run(array_cls, scenario, tick_at: float, detector: bool = False,
         specs=()):
    """Run one schedule; returns everything the two arrays must agree on."""
    with detector_or_none(detector) as det:
        log, queued, now = _schedule(array_cls, scenario, tick_at, specs)
    stamps = queued.stamps()
    return log, stamps, now, det.summary() if det is not None else None


def _schedule(array_cls, scenario, tick_at, specs):
    ndisks, unit, scheduler, requesters, hops, fault = scenario
    engine = Engine()
    if fault is not None and fault[0] == "media":
        specs += (FaultSpec(kind="disk.media_error", target=f"d{fault[1]}",
                            start=fault[2], probability=1.0, max_hits=1),)
    injector = FaultInjector(engine, FaultPlan(seed=0, specs=specs)) \
        if specs else None
    disks = [Disk(engine, geometry=GEO, scheduler=scheduler, name=f"d{i}",
                  injector=injector) for i in range(ndisks)]
    # Every request a disk queues, in submission order (a range's
    # fragments in stripe order).
    queued = Queued(disks)
    array = array_cls(engine, disks, stripe_unit=unit)
    log = []
    var = shared("stripe.order")

    def requester(name, ranges):
        for lba, nblocks in ranges:
            lba %= array.total_blocks
            nblocks = min(nblocks, array.total_blocks - lba)
            try:
                done = array.submit_range(lba, nblocks)
            except DiskFailedError as exc:
                log.append((engine.now, name, ("raised",) + _outcome(exc)))
                continue
            try:
                value = yield done
            except (DiskFailedError, MediaError) as exc:
                log.append((engine.now, name, _outcome(exc)))
            else:
                log.append((engine.now, name,
                            tuple((r.lba, r.nblocks) for r in value)))
            var.write(engine)

    def ticker():
        yield engine.timeout(tick_at)
        for hop in range(hops):
            log.append((engine.now, "ticker", hop))
            var.write(engine)
            yield engine.timeout(0)

    def failer(index, at, hops):
        yield engine.timeout(at)
        for _ in range(hops):  # land between same-instant heap entries
            yield engine.timeout(0)
        log.append((engine.now, "failer", index))
        var.write(engine)  # before the failure: fragments carry this write
        disks[index].fail_disk("test")

    for i, ranges in enumerate(requesters):
        engine.process(requester(f"r{i}", ranges))
    engine.process(ticker())
    if fault is not None and fault[0] == "fail":
        engine.process(failer(*fault[1:]))
    engine.run()
    return log, queued, engine.now


def _completion_instants(scenario) -> List[float]:
    """Every instant a fragment completes, from a run without faults."""
    _, stamps, _, _ = _run(StripedArray, scenario[:-1] + (None,), 0.0)
    return sorted({0.0} | {s[4] for s in stamps if s[4] is not None})


_range = st.tuples(st.integers(0, 10_000), st.integers(1, 96))
_scenario = st.tuples(
    st.integers(1, 8),                                    # disks
    st.integers(1, 24),                                   # stripe unit
    st.sampled_from(["fcfs", "sstf", "clook"]),
    st.lists(st.lists(_range, min_size=1, max_size=3),    # requesters
             min_size=1, max_size=4),
    st.integers(1, 4),                                    # ticker hops
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario, st.sampled_from([None, "fail", "media"]), st.data())
def test_direct_settling_matches_event_per_fragment_gather(
        scenario, fault_kind, data):
    scenario = scenario + (None,)
    instants = _completion_instants(scenario)
    tick_at = data.draw(st.sampled_from(instants))
    if fault_kind is not None:
        # Strike at a completion instant (same-instant with the landing
        # fragments, a few zero-delay hops in) or halfway to the next one.
        index = data.draw(st.integers(0, scenario[0] - 1))
        at = data.draw(st.sampled_from(instants))
        if at != instants[-1] and data.draw(st.booleans()):
            at = (at + instants[instants.index(at) + 1]) / 2
        hops = data.draw(st.integers(0, 3))
        scenario = scenario[:-1] + ((fault_kind, index, at, hops),)

    oracle = _run(EventGatherArray, scenario, tick_at)
    direct = _run(StripedArray, scenario, tick_at)
    assert direct[:3] == oracle[:3]

    oracle = _run(EventGatherArray, scenario, tick_at, detector=True)
    direct = _run(StripedArray, scenario, tick_at, detector=True)
    assert direct == oracle


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 4), st.integers(2, 8), st.integers(2, 5),
       st.sampled_from(("before", "mid", "boundary")), st.data())
def test_failure_inside_an_extent_matches_event_per_fragment_gather(
        ndisks, unit, rounds, where, data):
    """A member fails inside multi-fragment member runs (two ranges of
    ``rounds`` fragments per member, the second queued behind the
    first): before a run's first start, mid-fragment, or exactly at a
    fragment boundary, a few zero-delay hops in.  Every outcome and
    stamp is the gather's, and under the race detector the summary."""
    offset = data.draw(st.integers(0, unit - 1))  # a partial first unit
    nblocks = ndisks * unit * rounds
    requesters = [[(offset, nblocks)], [(offset + nblocks, nblocks)]]
    scenario = (ndisks, unit, "fcfs", requesters, 2, None)
    instants = _completion_instants(scenario)
    if where == "before":
        at = instants[1] / 2  # the first fragments are in service
    elif where == "mid":
        i = data.draw(st.integers(1, len(instants) - 2))
        at = (instants[i] + instants[i + 1]) / 2
    else:
        at = data.draw(st.sampled_from(instants[1:-1]))
    index = data.draw(st.integers(0, ndisks - 1))
    hops = data.draw(st.integers(0, 3))
    tick_at = data.draw(st.sampled_from(instants))
    scenario = scenario[:-1] + (("fail", index, at, hops),)

    oracle = _run(EventGatherArray, scenario, tick_at)
    direct = _run(StripedArray, scenario, tick_at)
    assert direct[:3] == oracle[:3]

    oracle = _run(EventGatherArray, scenario, tick_at, detector=True)
    direct = _run(StripedArray, scenario, tick_at, detector=True)
    assert direct == oracle


def test_late_fragment_after_failure_keeps_its_own_slot():
    """A fragment settled after a failure has triggered the range's event
    must not reach the range's waiter any earlier than its own event
    would have: here ``fail_disk`` settles d1's fragments between the
    trigger and the waiter's wake-up, so the failer's write still races
    the waiter's."""
    media = (FaultSpec(kind="disk.media_error", target="d0", start=0.0,
                       probability=1.0, max_hits=1),)
    at = _completion_instants((2, 4, "fcfs", [[(0, 32)]], 1, None))[1]
    # d0's first fragment fails the range at ``at``; the failer, one
    # zero-delay hop in, runs after that failure's heap slot (the
    # completion ranks by its enqueue seq, ahead of the failer's hop).
    scenario = (2, 4, "fcfs", [[(0, 32)]], 1, ("fail", 1, at, 1))
    results = [_run(array_cls, scenario, 0.0, detector=True, specs=media)
               for array_cls in (EventGatherArray, StripedArray)]
    assert results[0] == results[1]
    log, _, _, summary = results[0]
    assert log[1:] == [
        (at, "failer", 1),
        (at, "r0", ("MediaError", "disk d0: unrecoverable read at lba 0+4")),
    ]
    assert summary["races"] == 1
