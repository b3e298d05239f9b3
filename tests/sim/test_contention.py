"""Contention semantics under the race detector.

These tests re-exercise the sync primitives' contracts — FIFO grant
fairness, cancel-while-queued, hand-off vs buffered Store paths,
zero-byte Channel transfers — with :func:`repro.sanitizer.sanitized`
active, pinning two things at once: the primitives behave identically
under instrumentation, and their internal hand-offs carry the
happens-before edges that keep correctly synchronized code race-free.
"""

import pytest

from repro.errors import SimulationError
from repro.sanitizer import sanitized, shared
from repro.sim import Channel, Engine, Resource, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_fifo_fairness_under_sanitizer():
    with sanitized() as det:
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def proc(tag):
            req = res.acquire()
            yield req
            order.append((tag, eng.now))
            yield eng.timeout(1.0)
            res.release(req)

        for tag in range(5):
            eng.process(proc(tag))
        eng.run()
    assert order == [(t, float(t)) for t in range(5)]
    assert det.races == []


def test_resource_handoff_is_a_synchronization_edge():
    # Writer releases the slot to a queued reader: the reader's access
    # to the shared var is ordered by the grant hand-off, not a race.
    with sanitized() as det:
        eng = Engine()
        res = Resource(eng, capacity=1)
        var = shared("guarded")
        state = {"x": 0}

        def writer():
            req = res.acquire()
            yield req
            var.write(eng, op="store")
            state["x"] = 1
            res.release(req)

        def reader():
            req = res.acquire()
            yield req
            var.read(eng, op="load")
            assert state["x"] == 1
            res.release(req)

        eng.process(writer())
        eng.process(reader())
        eng.run()
    assert det.races == []
    assert det.accesses == 2


def test_cancel_while_queued_releases_slot_to_next_waiter():
    with sanitized() as det:
        eng = Engine()
        res = Resource(eng, capacity=1)
        granted = []

        def holder():
            req = res.acquire()
            yield req
            granted.append("holder")
            yield eng.timeout(5.0)
            res.release(req)

        def quitter():
            req = res.acquire()
            yield eng.timeout(1.0)  # give up before the grant arrives
            assert not req.triggered
            res.release(req)  # cancel: removed from the wait queue
            granted.append("quitter-cancelled")

        def patient():
            req = res.acquire()
            yield req
            granted.append("patient")
            res.release(req)

        eng.process(holder())
        eng.process(quitter())
        eng.process(patient())
        eng.run()
        # The cancelled waiter never got the slot; the patient waiter
        # inherited it when the holder released.
        assert granted == ["holder", "quitter-cancelled", "patient"]
        assert res.in_use == 0 and res.queued == 0
    assert det.races == []


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_parked_getters_wake_fifo_under_sanitizer():
    with sanitized() as det:
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        def producer():
            yield eng.timeout(1.0)
            store.put("a")
            store.put("b")

        eng.process(consumer(1))
        eng.process(consumer(2))
        eng.process(producer())
        eng.run()
    assert got == [(1, "a"), (2, "b")]
    assert det.races == []


def test_store_buffered_put_orders_the_later_getter():
    # Buffered path: the putter's clock is stashed with the item, so
    # the getter inherits the edge and its read is not a race.
    with sanitized() as det:
        eng = Engine()
        store = Store(eng)
        var = shared("payload")
        state = {}

        def producer():
            yield eng.timeout(1.0)
            var.write(eng, op="fill")
            state["v"] = 42
            store.put("ready")

        def consumer():
            yield store.get()
            var.read(eng, op="use")
            assert state["v"] == 42

        eng.process(producer())
        eng.process(consumer())
        eng.run()
    assert det.races == []


@pytest.mark.parametrize("edge", [True, False])
def test_store_take_orders_the_taker_after_the_putter(edge):
    # take() hands over a buffered item with no event; the taker still
    # inherits the putter's stamp (without it, the write races).
    with sanitized() as det:
        if not edge:
            det.on_store_get = lambda store: None
        eng = Engine()
        store = Store(eng)
        var = shared("payload")

        def producer():
            var.write(eng, op="fill")
            store.put("ready")
            yield 0.0

        def consumer():
            assert store.take() == "ready"
            var.write(eng, op="use")
            yield 0.0

        eng.process(producer())
        eng.process(consumer())
        eng.run()
    assert len(det.races) == (0 if edge else 1)


def test_store_take_is_fifo_and_rejects_an_empty_store():
    eng = Engine()
    store = Store(eng)
    with pytest.raises(SimulationError, match="empty store"):
        store.take()
    store.put("a")
    store.put("b")
    assert [store.take(), store.take(), store.count] == ["a", "b", 0]


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def test_zero_byte_transfer_pays_latency_only():
    with sanitized() as det:
        eng = Engine()
        ch = Channel(eng, bandwidth=1000.0, latency=0.25)
        done = []

        def sender():
            yield from ch.send(0)
            done.append(eng.now)

        eng.process(sender())
        eng.run()
        assert done == [0.25]
        assert ch.bytes_sent == 0 and ch.transfers == 1
    assert det.races == []


def test_channel_serializes_contending_senders_fifo():
    with sanitized() as det:
        eng = Engine()
        ch = Channel(eng, bandwidth=100.0)  # 1 byte = 10 ms
        finished = []

        def sender(tag, nbytes):
            yield from ch.send(nbytes)
            finished.append((tag, round(eng.now, 6)))

        for tag in range(3):
            eng.process(sender(tag, 1))
        eng.process(sender("zero", 0))
        eng.run()
        # FIFO over the shared link: three 10 ms transfers back to
        # back, then the zero-byte send completes instantly.
        assert finished == [(0, 0.01), (1, 0.02), (2, 0.03),
                            ("zero", 0.03)]
        assert ch.bytes_sent == 3 and ch.transfers == 4
    assert det.races == []
