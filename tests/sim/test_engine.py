"""Tests for the event engine: clock, ordering, run semantics."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_clock_custom_start():
    assert Engine(start=10.0).now == 10.0


def test_timeout_advances_clock():
    eng = Engine()

    def proc():
        yield eng.timeout(2.5)

    eng.process(proc())
    assert eng.run() == 2.5
    assert eng.now == 2.5


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1.0)


def test_run_until_stops_early():
    eng = Engine()
    hits = []

    def proc():
        for _ in range(10):
            yield eng.timeout(1.0)
            hits.append(eng.now)

    eng.process(proc())
    eng.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert eng.now == 3.5


def test_run_until_beyond_completion_advances_clock():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)

    eng.process(proc())
    eng.run(until=100.0)
    assert eng.now == 100.0


def test_same_time_events_fire_fifo():
    eng = Engine()
    order = []

    def proc(tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        eng.process(proc(tag))
    eng.run()
    assert order == ["a", "b", "c"]


def test_sequential_timeouts_accumulate():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        yield eng.timeout(2.0)
        yield eng.timeout(3.0)

    eng.process(proc())
    assert eng.run() == 6.0


def test_process_return_value():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        return 42

    assert eng.run_process(proc()) == 42


def test_process_exception_propagates_via_run_process():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        eng.run_process(proc())


def test_yielding_non_event_fails_process():
    eng = Engine()

    def proc():
        yield 123  # type: ignore[misc]

    p = eng.process(proc())
    eng.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, SimulationError)


def test_cross_engine_event_rejected():
    eng1, eng2 = Engine(), Engine()

    def proc():
        yield eng2.timeout(1.0)

    p = eng1.process(proc())
    eng1.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_deadlock_detected():
    eng = Engine()

    def proc():
        yield eng.event()  # nobody will ever trigger this

    eng.process(proc())
    with pytest.raises(DeadlockError):
        eng.run()


def test_event_succeed_wakes_waiter():
    eng = Engine()
    gate = eng.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((eng.now, value))

    def opener():
        yield eng.timeout(5.0)
        gate.succeed("open")

    eng.process(waiter())
    eng.process(opener())
    eng.run()
    assert seen == [(5.0, "open")]


def test_event_fail_raises_inside_waiter():
    eng = Engine()
    gate = eng.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield eng.timeout(1.0)
        gate.fail(RuntimeError("nope"))

    eng.process(waiter())
    eng.process(failer())
    eng.run()
    assert caught == ["nope"]


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_fail_requires_exception_instance():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")  # type: ignore[arg-type]


def test_waiting_on_already_processed_event():
    eng = Engine()
    gate = eng.event()
    gate.succeed("early")
    got = []

    def late_waiter():
        yield eng.timeout(3.0)
        value = yield gate
        got.append((eng.now, value))

    eng.process(late_waiter())
    eng.run()
    assert got == [(3.0, "early")]


def test_step_on_empty_queue_raises_simulation_error():
    eng = Engine()
    with pytest.raises(SimulationError, match="empty event queue"):
        eng.step()


def test_step_on_empty_queue_after_drain():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)

    eng.process(proc())
    eng.run()
    with pytest.raises(SimulationError, match="empty event queue"):
        eng.step()


def test_run_not_reentrant():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        eng.run()

    p = eng.process(proc())
    eng.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_many_processes_complete():
    eng = Engine()
    done = []

    def proc(i):
        yield eng.timeout(float(i % 7) + 0.1)
        done.append(i)

    for i in range(200):
        eng.process(proc(i))
    eng.run()
    assert sorted(done) == list(range(200))


def test_process_needs_generator():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_process_is_alive_transitions():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)

    p = eng.process(proc())
    assert p.is_alive
    eng.run()
    assert not p.is_alive
    assert p.ok


def test_waiting_on_another_process():
    eng = Engine()
    log = []

    def child():
        yield eng.timeout(2.0)
        return "child-result"

    def parent():
        result = yield eng.process(child())
        log.append((eng.now, result))

    eng.process(parent())
    eng.run()
    assert log == [(2.0, "child-result")]


def test_timeout_carries_value():
    eng = Engine()
    got = []

    def proc():
        v = yield eng.timeout(1.0, value="payload")
        got.append(v)

    eng.process(proc())
    eng.run()
    assert got == ["payload"]


# -- background scheduling (telemetry sampler contract) ----------------------


def test_background_call_runs_before_foreground_work_ends():
    eng = Engine()
    ticks = []

    def tick():
        ticks.append(eng.now)
        eng.schedule_background(tick, 1.0)

    def proc():
        yield eng.timeout(3.5)

    eng.schedule_background(tick, 1.0)
    eng.process(proc())
    assert eng.run() == 3.5
    # Ticks at 1, 2, 3 ran (before the workload's final event); the
    # tick at 4 was discarded without advancing the clock.
    assert ticks == [1.0, 2.0, 3.0]
    assert eng.now == 3.5


def test_background_never_extends_a_run():
    plain = Engine()
    plain.process((plain.timeout(0.7) for _ in range(1)))

    def _wait(e):
        yield e.timeout(0.7)

    a, b = Engine(), Engine()
    a.process(_wait(a))
    b.process(_wait(b))
    b.schedule_background(lambda: None, 0.25)
    assert a.run() == b.run() == 0.7


def test_background_only_queue_drains_without_running():
    eng = Engine()
    ran = []
    eng.schedule_background(lambda: ran.append(1), 5.0)
    assert eng.run() == 0.0
    assert ran == []
    assert eng.now == 0.0


def test_two_background_chains_do_not_keep_each_other_alive():
    eng = Engine()
    counts = {"a": 0, "b": 0}

    def make(key):
        def tick():
            counts[key] += 1
            eng.schedule_background(tick, 1.0)
        return tick

    eng.schedule_background(make("a"), 1.0)
    eng.schedule_background(make("b"), 1.0)

    def proc():
        yield eng.timeout(2.5)

    eng.process(proc())
    assert eng.run() == 2.5
    assert counts == {"a": 2, "b": 2}


def test_background_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule_background(lambda: None, -0.1)


def test_background_respects_until_bound():
    eng = Engine()
    ticks = []

    def tick():
        ticks.append(eng.now)
        eng.schedule_background(tick, 1.0)

    def proc():
        for _ in range(6):
            yield eng.timeout(1.0)

    eng.schedule_background(tick, 1.0)
    eng.process(proc())
    eng.run(until=2.25)
    assert eng.now == 2.25
    assert ticks == [1.0, 2.0]
    # Resuming past the bound keeps sampling alongside the workload;
    # the tick at 6.0 still runs (same timestamp as the final event),
    # and only the tick at 7.0 is discarded.
    eng.run()
    assert eng.now == 6.0
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_run_until_before_the_clock_raises():
    eng = Engine()

    def sleeper():
        yield 10.0

    eng.process(sleeper())
    assert eng.run(until=5.5) == 5.5
    with pytest.raises(SimulationError, match="before the clock"):
        eng.run(until=3)
    assert eng.now == 5.5
    assert eng.run(until=5.5) == 5.5  # until == now stays legal
    assert eng.run() == 10.0
