"""Sleeping by yielding a float delay.

A process sleeps by yielding a bare float.  When nothing pending can
fire by the wake time (and the running ``run()`` reaches it), the clock
advances inside the process's own frame and no event is built;
otherwise the sleep is one bare heap entry at the position
``engine.timeout`` would have queued.  These tests pin the cases where
the two could differ, and the rule that keeps ``Timeout`` out of
process code.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro
from repro.errors import SimulationError
from repro.sanitizer import runtime, shared
from repro.sanitizer.race import RaceDetector
from repro.sim import Engine, TaskLoop
from tests.sanitizer.oracle import FullClockDetector


def _step_all(eng):
    while eng._queue:  # step() never sleeps in frame
        eng.step()


def _sleeper(eng, log, *delays):
    for delay in delays:
        yield delay
        log.append(eng.now)


def test_free_sleep_takes_no_queue_entry():
    eng = Engine()
    log = []
    eng.process(_sleeper(eng, log, 1.0, 0.0, 0.5))
    eng.run()
    assert log == [1.0, 1.0, 1.5]
    # The start call and the process's completion; no sleep queued.
    assert eng._seq == 2


def test_entry_due_at_the_wake_time_fires_before_the_sleeper():
    eng = Engine()
    log = []
    eng.timeout(1.0).callbacks.append(lambda ev: log.append(("timer", eng.now)))

    def sleeper():
        yield 1.0
        log.append(("sleeper", eng.now))

    eng.process(sleeper())
    eng.run()
    assert log == [("timer", 1.0), ("sleeper", 1.0)]


def test_entry_due_strictly_later_lets_the_sleeper_jump():
    eng = Engine()
    log = []
    eng.timeout(1.5).callbacks.append(lambda ev: log.append(("timer", eng.now)))

    def sleeper():
        yield 1.0
        log.append(("sleeper", eng.now))

    eng.process(sleeper())
    seq = eng._seq
    eng.run()
    assert log == [("sleeper", 1.0), ("timer", 1.5)]
    assert eng._seq == seq + 1  # only the process's completion


def test_waiters_on_one_event_all_resume_before_any_sleeps_in_frame():
    """An event's later callbacks are due now but not queued: a waiter
    resumed before them must not move the clock past them."""
    eng = Engine()
    ev = eng.event()
    log = []

    def waiter(name):
        yield ev
        log.append((name, "woke", eng.now))
        yield 1.0
        log.append((name, "slept", eng.now))

    def watcher():
        yield eng.all_of([ev])  # its callback on ev comes last
        log.append(("all_of", eng.now))

    for name in "abc":
        eng.process(waiter(name))
    eng.process(watcher())
    eng.process(_sleeper(eng, [], 2.0))
    eng.timeout(0.5).callbacks.append(lambda _: ev.succeed())
    eng.run()
    assert log == [
        ("a", "woke", 0.5), ("b", "woke", 0.5), ("c", "woke", 0.5),
        ("all_of", 0.5),
        ("a", "slept", 1.5), ("b", "slept", 1.5), ("c", "slept", 1.5),
    ]


def test_sleep_past_until_stops_at_until_and_resumes_next_run():
    eng = Engine()
    log = []
    eng.process(_sleeper(eng, log, 1.0, 2.0))
    assert eng.run(until=2.5) == 2.5
    assert eng.now == 2.5 and log == [1.0]
    eng.run()
    assert log == [1.0, 3.0]


def test_sleep_ending_exactly_at_until_completes_in_that_run():
    eng = Engine()
    log = []
    eng.process(_sleeper(eng, log, 2.0))
    assert eng.run(until=2.0) == 2.0
    assert log == [2.0]


def test_step_never_jumps_the_clock():
    eng = Engine()
    log = []
    eng.process(_sleeper(eng, log, 1.0, 1.0))
    eng.step()  # start: the first sleep is queued, not slept in frame
    assert eng.now == 0.0 and log == [] and len(eng._queue) == 1
    eng.step()
    assert eng.now == 1.0 and log == [1.0] and len(eng._queue) == 1
    eng.step()
    assert eng.now == 2.0 and log == [1.0, 2.0]


def test_background_sample_at_the_wake_time_reads_state_first():
    """A telemetry sampler scheduled for the wake time sees the state
    the sleeper left before sleeping, not what it writes after."""
    eng = Engine()
    state = {"v": 0}
    seen = []
    eng.schedule_background(lambda: seen.append((eng.now, state["v"])), 1.0)

    def sleeper():
        state["v"] = 1
        yield 1.0
        state["v"] = 2
        yield 1.0

    eng.process(sleeper())
    eng.run()
    assert seen == [(1.0, 1)]
    assert eng.now == 2.0


def test_negative_delay_raises_at_the_yield_and_can_be_caught():
    eng = Engine()
    caught = []

    def proc():
        try:
            yield -1.0
        except SimulationError as error:
            caught.append((eng.now, str(error)))
        yield 1.0
        return eng.now

    assert eng.run_process(proc()) == 1.0
    assert caught == [(0.0, "negative timeout delay: -1.0")]


def test_uncaught_negative_delay_fails_the_process():
    eng = Engine()

    def proc():
        yield -0.5

    with pytest.raises(SimulationError, match="negative timeout delay"):
        eng.run_process(proc())


@pytest.mark.parametrize("value", ["soon", None, 1, True])
def test_non_float_non_event_yield_fails_with_the_usual_message(value):
    eng = Engine()

    def proc():
        yield value

    p = eng.process(proc(), name="p")
    eng.run()
    assert not p.ok
    assert str(p.value) == (
        f"process 'p' yielded {value!r}; processes must yield Event instances")


# -- run() against step(): the same schedule --------------------------------
#
# step() never sleeps in frame, so a schedule stepped entry by entry is
# the entry-per-sleep reference.  Random schedules of sleeps, shared
# events, AllOf/AnyOf waits, timers, child processes and tasks must log
# every operation at the same instant in the same order either way.

N_EVENTS = 3
_delay = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
_leaf = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("signal"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.sampled_from(["allof", "anyof"]),
              st.lists(st.integers(0, N_EVENTS - 1), min_size=1, max_size=3)),
    st.tuples(st.just("timer"), _delay, st.integers(0, N_EVENTS - 1)),
)


def _ops(depth):
    if depth == 0:
        return st.lists(_leaf, max_size=6)
    nested = st.tuples(st.sampled_from(["spawn", "task", "join"]),
                       _ops(depth - 1))
    return st.lists(st.one_of(_leaf, _leaf, nested), max_size=6)


_schedules = st.lists(_ops(2), min_size=1, max_size=4)


def _schedule_log(actors, drive):
    eng = Engine()
    loop = TaskLoop(eng)
    loop.start()
    events = [eng.event() for _ in range(N_EVENTS)]
    log = []

    def signal(index):
        ev, events[index] = events[index], eng.event()
        ev.succeed(index)

    def actor(name, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield op[1]
            elif kind == "signal":
                signal(op[1])
            elif kind == "wait":
                yield events[op[1]]
            elif kind in ("allof", "anyof"):
                waits = [events[j] for j in op[1]]
                yield (eng.all_of if kind == "allof" else eng.any_of)(waits)
            elif kind == "timer":
                eng.timeout(op[1]).callbacks.append(
                    lambda _ev, j=op[2]: signal(j))
            elif kind == "task":
                loop.spawn(actor(f"{name}.{i}", op[1]))
            else:
                child = eng.process(actor(f"{name}.{i}", op[1]), daemon=True)
                if kind == "join":
                    yield child
            log.append((eng.now, name, i))

    for n, ops in enumerate(actors):
        eng.process(actor(str(n), ops), daemon=True)
    drive(eng)
    return log, eng.now


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_schedules)
# Two callbacks on one event: the first waiter's sleep must not pass
# the AllOf's check, nor a second waiter.
@example([[("timer", 0.0, 2), ("wait", 2), ("sleep", 0.25)],
          [("allof", [2])]])
@example([[("wait", 0), ("sleep", 0.5)], [("wait", 0), ("sleep", 0.5)],
          [("sleep", 0.25), ("signal", 0)]])
def test_run_matches_step_by_step(actors):
    assert (_schedule_log(actors, lambda eng: eng.run())
            == _schedule_log(actors, _step_all))


# -- task loop ---------------------------------------------------------------


def test_task_sleeps_keep_fifo_order_with_their_peers():
    eng = Engine()
    loop = TaskLoop(eng)
    loop.start()
    log = []

    def task(name, delay):
        log.append((name, "start", eng.now))
        yield delay
        log.append((name, "woke", eng.now))

    loop.spawn(task("a", 1.0))
    loop.spawn(task("b", 0.0))
    loop.spawn(task("c", 1.0))
    eng.run()
    # b's zero sleep does not let it pass c's start, and a's sleep
    # does not move the clock before b and c have started.
    assert log == [
        ("a", "start", 0.0), ("b", "start", 0.0), ("c", "start", 0.0),
        ("b", "woke", 0.0), ("a", "woke", 1.0), ("c", "woke", 1.0),
    ]


def test_task_negative_delay_raises_inside_the_task():
    eng = Engine()
    loop = TaskLoop(eng)
    loop.start()
    caught = []

    def task():
        try:
            yield -1.0
        except SimulationError as error:
            caught.append(str(error))
        yield 0.5
        return eng.now

    t = loop.spawn(task())
    eng.run()
    assert caught == ["negative timeout delay: -1.0"]
    assert t.ok and t.result == 0.5


# -- race detector -----------------------------------------------------------


def _racy_scenario(drive):
    """Processes and tasks writing shared state at shared instants,
    sleeping in between; ``drive(engine)`` runs it."""
    eng = Engine()
    var = shared("sleep.v")
    loop = TaskLoop(eng)
    loop.start()
    done = eng.event()

    def writer(name, delays, signal=False):
        for i, delay in enumerate(delays):
            var.write(eng, op=f"{name}.{i}")
            yield delay
        var.read(eng, op=f"{name}.end")
        if signal:
            done.succeed()

    def waiter():
        yield done
        var.write(eng, op="waiter")

    procs = [
        eng.process(writer("p", [0.0, 1.0, 0.5], signal=True), daemon=True),
        eng.process(writer("q", [1.0, 0.25, 0.125]), daemon=True),
        eng.process(waiter(), daemon=True),
    ]
    loop.spawn(writer("t", [1.0, 0.0, 0.5]))
    drive(eng)
    # Each process's epoch and edge log (tags and stamp instants): a
    # sleep must tick them as a Timeout's trigger and wake-up would.
    return [(p._san_ctx.epoch, p._san_ctx.at,
             [(tag, stamp[0]) for tag, stamp in p._san_ctx.edges])
            for p in procs]


def _detect(detector, drive):
    """``(races, summary, what drive returns)``, and the in-frame
    sleeps."""
    sleeps = []
    on_sleep = detector.on_sleep

    def counting(owner, wake):
        sleeps.append(wake)
        on_sleep(owner, wake)

    detector.on_sleep = counting
    prev = runtime.active
    runtime.active = detector
    try:
        clocks = drive()
    finally:
        runtime.active = prev
    races = [(r.var_name.split("#")[0], r.time, r.first.op, r.second.op)
             for r in detector.races]
    return (races, detector.summary(), clocks), sleeps


def test_in_frame_sleep_gives_the_detector_a_timeouts_clocks():
    """Driven by run(), free sleeps happen in frame; driven by step(),
    every sleep takes a queue entry.  Races and counters agree, and
    both drives report the same sleeps to the detector."""
    in_frame, sleeps = _detect(
        RaceDetector(), lambda: _racy_scenario(lambda eng: eng.run()))
    queued, queued_sleeps = _detect(
        RaceDetector(), lambda: _racy_scenario(_step_all))
    assert in_frame == queued
    assert in_frame[0]  # the scenario does race
    assert sleeps and sleeps == queued_sleeps


def test_sanitized_scenario_matches_the_full_clock_oracle():
    from repro.bench.experiments import run_experiment

    def scenario():
        run_experiment("tab4")
        run_experiment("tab6")
        return []

    instant, sleeps = _detect(RaceDetector(), scenario)
    full, full_sleeps = _detect(FullClockDetector(), scenario)
    assert instant[1] == full[1]
    assert instant[1]["races"] == 0 and instant[1]["accesses"] > 0
    assert sleeps and sleeps == full_sleeps


# -- the one sleep idiom -----------------------------------------------------


def test_process_code_sleeps_only_by_yielding_a_delay():
    """No ``yield <x>.timeout(...)`` or ``yield Timeout(...)`` anywhere
    in the package: a process sleeps by yielding a float."""
    package = Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Yield)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in ("timeout", "Timeout"):
                offenders.append(
                    f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == []
