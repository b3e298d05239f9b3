"""A finished process nobody awaits queues no entry.

A process whose generator finishes with no waiter registered takes the
seq its entry would have had and records the position ``(time, seq)``,
but pushes nothing.  A waiter that arrives before the engine reaches
that position queues the entry then, so it wakes exactly where it would
have; a later waiter is deferred through the queue, as for any processed
event.  These tests pin both cases, ``processed`` on each side of the
position, conditions over finished processes, failures, and the saved
entry itself.
"""

import pytest

from repro.cli.runtime import CliRuntime
from repro.sim import Engine


def _child(eng, log, value=7, delay=1.0):
    yield eng.timeout(delay)
    log.append(("finish", eng.now))
    return value


def _step_all(eng):
    """Drive ``eng`` entry by entry; returns the entries popped."""
    popped = 0
    while eng._queue:
        eng.step()
        popped += 1
    return popped


def test_same_instant_joiner_ranks_where_the_finish_entry_would_have():
    """At t=1 the child finishes ahead of three timers queued at t=0.5
    (``tick``, ``join`` and ``before``, ranked before the finish).  A
    process woken by ``tick`` and a callback run by ``join`` join the
    child: both wake after ``before`` and ahead of the timer ``join``
    queues (ranked after the finish)."""
    eng = Engine()
    log = []
    proc = eng.process(_child(eng, log))
    eng.run(until=0.5)
    tick = eng.timeout(0.5)
    join = eng.timeout(0.5)
    before = eng.timeout(0.5)

    def joiner():
        yield tick
        log.append(("process joins", proc.triggered, proc.processed))
        value = yield proc
        log.append(("process woken", value, eng.now))

    def on_join(_ev):
        log.append(("callback joins", proc.processed))
        proc.add_callback(lambda p: log.append(("callback woken", p.value)))
        eng.timeout(0.0).callbacks.append(lambda _: log.append(("after",)))

    eng.process(joiner())
    join.callbacks.append(on_join)
    before.callbacks.append(lambda _: log.append(("before", proc.processed)))
    eng.run()
    assert log == [
        ("finish", 1.0),
        ("process joins", True, False),
        ("callback joins", False),
        ("before", False),
        ("process woken", 7, 1.0),
        ("callback woken", 7),
        ("after",),
    ]
    assert proc.processed


def test_joiner_at_a_later_instant_is_deferred_behind_queued_entries():
    eng = Engine()
    log = []
    proc = eng.process(_child(eng, log, value="v"))

    def late():
        yield 2.0
        eng.timeout(0.0).callbacks.append(lambda _: log.append(("queued",)))
        value = yield proc
        log.append(("joined", value, eng.now))

    eng.process(late())
    eng.run()
    assert log == [("finish", 1.0), ("queued",), ("joined", "v", 2.0)]


def test_all_of_over_finished_processes():
    eng = Engine()
    log = []
    first = eng.process(_child(eng, log, value=1, delay=1.0))
    second = eng.process(_child(eng, log, value=2, delay=2.0))

    def waiter(at):
        yield at
        values = yield eng.all_of([first, second])
        log.append(("all", at, eng.now, values[first], values[second]))

    eng.process(waiter(2.0))   # second finishes at this instant
    eng.process(waiter(3.0))   # both finished earlier
    eng.run()
    assert log == [("finish", 1.0), ("finish", 2.0),
                   ("all", 2.0, 2.0, 1, 2), ("all", 3.0, 3.0, 1, 2)]


def test_processed_answers_by_position_under_step():
    eng = Engine()
    proc = eng.process(_child(eng, []))
    eng.step()                     # the child starts and queues its timeout
    other = eng.timeout(1.0)       # ranked after the child's timeout
    eng.step()                     # the child finishes, with no waiter
    assert proc.triggered and not proc.processed
    assert [entry[3] for entry in eng._queue] == [other]
    assert eng._queue[0][1] < proc._finish[1]
    eng.step()                     # ``other``: still before the finish
    assert not proc.processed and not eng._queue
    eng.run()                      # a run ends with every position reached
    assert proc.processed


def test_processed_after_run_until_cut_at_the_finish_instant():
    eng = Engine()
    proc = eng.process(_child(eng, []))
    eng.run(until=1.0)
    assert proc.triggered and proc.processed


def test_failed_process_nobody_awaits_raises_nothing():
    eng = Engine()

    def bad():
        yield 1.0
        raise ValueError("boom")

    proc = eng.process(bad())
    caught = []

    def late():
        yield 2.0
        try:
            yield proc
        except ValueError as error:
            caught.append((str(error), eng.now))

    eng.run()
    assert not proc.ok and isinstance(proc.value, ValueError)
    eng.process(late())
    eng.run()
    assert caught == [("boom", 3.0)]


def test_worker_thread_finish_queues_no_entry():
    """A started thread nobody joins: its start, its sleep (a Timeout:
    step() never sleeps in frame) and its body's sleep are the only
    entries; the finish takes a seq but no entry.  A joined thread's
    finish queues the entry its joiner wakes at."""
    def thread_entries(join):
        eng = Engine()
        runtime = CliRuntime(eng)

        def body():
            yield 0.5
            return "done"

        thread = runtime.create_thread(body()).start()
        if join:
            def joiner():
                return (yield from thread.join())
            eng.process(joiner())
        return _step_all(eng), eng._seq

    popped, seqs = thread_entries(join=False)
    assert (popped, seqs) == (3, 4)
    popped, seqs = thread_entries(join=True)
    # The joiner adds its start and its finish (queued nothing); the
    # thread's finish entry is queued for it.
    assert (popped, seqs) == (5, 6)


@pytest.mark.parametrize("tracer", [False, True])
def test_traced_process_still_closes_its_span(tracer):
    """A traced engine registers a span callback at spawn, so the
    finish queues its entry and the span closes at the finish."""
    from repro.obs import Tracer

    eng = Engine(tracer=Tracer() if tracer else None)
    proc = eng.process(_child(eng, []), name="child")
    eng.run()
    assert proc.processed
    assert (proc._finish is None) is tracer   # untraced: no entry queued
    if tracer:
        spans = [s for s in eng.tracer.spans() if s.name == "process:child"]
        assert [(s.start, s.end) for s in spans] == [(0.0, 1.0)]
