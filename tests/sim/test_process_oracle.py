"""Bare-entry starts and sleeps, against the Timeout oracle.

A :class:`~repro.sim.process.Process` starts, and ends a sleep that
something queued can pre-empt, through one bare heap entry at the
``(time, seq)`` the oracle's start call or :class:`~repro.sim.Timeout`
took (:class:`tests.sim.oracle.TimeoutProcess`).  Random schedules of
sleeps, event waits, timers, spawns, joins, finishes and failures run
on both, driven by ``run()``, ``run(until=)`` and ``step()``; every
process must resume at the same instants in the same order, the
engines must end at the same clock and seq having pushed as many heap
entries, and the race detector must report the same races and
counters and give every context the same epoch and edge log.
"""

import heapq
from contextlib import contextmanager
from types import SimpleNamespace
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.sim.engine as engine_module
import repro.sim.event as event_module
import repro.sim.process as process_module
from repro.sanitizer import shared
from repro.sim import Engine, TaskLoop
from tests.conftest import detector_or_none
from tests.sim.oracle import TimeoutEngine

N_EVENTS = 3
# Dyadic delays keep every instant an exact float, so equal and tied
# wake times are common.
_delay = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
_leaf = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("signal"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("timer"), _delay, st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("write")),
    st.tuples(st.just("fail")),
    st.tuples(st.just("rejoin")),  # the actor's last child, maybe done
)


def _ops(depth):
    if depth == 0:
        return st.lists(_leaf, max_size=6)
    nested = st.tuples(st.sampled_from(["spawn", "join", "task"]),
                       _ops(depth - 1))
    return st.lists(st.one_of(_leaf, _leaf, nested), max_size=6)


_scenario = st.tuples(
    st.lists(_ops(2), min_size=1, max_size=4),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5]),
             max_size=3),                               # run(until=) cuts
)


def _run(eng, cuts):
    eng.run()


def _run_with_cuts(eng, cuts):
    for cut in sorted(set(cuts)):
        if cut >= eng.now:
            eng.run(until=cut)
    eng.run()


def _step(eng, cuts):
    while eng._queue:  # step() never sleeps in frame
        eng.step()


DRIVES = {"run": _run, "until": _run_with_cuts, "step": _step}


@contextmanager
def _counting_pushes():
    """Count every push onto an engine's heap (the kernel pushes
    through these three names)."""
    pushes = [0]

    def push(heap, item):
        pushes[0] += 1
        heapq.heappush(heap, item)

    shim = SimpleNamespace(heappush=push, heappop=heapq.heappop)
    with patch.object(engine_module, "heapq", shim), \
            patch.object(event_module, "heappush", push), \
            patch.object(process_module, "heappush", push):
        yield pushes


def _stamp(stamp):
    instant, ctx, epoch = stamp
    if ctx is None:
        return (instant, None, [_stamp(s) for s in epoch])
    return (instant, ctx.name, epoch)


def _edge_log(ctx, now):
    """The edges ``ctx`` holds for instant ``now``.  The oracle's
    zero-delay Timeout logs an edge to the sleeper's own earlier node,
    which orders nothing (a node reaches its own earlier epochs); a
    bare entry leaves it out, as a sleep in frame always has."""
    if ctx.at != now:
        return []
    return [(tag, _stamp(stamp)) for tag, stamp in ctx.edges
            if stamp[1] is not ctx]


def _observe(engine_cls, scenario, drive, sanitize):
    actors, cuts = scenario
    procs = []
    log = []
    with detector_or_none(sanitize) as det, _counting_pushes() as pushes:
        eng = engine_cls()
        loop = TaskLoop(eng, error_handler=lambda task: log.append(
            ("task failed", eng.now, str(task.error))))
        loop.start()
        events = [eng.event() for _ in range(N_EVENTS)]
        var = shared("process.v")

        def signal(index):
            ev, events[index] = events[index], eng.event()
            ev.succeed(index)

        def resumed(name):
            entry = (eng.now, name)
            if det is not None:
                ctx = det._current
                entry += (ctx.epoch, _edge_log(ctx, eng.now))
            log.append(entry)

        def join(name, child):
            try:
                value = yield child
            except ValueError as error:
                value = str(error)
            resumed(name)
            log.append(("joined", name, value))

        def actor(name, ops):
            resumed(name)
            children = []
            for i, op in enumerate(ops):
                kind = op[0]
                if kind == "sleep":
                    yield op[1]
                    resumed(name)
                elif kind == "signal":
                    signal(op[1])
                elif kind == "wait":
                    value = yield events[op[1]]
                    resumed(name)
                    log.append(("got", name, value))
                elif kind == "timer":
                    eng.timeout(op[1]).callbacks.append(
                        lambda _ev, j=op[2]: signal(j))
                elif kind == "write":
                    var.write(eng, op=f"{name}.{i}")
                elif kind == "fail":
                    raise ValueError(f"{name} failed")
                elif kind == "rejoin":
                    if children:
                        yield from join(name, children[-1])
                elif kind == "task":
                    loop.spawn(actor(f"{name}.{i}", op[1]))
                else:
                    child = eng.process(actor(f"{name}.{i}", op[1]),
                                        name=f"{name}.{i}", daemon=True)
                    procs.append(child)
                    children.append(child)
                    if kind == "join":
                        yield from join(name, child)
            return name

        for n, ops in enumerate(actors):
            procs.append(eng.process(actor(str(n), ops), name=str(n),
                                     daemon=True))
        DRIVES[drive](eng, cuts)
    outcomes = [(p.name, p.ok, str(p.value)) if p.triggered else p.name
                for p in procs]
    detector = None if det is None else (
        det.summary(),
        [(r.var_name.split("#")[0], r.time, r.first.op, r.second.op)
         for r in det.races],
        [(p.name, p._san_ctx.epoch) for p in procs])
    return log, outcomes, eng.now, eng._seq, pushes[0], detector


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario, st.sampled_from(sorted(DRIVES)), st.booleans())
# Two sleepers tied at one wake time, and a timer due then too.
@example(([[("sleep", 0.5), ("write",)], [("sleep", 0.5), ("write",)],
           [("timer", 0.5, 0), ("wait", 0)]], []), "run", True)
# A zero sleep behind a same-instant start, and a joined failure.
@example(([[("sleep", 0.0), ("join", [("sleep", 0.25), ("fail",)])],
           [("write",), ("sleep", 0.0), ("write",)]], [0.25]),
         "until", True)
# A child finishes unjoined at 0.5, then its parent rejoins it from a
# bare entry taken after that finish: the finish counts as reached, so
# the join waits behind the peer's zero sleep.
@example(([[("spawn", [("sleep", 0.5)]), ("sleep", 0.25), ("sleep", 0.25),
            ("sleep", 0.0), ("rejoin",)],
           [("sleep", 0.25), ("sleep", 0.25), ("sleep", 0.0)]], []),
         "run", False)
def test_bare_entries_match_the_timeout_oracle(scenario, drive, sanitize):
    new = _observe(Engine, scenario, drive, sanitize)
    assert new == _observe(TimeoutEngine, scenario, drive, sanitize)


def _sleeps_then_joins(eng):
    def child():
        yield 0.5

    def parent():
        yield 0.0
        yield eng.process(child())
        yield 1.0

    eng.process(parent())
    eng.process(parent())  # keeps every sleep off the in-frame path
    eng.run()
    return eng.now, eng._seq


def test_start_and_queued_sleep_build_no_event():
    """The oracle builds a Timeout per queued sleep; the bare entry
    builds none and takes the same seqs."""
    built = []
    timeout_init = event_module.Timeout.__init__

    def counting(self, *args):
        built.append(args[1])
        timeout_init(self, *args)

    with patch.object(event_module.Timeout, "__init__", counting):
        new = _sleeps_then_joins(Engine())
        assert built == []
        assert _sleeps_then_joins(TimeoutEngine()) == new
        assert built
