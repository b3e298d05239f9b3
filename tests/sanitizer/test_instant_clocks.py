"""The edge log: identical verdicts to vector clocks that keep
everything, at a bounded size.

The oracle (:class:`tests.sanitizer.oracle.FullClockDetector`) keeps a
vector clock per context, never pruned, and joins every sent clock
whatever instant it was stamped at.  Random schedules over two engines
sharing one detector (and so one root context) must produce the same
races and the same counters under both.  The engines' runs may
alternate, but nothing is driven from outside between runs: that is
the one case the race module's docstring names where scoping instants
by simulated time alone could lose an edge.
"""

from contextlib import contextmanager

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.sanitizer import runtime, sanitized, shared
from repro.sanitizer.race import RaceDetector
from repro.sim import AllOf, AnyOf, Engine, Store, TaskLoop

from tests.sanitizer.oracle import FullClockDetector

N_VARS = 2
N_EVENTS = 3
N_STORES = 2


@contextmanager
def _active(det):
    prev = runtime.active
    runtime.active = det
    try:
        yield det
    finally:
        runtime.active = prev


# -- random schedules ---------------------------------------------------------
#
# A schedule is two lists of actors (one list per engine) plus how the
# two engines' runs interleave.  An actor is a list of ops; ``spawn``,
# ``task`` and ``join`` nest a child actor.  ``signal`` triggers (and
# re-arms) one of a few shared events; ``relay`` hangs a callback on
# one that, in the root context, writes a variable, takes a buffered
# store item and signals another.

_var = st.sampled_from([0, 0, 0, 1])
_ev = st.integers(0, N_EVENTS - 1)
_store = st.integers(0, N_STORES - 1)

_child = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from([0, 1, 2])),
    st.tuples(st.just("event"), _ev),
)

_access = st.tuples(st.just("access"), _var, st.booleans(),
                    st.sampled_from([False, False, False, True]))

_leaf = st.one_of(
    _access,
    _access,
    _access,
    st.tuples(st.just("sleep"), st.sampled_from([0, 0, 1, 2])),
    st.tuples(st.just("signal"), _ev),
    st.tuples(st.just("wait"), _ev),
    st.tuples(st.sampled_from(["put", "put", "get", "drain"]), _store),
    st.tuples(st.sampled_from(["allof", "anyof"]),
              st.lists(_child, min_size=1, max_size=3)),
    st.tuples(st.just("relay"), _ev, _ev, _var, _store),
)


def _ops(depth):
    if depth == 0:
        return st.lists(_leaf, max_size=6)
    nested = st.tuples(st.sampled_from(["spawn", "task", "join"]),
                       _ops(depth - 1))
    return st.lists(st.one_of(_leaf, _leaf, _leaf, nested), max_size=8)


_actors = st.lists(_ops(2), min_size=1, max_size=5)

schedules = st.fixed_dictionaries({
    "a": _actors,
    "b": _actors,
    "mode": st.sampled_from(["sequential", "lockstep", "staggered"]),
})

W, R = ("access", 0, True, False), ("access", 0, False, False)

#: An edge the sender received after its send reaches no receiver of
#: that send: the waiter's write races with the writer's.
LATE_EDGE = [[("wait", 0), ("sleep", 0), W], [("signal", 0), ("wait", 1)],
             [W, ("signal", 1)]]

#: One schedule per edge kind, so each is checked on every run.
EDGE_EXAMPLES = [
    # same-instant trigger/wake chain, through a relay in the root context
    [[("wait", 1), W], [("relay", 0, 1, 0, 0), W, ("signal", 0)]],
    # Store item buffered and consumed at one instant, and at a later one
    [[W, ("put", 0), ("sleep", 1), W, ("put", 0)],
     [("get", 0), W, ("sleep", 1), ("get", 0), W]],
    # drain joins every buffered producer
    [[W, ("put", 0)], [W, ("put", 0)], [("drain", 0), W]],
    # AllOf/AnyOf children triggered at one instant and at mixed instants
    [[("allof", [("event", 0), ("event", 1)]), W],
     [W, ("signal", 0)], [W, ("signal", 1)]],
    [[("allof", [("timeout", 1), ("event", 0)]), W],
     [W, ("signal", 0), ("sleep", 1), W]],
    [[("anyof", [("timeout", 1), ("event", 0)]), W],
     [("sleep", 1), W, ("signal", 0)]],
    LATE_EDGE,
    # Timeouts crossing instants; spawn, task and join edges
    [[W, ("task", [W, ("sleep", 1), W]), ("join", [R, ("sleep", 1)]), W],
     [("sleep", 1), W]],
]


def _example(actors, mode="sequential"):
    return {"a": actors, "b": actors, "mode": mode}


class _World:
    """One engine's share of a schedule: vars, signals, stores, a loop."""

    def __init__(self, tag):
        self.tag = tag
        self.engine = Engine()
        self.vars = [shared(f"{tag}.v{i}") for i in range(N_VARS)]
        self.events = [self.engine.event() for _ in range(N_EVENTS)]
        self.stores = [Store(self.engine, f"{tag}.s{i}")
                       for i in range(N_STORES)]
        self.loop = TaskLoop(self.engine, name=f"{tag}.loop")
        self.loop.start()

    def signal(self, index):
        ev = self.events[index]
        self.events[index] = self.engine.event()
        ev.succeed(index)

    def relay(self, name, on, then, var, store):
        def fire(_ev):
            # Runs in the engine's drain loop: the shared root context.
            self.vars[var].write(self.engine, op=f"{name}:relay")
            self.stores[store].get()
            self.signal(then)

        self.events[on].add_callback(fire)

    def actor(self, name, ops):
        eng = self.engine
        for i, op in enumerate(ops):
            kind = op[0]
            label = f"{name}.{i}"
            if kind == "access":
                _, var, write, relaxed = op
                if write:
                    self.vars[var].write(eng, op=label, relaxed=relaxed)
                else:
                    self.vars[var].read(eng, op=label, relaxed=relaxed)
            elif kind == "sleep":
                yield float(op[1])
            elif kind == "signal":
                self.signal(op[1])
            elif kind == "wait":
                yield self.events[op[1]]
            elif kind == "put":
                self.stores[op[1]].put(label)
            elif kind == "get":
                yield self.stores[op[1]].get()
            elif kind == "drain":
                self.stores[op[1]].drain()
            elif kind in ("allof", "anyof"):
                children = [eng.timeout(arg) if what == "timeout"
                            else self.events[arg] for what, arg in op[1]]
                yield (AllOf if kind == "allof" else AnyOf)(eng, children)
            elif kind == "relay":
                self.relay(label, *op[1:])
            elif kind == "task":
                self.loop.spawn(self.actor(label, op[1]), label=label)
            else:
                child = eng.process(self.actor(label, op[1]), name=label,
                                    daemon=True)
                if kind == "join":
                    yield child

    def start(self, actors):
        for i, ops in enumerate(actors):
            name = f"{self.tag}{i}"
            self.engine.process(self.actor(name, ops), name=name, daemon=True)


def _run(det, schedule):
    with _active(det):
        worlds = [_World("A"), _World("B")]
        worlds[0].start(schedule["a"])
        worlds[1].start(schedule["b"])
        a, b = (w.engine for w in worlds)
        mode = schedule["mode"]
        if mode == "sequential":
            a.run()
            b.run()
        else:
            lag = 2 if mode == "staggered" else 0
            for t in range(12):
                a.run(until=t)
                b.run(until=max(0, t - lag))
            a.run()
            b.run()
    races = [(r.var_name.split("#")[0], r.time,
              r.first.site, r.first.op, r.first.path,
              r.second.site, r.second.op, r.second.path)
             for r in det.races]
    return races, det.summary()


def _with_edge_examples(test):
    for i, actors in enumerate(EDGE_EXAMPLES):
        test = example(_example(actors, ("sequential", "lockstep")[i % 2]))(
            test)
    return test


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedules)
@_with_edge_examples
def test_instant_scoped_clocks_match_full_clock_oracle(schedule):
    assert _run(RaceDetector(), schedule) == _run(FullClockDetector(),
                                                  schedule)


def test_schedules_order_accesses_through_edges():
    """The schedules exercise real orderings: a same-instant signal
    orders a write before a waiter's write, under both detectors."""
    schedule = _example([[("wait", 0), W], [W, ("signal", 0)]])
    for det in (RaceDetector(), FullClockDetector()):
        races, summary = _run(det, schedule)
        assert races == [] and summary["accesses"] == 4
    # The same two writes with no signal do race, on each engine.
    schedule = _example([[W], [W]])
    assert len(_run(RaceDetector(), schedule)[0]) == 2
    # So do two writes joined only through a later edge of a sender.
    schedule = _example(LATE_EDGE)
    for det in (RaceDetector(), FullClockDetector()):
        assert len(_run(det, schedule)[0]) == 2


# -- log size -----------------------------------------------------------------

def test_clocks_stay_small_when_every_wakeup_is_at_a_new_instant():
    """A driver joins 2,000 children, each finishing at its own
    instant.  Unscoped, the driver's log would hold an edge per child;
    scoped, every context's log stays a few edges long."""
    sizes = []
    with sanitized() as det:
        eng = Engine()

        def worker():
            yield eng.timeout(1.0)

        def driver():
            for _ in range(2000):
                child = eng.process(worker())
                yield child
                sizes.append(len(det._current.edges))
                sizes.append(len(child._san_ctx.edges))

        eng.process(driver())
        eng.run()
    assert len(sizes) == 4000
    assert max(sizes) <= 4


def test_clock_sent_at_an_earlier_instant_is_not_joined():
    """A Timeout carries its creator's stamp from the creation instant;
    a waiter resuming when it fires logs no edge to it and does not
    reach the creator."""
    with sanitized() as det:
        eng = Engine()
        shared_timeout = {}
        seen = {}

        def creator():
            shared_timeout["t"] = eng.timeout(1.0)
            yield eng.timeout(5.0)

        def sleeper():
            yield shared_timeout["t"]
            ctx = det._current
            seen["sources"] = [stamp[1] for _, stamp in ctx.edges]
            seen["reach"] = det._reach(ctx, eng.now)

        maker = eng.process(creator())
        eng.process(sleeper())
        eng.run()
    assert maker._san_ctx not in seen["sources"]
    assert maker._san_ctx not in seen["reach"]
