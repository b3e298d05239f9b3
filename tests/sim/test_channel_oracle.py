"""The link without a Resource, against the Resource-based oracle.

:class:`repro.sim.Channel` keeps a busy flag and a FIFO of waiter
events; an idle link's grant is a zero-delay sleep, which takes the
position ``(now, seq + 1)`` the oracle's grant event took.  Random send
schedules run on both (:class:`tests.sim.oracle.ResourceChannel`), and
every sender must finish at the same float instant, in the same order,
with the same races and detector counters.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.sanitizer import shared
from repro.sim import Channel, Engine, TaskLoop
from tests.conftest import detector_or_none
from tests.sim.oracle import ResourceChannel

# Dyadic delays and rates keep every instant an exact float, so
# same-instant starts, finishes and timers are common.
_delay = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
_channel = st.tuples(st.sampled_from([1.0, 2.0, 4.0]),
                     st.sampled_from([0.0, 0.0, 0.25, 0.5]))
_send = st.tuples(st.integers(0, 2), st.sampled_from([0, 0, 1, 2]), _delay)
_actor = st.tuples(st.sampled_from(["process", "process", "task", "ticker"]),
                   _delay, st.lists(_send, max_size=5))
_scenario = st.tuples(
    st.lists(_channel, min_size=1, max_size=3),
    st.lists(_actor, min_size=1, max_size=5),
    st.lists(_delay, max_size=3),                       # timers
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5]),
             max_size=3),                               # run(until=) cuts
)


def _run(eng, cuts, log):
    eng.run()


def _run_with_cuts(eng, cuts, log):
    for cut in sorted(set(cuts)):
        if cut >= eng.now:
            eng.run(until=cut)
            log.append((eng.now, "cut", cut))
    eng.run()


def _step(eng, cuts, log):
    while eng._queue:  # step() never sleeps in frame
        eng.step()


DRIVES = {"run": _run, "until": _run_with_cuts, "step": _step}


def _observe(channel_cls, scenario, drive, sanitize):
    """Run ``scenario`` on links of ``channel_cls``: ``(log, final
    clock, per-link counters, races, detector summary)``."""
    channels, actors, timers, cuts = scenario
    with detector_or_none(sanitize) as det:
        eng = Engine()
        links = [channel_cls(eng, bw, lat, name=f"c{i}")
                 for i, (bw, lat) in enumerate(channels)]
        loop = TaskLoop(eng)
        loop.start()
        var = shared("link.v")
        log = []

        def actor(name, kind, start, sends):
            yield start
            for i, (link, nbytes, gap) in enumerate(sends):
                if kind == "ticker":
                    var.read(eng, op=f"{name}.{i}")
                else:
                    yield from links[link % len(links)].send(nbytes)
                    var.write(eng, op=f"{name}.{i}")
                log.append((eng.now, name, i))
                yield gap

        for n, (kind, start, sends) in enumerate(actors):
            if kind == "task":
                loop.spawn(actor(str(n), kind, start, sends))
            else:
                eng.process(actor(str(n), kind, start, sends))
        for k, delay in enumerate(timers):
            eng.timeout(delay).callbacks.append(
                lambda _ev, k=k: log.append((eng.now, "timer", k)))
        DRIVES[drive](eng, cuts, log)
    races = None if det is None else [
        (r.var_name.split("#")[0], r.time, r.first.op, r.second.op)
        for r in det.races]
    return (log, eng.now, [(l.bytes_sent, l.transfers) for l in links],
            races, None if det is None else det.summary())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenario, st.sampled_from(sorted(DRIVES)), st.booleans())
# Three senders queue on one link at one instant: FIFO hand-off.
@example(([(1.0, 0.0)], [("process", 0.0, [(0, 1, 0.0)])] * 3, [], []),
         "run", False)
# A zero-byte send on an idle link and a peer busy at the same instant:
# the grant's hop and the empty transfer's each let the peer run once.
@example(([(1.0, 0.0)], [("process", 0.0, [(0, 0, 0.0)]),
                         ("ticker", 0.0, [(0, 0, 0.0)] * 2)], [], []),
         "run", False)
def test_channel_matches_the_resource_oracle(scenario, drive, sanitize):
    new = _observe(Channel, scenario, drive, sanitize)
    assert new == _observe(ResourceChannel, scenario, drive, sanitize)


def test_idle_grant_takes_no_queue_entry_when_nothing_else_is_due():
    """Under run(), a lone sender's grants are sleeps in its own frame;
    the oracle queues one grant event per send.  (Both take a seq for
    the start and one for the finish.)"""
    def entries(channel_cls):
        eng = Engine()
        link = channel_cls(eng, 4.0, 0.25)

        def sender():
            for nbytes in (0, 1, 2):
                yield from link.send(nbytes)

        eng.process(sender())
        eng.run()
        return eng._seq, eng.now

    assert entries(ResourceChannel) == (2 + 3, 0.25 * 3 + 0.75)
    assert entries(Channel) == (2, 0.25 * 3 + 0.75)


def test_channel_builds_no_resource():
    eng = Engine()
    link = Channel(eng, 1.0)
    assert not any(type(value).__name__ in ("Resource", "TimeWeighted")
                   for value in vars(link).values())
