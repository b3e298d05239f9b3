"""A socket pair holds no reference cycle.

Each end of a connection holds its peer weakly, so a finished
connection (its two sockets, their channels and inboxes) is freed by
reference counting the moment its last user drops it, not left to the
cyclic collector.  Tearing a connection down still resets both ends
while both are alive, and only the surviving end once its peer is gone.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.errors import ConnectionReset
from repro.io import Network, Socket
from repro.webserver import WebServerHost


def test_finished_requests_leave_no_socket_pair_to_the_collector():
    host = WebServerHost()
    paths = sorted(host.config.files)
    requests = [("GET", path) for path in paths] + [("POST", "/uploads", 4096)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # what the collector frees is kept
    try:
        results = host.run_request_sequence(requests * 2)
        gc.collect()
        left = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert len(results) == 2 * len(requests)
    assert {name: left[name] for name in ("Socket", "Channel", "Store")
            if left[name]} == {}


def test_teardown_of_a_live_pair_resets_both_ends(engine):
    a, b = Socket.pair(Network(engine))
    seen = []

    def receiver():
        try:
            yield from b.receive(1)
        except ConnectionReset as error:
            seen.append((engine.now, str(error)))

    def resetter():
        yield 1.0
        a.reset()

    engine.process(receiver())
    engine.process(resetter())
    engine.run()
    assert a._reset and b._reset
    assert seen == [(1.0, f"connection reset by peer (socket {b.socket_id})")]


def test_teardown_after_the_peer_is_gone_resets_only_itself(engine):
    a, b = Socket.pair(Network(engine))
    gone = weakref.ref(b)
    del b  # reference counting frees it: nothing cycles back to it
    assert gone() is None
    a.reset()
    assert a._reset
    with pytest.raises(ConnectionReset):
        next(a.send(1))
