"""The server-architecture layer: thread vs. event loop.

Protocol parity (status codes, shedding, deadlines, resets must be
indistinguishable across architectures), the memory proxy, and the
event loop's headline claim: 10k+ concurrent connections in one
simulated process.
"""

import pytest

from repro.errors import ConnectionReset, ReproError
from repro.sim import TaskLoop
from repro.webserver import (
    EventLoopServer,
    HostConfig,
    SERVER_ARCHITECTURES,
    ThreadPerConnectionServer,
    WebServerConfig,
    WebServerHost,
)

REQUESTS = [
    ("GET", "/images/photo1.jpg"),
    ("POST", "/upload", 20000),
    ("GET", "/images/photo2.jpg"),
    ("GET", "/missing.jpg"),
    ("GET", "/images/photo3.jpg"),
]


def test_registry_names_both_architectures():
    assert SERVER_ARCHITECTURES == {
        "thread": ThreadPerConnectionServer,
        "eventloop": EventLoopServer,
    }


def test_unknown_architecture_rejected():
    with pytest.raises(ReproError, match="unknown server architecture"):
        HostConfig(architecture="fibers")


def test_sequential_protocol_parity():
    outcomes = {}
    for arch in SERVER_ARCHITECTURES:
        host = WebServerHost(HostConfig(architecture=arch))
        results = host.run_request_sequence(REQUESTS)
        outcomes[arch] = [(r.status, r.body_bytes) for r in results]
        assert host.server.ARCHITECTURE == arch
        assert host.server.connections_accepted.value == len(REQUESTS)
    assert outcomes["thread"] == outcomes["eventloop"]
    assert [s for s, _ in outcomes["thread"]] == [200, 201, 200, 404, 200]


def test_memory_proxy_separates_architectures():
    def fanout(host, n):
        def one_get(c):
            yield from c.get("/images/photo2.jpg")

        def driver():
            procs = [host.engine.process(one_get(host.client()))
                     for _ in range(n)]
            for p in procs:
                yield p

        host.engine.run_process(driver())

    threaded = WebServerHost(HostConfig())
    fanout(threaded, 8)
    # Acceptor + one worker process per concurrent connection.
    assert threaded.server.peak_live_processes > 2

    evented = WebServerHost(HostConfig(architecture="eventloop"))
    fanout(evented, 8)
    assert evented.server.peak_live_processes == 1
    assert evented.server.live_processes == 1
    assert evented.server.peak_tasks >= 2  # acceptor + connections


def test_shedding_parity_under_concurrency_cap():
    statuses = {}
    for arch in SERVER_ARCHITECTURES:
        host = WebServerHost(HostConfig(
            architecture=arch,
            server=WebServerConfig(max_concurrency=1)))
        seen = []

        def one_get(c):
            r = yield from c.get("/images/photo1.jpg")
            seen.append(r.status)

        def fanout():
            procs = [host.engine.process(one_get(host.client()))
                     for _ in range(6)]
            for p in procs:
                yield p

        host.engine.run_process(fanout())
        assert host.server.shed.value > 0
        assert host.metrics.failure_reasons.get("shed") == host.server.shed.value
        statuses[arch] = sorted(seen)
    # Identical shed decisions and status codes on both designs.
    assert statuses["thread"] == statuses["eventloop"]
    assert 503 in statuses["eventloop"]


def test_deadline_downgrade_parity():
    for arch in SERVER_ARCHITECTURES:
        host = WebServerHost(HostConfig(
            architecture=arch,
            server=WebServerConfig(request_deadline=1e-6)))
        results = host.run_request_sequence([("GET", "/images/photo3.jpg")])
        assert results[0].status == 503
        assert host.server.deadline_exceeded.value == 1


def test_accept_backlog_refusal_parity():
    for arch in SERVER_ARCHITECTURES:
        host = WebServerHost(HostConfig(
            architecture=arch,
            server=WebServerConfig(max_concurrency=1, accept_backlog=1)))
        outcomes = []

        def one_get(c):
            try:
                r = yield from c.get("/images/photo1.jpg")
                outcomes.append(r.status)
            except ConnectionReset:
                outcomes.append("refused")

        def fanout():
            procs = [host.engine.process(one_get(host.client()))
                     for _ in range(8)]
            for p in procs:
                yield p

        host.engine.run_process(fanout())
        assert "refused" in outcomes, arch
        assert 200 in outcomes, arch
        assert host.server.listener.refused > 0


def test_architecture_label_on_metrics():
    host = WebServerHost(HostConfig(architecture="eventloop"))
    host.run_request_sequence([("GET", "/images/photo1.jpg")])
    snap = host.engine.metrics.snapshot()
    assert snap["server.connections"]["labels"]["architecture"] == "eventloop"
    assert snap["webserver.errors"]["labels"]["architecture"] == "eventloop"
    assert snap["server.peak_processes"]["value"] == 1
    # The threaded server's defining counter does not exist here.
    assert not hasattr(host.server, "threads_spawned")


def test_eventloop_server_tags_spans_with_architecture():
    from repro.obs import Tracer

    host = WebServerHost(HostConfig(architecture="eventloop",
                                    tracer=Tracer()))
    host.run_request_sequence([("GET", "/images/photo1.jpg")])
    gets = [s for s in host.engine.tracer.spans("webserver")
            if s.name == "http.get"]
    assert gets and all(s.attrs["arch"] == "eventloop" for s in gets)


def _eventloop_fan_in(n):
    """``n`` GETs issued at one instant against the event-loop server,
    all awaited by one driver; returns the host and the statuses."""
    host = WebServerHost(HostConfig(architecture="eventloop"))
    engine = host.engine
    statuses = []

    # The client side multiplexes on a TaskLoop too — 10k client
    # processes would drown the measurement in client-side noise.
    client_loop = TaskLoop(engine, name="client.loop")
    client_loop.start()

    def one_get():
        client = host.client()
        result = yield from client.get("/images/photo2.jpg")
        statuses.append(result.status)

    def driver():
        tasks = [client_loop.spawn(one_get(), label=f"get-{i}")
                 for i in range(n)]
        for t in tasks:
            yield client_loop.completion_event(t)

    engine.run_process(driver())
    return host, statuses


def test_eventloop_sustains_10k_connections_in_one_process():
    """The headline scaling claim: >=10k concurrent in-flight
    connections with no per-connection server process."""
    n = 10_000
    host, statuses = _eventloop_fan_in(n)
    server = host.server
    assert len(statuses) == n
    assert all(s == 200 for s in statuses)
    assert server.connections_accepted.value == n
    # The whole point: massive concurrency, one server process.
    assert server.peak_live_workers >= 1000
    assert server.peak_live_processes == 1
    assert server.peak_tasks >= server.peak_live_workers


def test_race_detector_memory_is_linear_in_same_instant_connections():
    """Under the race detector, traced peak memory of the fan-in grows
    about linearly with the number of same-instant connections: x4
    connections must cost less than x5 memory.  Vector clocks, which
    copied a hub's clock at every fork and send, grew it x7.4 from 500
    to 2,000 connections."""
    import tracemalloc

    from repro.sanitizer import sanitized

    peaks = []
    for n in (500, 2000):
        tracemalloc.start()
        try:
            with sanitized() as det:
                _, statuses = _eventloop_fan_in(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(statuses) == n and det.races == []
    assert peaks[1] / peaks[0] < 5
