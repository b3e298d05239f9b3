"""Tests for the simulated TCP layer."""

import pytest

from repro.errors import SimulationError
from repro.io import Network, NetworkStream, Socket, TcpListener
from repro.sim import Engine

from tests.io.conftest import run


@pytest.fixture
def net(engine):
    return Network(engine)


def test_network_validation(engine):
    with pytest.raises(SimulationError):
        Network(engine, bandwidth=0)
    with pytest.raises(SimulationError):
        Network(engine, latency=-1)


def test_connect_refused_without_listener(engine, net):
    def scenario():
        yield from net.connect("localhost", 5050)

    with pytest.raises(SimulationError):
        run(engine, scenario())


def test_listener_address_conflict(engine, net):
    l1 = TcpListener(net, port=5050)
    l1.start()
    l2 = TcpListener(net, port=5050)
    with pytest.raises(SimulationError):
        l2.start()


def test_connect_accept_handshake(engine, net):
    listener = TcpListener(net, port=5050)
    listener.start()
    got = {}

    def server():
        sock = yield from listener.accept_socket()
        got["server_sock"] = sock

    def client():
        t0 = engine.now
        sock = yield from net.connect("localhost", 5050)
        got["client_sock"] = sock
        got["connect_time"] = engine.now - t0

    engine.process(server())
    engine.process(client())
    engine.run()
    assert isinstance(got["server_sock"], Socket)
    assert isinstance(got["client_sock"], Socket)
    assert got["connect_time"] == pytest.approx(2 * net.latency + net.connect_overhead)


def test_send_receive_byte_counts(engine, net):
    listener = TcpListener(net, port=5050)
    listener.start()
    results = {}

    def server():
        sock = yield from listener.accept_socket()
        got = yield from sock.receive(10_000)
        results["received"] = got
        yield from sock.send(500)
        yield from sock.close()

    def client():
        sock = yield from net.connect("localhost", 5050)
        yield from sock.send(1234)
        reply = yield from sock.receive(10_000)
        results["reply"] = reply
        eof = yield from sock.receive(10)
        results["eof"] = eof
        yield from sock.close()

    engine.process(server())
    engine.process(client())
    engine.run()
    assert results["received"] == 1234
    assert results["reply"] == 500
    assert results["eof"] == 0


def test_receive_caps_at_max_bytes(engine, net):
    listener = TcpListener(net, port=5050)
    listener.start()
    chunks = []

    def server():
        sock = yield from listener.accept_socket()
        yield from sock.send(1000)
        yield from sock.close()

    def client():
        sock = yield from net.connect("localhost", 5050)
        chunks.append((yield from sock.receive(600)))
        chunks.append((yield from sock.receive(600)))

    engine.process(server())
    engine.process(client())
    engine.run()
    assert chunks == [600, 400]


def test_receive_of_arrived_chunks_takes_no_queue_entry(engine, net):
    """Chunks already in the inbox are taken with no event: the
    blocking receive's hop is a zero-delay sleep (in frame here, with
    nothing else due) and the drain takes the rest directly."""
    a, b = Socket.pair(net)
    got = {}

    def sender():
        for nbytes in (100, 200, 300):
            yield from a.send(nbytes, payload=nbytes)

    def receiver():
        yield 1.0  # every chunk has arrived
        seq = engine._seq
        got["bytes"] = yield from b.receive(10_000)
        got["entries"] = engine._seq - seq
        got["payloads"] = b.take_payloads()
        got["at"] = engine.now

    engine.process(sender())
    engine.process(receiver())
    engine.run()
    assert got == {"bytes": 600, "entries": 0, "payloads": [100, 200, 300],
                   "at": 1.0}


def test_transfer_time_scales_with_size(engine, net):
    listener = TcpListener(net, port=5050)
    listener.start()
    times = {}

    def server():
        for _ in range(2):
            sock = yield from listener.accept_socket()
            n = yield from sock.receive(10**9)
            while n:  # drain until EOF
                n = yield from sock.receive(10**9)

    def client(nbytes, tag):
        sock = yield from net.connect("localhost", 5050)
        t0 = engine.now
        yield from sock.send(nbytes)
        times[tag] = engine.now - t0
        yield from sock.close()

    engine.process(server(), daemon=True)

    def driver():
        yield from client(10_000, "small")
        yield from client(10_000_000, "big")

    engine.process(driver())
    engine.run()
    assert times["big"] > 100 * times["small"]


def test_send_on_closed_socket_rejected(engine, net):
    listener = TcpListener(net, port=5050)
    listener.start()

    def server():
        yield from listener.accept_socket()

    def client():
        sock = yield from net.connect("localhost", 5050)
        yield from sock.close()
        yield from sock.send(10)

    engine.process(server())
    p = engine.process(client())
    engine.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_listener_stop_then_connect_refused(engine, net):
    listener = TcpListener(net, port=5050)
    listener.start()
    listener.stop()

    def client():
        yield from net.connect("localhost", 5050)

    p = engine.process(client())
    engine.run()
    assert not p.ok


def test_network_stream_facade(engine, net):
    listener = TcpListener(net, port=5050)
    listener.start()
    results = {}

    def server():
        sock = yield from listener.accept_socket()
        stream = NetworkStream(sock)
        got = yield from stream.read(8192)
        results["got"] = got
        yield from stream.write(100)
        yield from stream.close()

    def client():
        sock = yield from net.connect("localhost", 5050)
        stream = NetworkStream(sock)
        yield from stream.write(256)
        results["reply"] = yield from stream.read(8192)

    engine.process(server())
    engine.process(client())
    engine.run()
    assert results == {"got": 256, "reply": 100}


def test_multiple_concurrent_connections(engine, net):
    listener = TcpListener(net, port=5050)
    listener.start()
    served = []

    def server():
        while True:
            sock = yield from listener.accept_socket()
            engine.process(handler(sock))

    def handler(sock):
        n = yield from sock.receive(10**6)
        served.append(n)
        yield from sock.close()

    def client(nbytes):
        sock = yield from net.connect("localhost", 5050)
        yield from sock.send(nbytes)
        yield from sock.close()

    engine.process(server(), daemon=True)
    for n in (100, 200, 300):
        engine.process(client(n))
    engine.run()
    assert sorted(served) == [100, 200, 300]


def test_accept_on_never_started_listener_raises(engine, net):
    listener = TcpListener(net, port=5050)

    def server():
        yield from listener.accept_socket()

    p = engine.process(server())
    engine.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_accept_loop_survives_stop_start_cycle(engine, net):
    """An accept loop that re-enters accept_socket() while the
    listener is stopped (a crashing node's race) must park, not die —
    it has to drain the backlog once the listener restarts."""
    listener = TcpListener(net, port=5050)
    listener.start()
    accepted = []

    def server():
        while True:
            sock = yield from listener.accept_socket()
            accepted.append(sock)

    def scenario():
        yield from net.connect("localhost", 5050)
        # The loop is now re-entered; stop/start underneath it.
        listener.stop()
        yield engine.timeout(0.01)
        listener.start()
        sock = yield from net.connect("localhost", 5050)
        yield engine.timeout(0.01)
        return sock

    engine.process(server(), daemon=True)
    run(engine, scenario())
    assert len(accepted) == 2
