"""Edge-case coverage across subsystems (small behaviours that the
module-level suites don't reach)."""

import pytest

from repro.errors import FileSystemError, ReproError, SimulationError
from repro.io import FileMode, FileStream, Network, StreamReader, TcpListener
from repro.sim import Engine
from repro.webserver import WebServerConfig

from tests.io.conftest import run


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def fs(engine):
    from repro.io import CacheParams, FileSystem
    from repro.io.prefetch import NoPrefetch
    from repro.storage import Disk, DiskGeometry

    disk = Disk(
        engine, geometry=DiskGeometry(cylinders=1000, heads=2, sectors_per_track=40)
    )
    return FileSystem(
        engine,
        disk,
        cache_params=CacheParams(capacity_pages=512),
        prefetch_policy=NoPrefetch(),
    )


# ---------------------------------------------------------------------------
# Engine corner cases
# ---------------------------------------------------------------------------

def test_run_with_empty_queue_returns_now():
    eng = Engine()
    assert eng.run() == 0.0
    assert eng.run(until=5.0) == 5.0  # clock advances to the horizon


def test_run_until_zero_on_pending_events():
    eng = Engine()
    fired = []

    def proc():
        yield eng.timeout(1.0)
        fired.append(True)

    eng.process(proc())
    eng.run(until=0.0)
    assert not fired
    eng.run()
    assert fired


def test_daemon_only_engine_run_terminates():
    eng = Engine()

    def server():
        while True:
            yield eng.event()  # blocked forever

    eng.process(server(), daemon=True)
    assert eng.run() == 0.0  # no deadlock error for daemons


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def test_append_mode_creates_missing_file(engine, fs):
    def scenario():
        s = yield from FileStream.open(fs, "/new", FileMode.APPEND)
        assert s.position == 0
        yield from s.write(100)
        yield from s.close()

    run(engine, scenario())
    assert fs.size_of("/new") == 100


def test_stream_reader_buffer_validation(engine, fs):
    def scenario():
        yield from fs.create("/f", size_bytes=10)
        s = yield from FileStream.open(fs, "/f")
        with pytest.raises(FileSystemError):
            StreamReader(s, buffer_size=0)
        r = StreamReader(s)
        with pytest.raises(FileSystemError):
            yield from r.read(-1)
        yield from s.close()

    run(engine, scenario())


def test_zero_byte_read_and_write(engine, fs):
    def scenario():
        h = yield from fs.open("/f", writable=True, create=True)
        wrote = yield from fs.write(h, 0)
        got = yield from fs.read(h, 0)
        yield from fs.close(h)
        return wrote, got

    assert run(engine, scenario()) == (0, 0)
    assert fs.size_of("/f") == 0


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

def test_two_listeners_on_different_ports(engine):
    net = Network(engine)
    l1 = TcpListener(net, port=5050)
    l2 = TcpListener(net, port=5051)
    l1.start()
    l2.start()
    got = {}

    def server(listener, tag):
        sock = yield from listener.accept_socket()
        n = yield from sock.receive(1000)
        got[tag] = n

    def client(port, n):
        sock = yield from net.connect("localhost", port)
        yield from sock.send(n)

    engine.process(server(l1, "a"))
    engine.process(server(l2, "b"))
    engine.process(client(5050, 111))
    engine.process(client(5051, 222))
    engine.run()
    assert got == {"a": 111, "b": 222}


def test_listener_restart_after_stop(engine):
    net = Network(engine)
    listener = TcpListener(net, port=5050)
    listener.start()
    listener.stop()
    listener.start()  # address freed by stop, can rebind
    assert listener.listening
    listener.stop()
    listener.stop()  # idempotent


def test_send_zero_bytes_is_noop(engine):
    net = Network(engine)
    listener = TcpListener(net, port=5050)
    listener.start()

    def server():
        yield from listener.accept_socket()

    def client():
        sock = yield from net.connect("localhost", 5050)
        sent = yield from sock.send(0)
        return sent

    engine.process(server())
    p = engine.process(client())
    engine.run()
    assert p.value == 0


# ---------------------------------------------------------------------------
# Config validation strays
# ---------------------------------------------------------------------------

def test_webserver_config_validation():
    with pytest.raises(ReproError):
        WebServerConfig(port=0)
    with pytest.raises(ReproError):
        WebServerConfig(port=70000)


def test_channel_zero_latency(engine):
    from repro.sim import Channel

    ch = Channel(engine, bandwidth=1000.0, latency=0.0)

    def proc():
        yield from ch.send(500)
        return engine.now

    p = engine.process(proc())
    engine.run()
    assert p.value == pytest.approx(0.5)


def test_store_get_then_cancelled_engine_state(engine):
    """A store getter that never gets an item trips deadlock detection
    (it is a real process, not a daemon)."""
    from repro.errors import DeadlockError
    from repro.sim import Store

    store = Store(engine)

    def consumer():
        yield store.get()

    engine.process(consumer())
    with pytest.raises(DeadlockError):
        engine.run()
