"""The threaded server's live-worker counter.

``live_workers`` is read on every accept, so it is a counter kept at
spawn and exit rather than a scan over every thread ever spawned.  A
differential oracle keeps the old thread list and checks the counter
against the scan wherever the server reads it, and whenever a process
finishes; a host-independent guard checks the accept path never scans
threads at all.
"""

import pytest

from repro.cli import ManagedThread
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.sim.process import Process
from repro.webserver import (
    HostConfig,
    ThreadPerConnectionServer,
    WebServerConfig,
    WebServerHost,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.webserver.host import SERVER_ARCHITECTURES


class ScanOracleServer(ThreadPerConnectionServer):
    """Keeps every spawned worker thread, as the server used to, and
    asserts at each accept and shed decision (and, through the
    ``oracle`` fixture, at each process exit) that the counter equals
    the scan over them."""

    #: Every oracle server built in the current test.
    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.threads = []
        self.checks = 0
        create = self.runtime.create_thread

        def recording_create(*a, **kw):
            thread = create(*a, **kw)
            self.threads.append(thread)
            return thread

        self.runtime.create_thread = recording_create
        type(self).instances.append(self)

    def scan(self):
        return sum(t.is_alive for t in self.threads)

    def _check(self):
        alive = self.scan()
        assert self.live_workers == alive
        assert self.live_processes == 1 + alive
        self.checks += 1

    def _note_dispatch(self):
        self._check()
        super()._note_dispatch()

    def _should_shed(self):
        self._check()
        return super()._should_shed()


def _checked(trigger):
    def finishing(process, value):
        result = trigger(process, value)
        for server in ScanOracleServer.instances:
            server._check()
        return result

    return finishing


@pytest.fixture
def oracle(monkeypatch):
    monkeypatch.setitem(SERVER_ARCHITECTURES, "thread", ScanOracleServer)
    monkeypatch.setattr(ScanOracleServer, "instances", [])
    # A worker's process finishing is the instant the scan drops; the
    # counter must drop in that same step, not when the process event
    # is popped later (a same-instant accept would see a stale count).
    for name in ("succeed", "fail"):
        monkeypatch.setattr(Process, name, _checked(getattr(Process, name)))


def _run(server=None, fault_plan=None, **workload):
    host = WebServerHost(HostConfig(server=server or WebServerConfig(),
                                    fault_plan=fault_plan))
    result = WorkloadGenerator(host, WorkloadConfig(**workload)).run()
    return host.server, result


def _settled(server):
    assert server.checks > 0
    assert server.live_workers == 0 == server.scan()
    assert server.live_processes == 1


def test_counter_matches_scan_closed_64_clients(oracle):
    server, result = _run(num_clients=64, requests_per_client=4, seed=3)
    assert result.count == 256
    assert server.peak_live_workers > 1
    assert server.peak_live_processes == 1 + server.peak_live_workers
    _settled(server)


def test_counter_matches_scan_when_shedding(oracle):
    server, _ = _run(WebServerConfig(max_concurrency=2),
                     num_clients=16, requests_per_client=4, seed=1)
    assert server.shed.value > 0
    assert server.peak_live_workers == 2
    _settled(server)


def test_counter_matches_scan_with_deadline_downgrades(oracle):
    server, _ = _run(WebServerConfig(request_deadline=2e-3),
                     num_clients=16, requests_per_client=4, seed=2)
    assert server.deadline_exceeded.value > 0
    _settled(server)


def test_counter_matches_scan_under_connection_resets(oracle):
    plan = FaultPlan(seed=77, specs=(
        FaultSpec(kind="net.drop", target="server", probability=0.2),
    ))
    server, result = _run(fault_plan=plan, num_clients=8,
                          requests_per_client=8, seed=77,
                          retry=RetryPolicy(max_attempts=6))
    assert result.retries > 0
    assert server.metrics.failures > 0
    _settled(server)


def test_worker_that_raises_leaves_the_count(oracle):
    host = WebServerHost(HostConfig())
    server = host.server

    def broken_receive(conn_id):
        yield host.engine.timeout(0.0)
        raise RuntimeError("handler bug")

    host.runtime.intrinsics["Http.ReceiveRequest"] = broken_receive

    def get():
        yield from host.client().get("/images/photo1.jpg")

    def clients():
        # The clients never get an answer, so they run as daemons.
        for _ in range(3):
            host.engine.process(get(), daemon=True)
        yield host.engine.timeout(1.0)

    host.engine.run_process(clients())
    assert len(server.threads) == 3
    assert all(not t._process.ok for t in server.threads)
    assert server.peak_live_workers >= 1
    _settled(server)


def test_accept_path_never_scans_threads(monkeypatch):
    """Host-independent guard: a scan over spawned threads on the
    accept path would evaluate ``ManagedThread.is_alive`` once per
    thread per accept; the counter evaluates it never."""
    calls = []
    is_alive = ManagedThread.is_alive

    def counting(thread):
        calls.append(thread)
        return is_alive.fget(thread)

    monkeypatch.setattr(ManagedThread, "is_alive", property(counting))
    server, result = _run(num_clients=64, requests_per_client=16, seed=0)
    assert server.threads_spawned.value == result.count == 1024
    assert calls == []
