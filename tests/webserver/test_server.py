"""End-to-end tests for the multithreaded web server."""

import pytest

from repro.webserver import (
    HostConfig,
    WebServerHost,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.webserver.host import PAPER_IMAGE_FILES


@pytest.fixture
def host():
    return WebServerHost()


def test_paper_file_population():
    assert sorted(PAPER_IMAGE_FILES.values()) == [7501, 14063, 50607]


def test_get_returns_whole_file(host):
    [r] = host.run_request_sequence([("GET", "/images/photo2.jpg")])
    assert r.status == 200
    assert r.body_bytes == 7501


def test_get_missing_file_404(host):
    [r] = host.run_request_sequence([("GET", "/nope.gif")])
    assert r.status == 404
    assert host.metrics.errors == 1


def test_post_creates_new_file_each_time(host):
    files_before = set(host.fs.list_files())
    host.run_request_sequence([("POST", "/u", 1000), ("POST", "/u", 2000)])
    new = set(host.fs.list_files()) - files_before
    assert len(new) == 2  # random-number names, no collisions
    sizes = sorted(host.fs.size_of(p) for p in new)
    assert sizes == [1000, 2000]
    for p in new:
        assert p.startswith("/www/uploads/")


def test_server_records_read_and_write_times(host):
    host.run_request_sequence(
        [("GET", "/images/photo3.jpg"), ("POST", "/u", 5000)]
    )
    get_rec, post_rec = host.metrics.requests
    assert get_rec.method == "GET"
    assert get_rec.read_time is not None and get_rec.read_time > 0
    assert get_rec.write_time is None
    assert post_rec.method == "POST"
    assert post_rec.write_time is not None and post_rec.write_time > 0
    assert post_rec.read_time is None


def test_each_request_spawns_a_thread(host):
    host.run_request_sequence([("GET", "/images/photo1.jpg")] * 5)
    assert host.server.threads_spawned.value == 5
    assert host.runtime.threads_started.value == 5


def test_first_read_slower_than_subsequent(host):
    """Table 6 / Figure 6: 'the time spent in reading a file for the
    first time is greater than that taken for subsequent reads'."""
    host.run_request_sequence([("GET", "/images/photo3.jpg")] * 6)
    times = [r.read_time for r in host.metrics.gets()]
    assert len(times) == 6
    assert times[0] > 10 * max(times[1:])
    assert all(t > 0 for t in times)


def test_jit_contributes_to_first_request(host):
    """Reason 2 in §4.2: the JIT compiles the handler chain on the
    first request only."""
    host.run_request_sequence([("GET", "/images/photo2.jpg")])
    compiled_after_first = host.runtime.jit.methods_compiled.value
    assert compiled_after_first >= 2  # StartListen + DoGet at minimum
    host.run_request_sequence([("GET", "/images/photo2.jpg")])
    assert host.runtime.jit.methods_compiled.value == compiled_after_first


def test_write_slower_than_warm_read_same_size(host):
    """Table 5 shape: POST (durable write) beats nothing — it is slower
    than a warm read of the same number of bytes."""
    host.run_request_sequence(
        [
            ("GET", "/images/photo2.jpg"),  # warm the file
            ("GET", "/images/photo2.jpg"),
            ("POST", "/u", 7501),
        ]
    )
    warm_read = host.metrics.gets()[1].read_time
    write = host.metrics.posts()[0].write_time
    assert write > warm_read


def test_first_overall_operation_is_slowest(host):
    """'the first file I/O operation by the server takes more time
    than the subsequent read or write operations' (given equal-size
    operations)."""
    host.run_request_sequence([("GET", "/images/photo3.jpg")] * 3)
    reads = [r.read_time for r in host.metrics.gets()]
    assert reads[0] == max(reads)


def test_bad_request_gets_error_response(host):
    from repro.webserver.httpmsg import HttpRequest

    client = host.client()

    def driver():
        # Hand-craft a malformed wire message.
        engine = host.engine
        sock = yield from host.network.connect("localhost", 5050)
        bad = "NONSENSE\r\n\r\n"
        yield from sock.send(len(bad), payload=bad)
        got = yield from sock.receive(8192)
        payloads = sock.take_payloads()
        return payloads[0] if payloads else None

    text = host.engine.run_process(driver())
    assert text is not None and ("400" in text or "405" in text)
    assert host.metrics.errors == 1
    # The malformed request travelled through the VM's managed
    # exception machinery (thrown by ReceiveRequest, caught by
    # StartListen's protected region).
    assert host.runtime.interpreter.exceptions_caught.value == 1


def test_concurrent_clients_all_served():
    host = WebServerHost()
    result = WorkloadGenerator(
        host,
        WorkloadConfig(num_clients=6, requests_per_client=5, seed=3),
    ).run()
    assert result.count == 30
    assert result.error_count == 0
    assert result.threads_spawned == 30
    assert result.throughput > 0
    assert result.mean_latency_ms > 0


def test_workload_reproducible_with_seed():
    def run(seed):
        host = WebServerHost()
        return WorkloadGenerator(
            host, WorkloadConfig(num_clients=3, requests_per_client=4, seed=seed)
        ).run()

    a, b = run(5), run(5)
    assert [r.path for r in a.results] == [r.path for r in b.results]
    assert a.duration == pytest.approx(b.duration)
    c = run(6)
    assert [r.path for r in a.results] != [r.path for r in c.results] or (
        a.duration != pytest.approx(c.duration)
    )


def test_workload_config_validation():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        WorkloadConfig(num_clients=0)
    with pytest.raises(ReproError):
        WorkloadConfig(get_fraction=1.5)


def test_server_stop_refuses_new_connections(host):
    host.run_request_sequence([("GET", "/images/photo2.jpg")])
    host.server.stop()
    from repro.errors import SimulationError

    def driver():
        yield from host.network.connect("localhost", 5050)

    proc = host.engine.process(driver())
    host.engine.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_double_start_rejected(host):
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        host.engine.run_process(host.server.start())


def test_server_latencies_registered_in_metrics_registry(host):
    host.run_request_sequence(
        [("GET", "/images/photo3.jpg"), ("POST", "/u", 5000)]
    )
    snap = host.engine.metrics.snapshot()
    for name in ("webserver.read_ms", "webserver.write_ms",
                 "webserver.response_ms"):
        entry = snap[name]
        assert entry["type"] == "tally"
        assert entry["count"] >= 1
        assert entry["labels"]["unit"] == "ms"
    # The ms views report the same latencies as the raw tallies, x1e3.
    assert snap["webserver.read_ms"]["mean"] == pytest.approx(
        snap["server.read"]["mean"] * 1e3
    )
    registry = host.engine.metrics
    view = registry.get("webserver.response_ms")
    assert view.percentile(50) == pytest.approx(
        host.metrics.response_times.percentile(50) * 1e3
    )
    assert snap["webserver.errors"] == {
        "type": "gauge", "value": 0,
        "labels": {"server": host.config.server.host,
                   "architecture": host.server.ARCHITECTURE},
    }
