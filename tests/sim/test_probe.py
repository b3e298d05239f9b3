"""Tests for the instrumentation probe points: each simulated component
records what it does through the engine's tracer."""

from repro.io import FileSystem
from repro.obs import Tracer
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry


def _small_disk(eng):
    return Disk(eng, geometry=DiskGeometry(cylinders=100, heads=2, sectors_per_track=10))


def _open_read_close(eng):
    disk = Disk(eng, geometry=DiskGeometry(cylinders=1000, heads=2, sectors_per_track=40))
    fs = FileSystem(eng, disk)

    def scenario():
        yield from fs.create("/f", size_bytes=100_000)
        h = yield from fs.open("/f")
        yield from fs.read(h, 8192)
        yield from fs.close(h)

    eng.run_process(scenario())


def test_probe_records_with_timestamps():
    tracer = Tracer()
    eng = Engine(tracer=tracer)
    disk = _small_disk(eng)
    disk.submit_range(0, 4)
    disk.submit_range(500, 4)  # queues behind the first
    eng.run()
    first, second = [s for s in tracer.spans("storage") if s.name == "disk.read"]
    assert first.start == 0.0 and first.attrs["wait_ms"] == 0.0
    assert 0.0 < first.end <= second.start
    # The second request waited exactly as long as the first was served.
    assert abs(second.attrs["wait_ms"] - first.end * 1e3) < 1e-6
    assert second.end == eng.now


def test_probe_category_filter():
    tracer = Tracer(categories={"io"})
    _open_read_close(Engine(tracer=tracer))
    assert tracer.categories_seen() == ["io"]
    assert tracer.wants("io") and not tracer.wants("storage")


def test_disk_emits_probe_events():
    tracer = Tracer()
    eng = Engine(tracer=tracer)
    disk = _small_disk(eng)
    disk.submit_range(0, 4)
    eng.run()
    storage = tracer.by_category("storage")
    reads = [e for e in storage if e.kind == "span" and e.name == "disk.read"]
    assert len(reads) == 1
    assert reads[0].attrs["device"] == "disk"
    assert (reads[0].attrs["lba"], reads[0].attrs["nblocks"]) == (0, 4)
    assert any(e.kind == "counter" and e.name == "disk.queue" for e in storage)


def test_fs_and_cache_emit_probe_events():
    tracer = Tracer()
    _open_read_close(Engine(tracer=tracer))
    fs_ops = {s.name for s in tracer.spans("io")}
    assert {"fs.open", "fs.read", "fs.close"} <= fs_ops
    # The open-prefetch.
    assert any(e.kind == "instant" and e.name == "cache.prefetch"
               for e in tracer.events)
    assert any(s.name == "disk.read" for s in tracer.spans("storage"))
    # Point events are time-ordered.
    points = [e.start for e in tracer.events if e.kind != "span"]
    assert points == sorted(points)
