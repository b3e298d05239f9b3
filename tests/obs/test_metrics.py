"""MetricsRegistry: registration, labels, and snapshot shapes for
every collector type."""

from dataclasses import dataclass

import pytest

from repro.errors import SimulationError
from repro.obs import MetricsRegistry
from repro.sim import Counter, Engine, Histogram, Tally, TimeWeighted


def test_snapshot_counter():
    reg = MetricsRegistry()
    counter = Counter("ops")
    counter.add(3)
    reg.register("ops", counter)
    assert reg.snapshot()["ops"] == {"type": "counter", "value": 3}


def test_snapshot_tally():
    reg = MetricsRegistry()
    tally = Tally("lat")
    tally.extend([1.0, 3.0])
    reg.register("lat", tally)
    entry = reg.snapshot()["lat"]
    assert entry["type"] == "tally"
    assert entry["count"] == 2
    assert entry["mean"] == 2.0
    assert (entry["min"], entry["max"]) == (1.0, 3.0)


def test_snapshot_empty_tally_does_not_raise():
    reg = MetricsRegistry()
    reg.register("empty", Tally("empty"))
    entry = reg.snapshot()["empty"]
    assert entry == {"type": "tally", "count": 0, "total": 0.0,
                     "mean": None, "min": None, "max": None}


def test_snapshot_time_weighted():
    eng = Engine()
    tw = TimeWeighted(eng, initial=2.0)
    reg = MetricsRegistry()
    reg.register("util", tw)
    entry = reg.snapshot()["util"]
    assert entry["type"] == "time_weighted"
    assert entry["current"] == 2.0


def test_snapshot_histogram():
    reg = MetricsRegistry()
    hist = Histogram(0.0, 10.0, bins=2, name="h")
    hist.record(1.0)
    hist.record(11.0)
    reg.register("h", hist)
    entry = reg.snapshot()["h"]
    assert entry["type"] == "histogram"
    assert entry["counts"] == [1, 0]
    assert entry["overflow"] == 1


def test_snapshot_gauge_and_labels():
    reg = MetricsRegistry()
    name = reg.gauge("depth", lambda: 7, device="d0")
    entry = reg.snapshot()[name]
    assert entry == {"type": "gauge", "value": 7, "labels": {"device": "d0"}}
    assert reg.labels_of(name) == {"device": "d0"}


def test_snapshot_dataclass_object():
    @dataclass
    class Stats:
        hits: int = 4
        misses: int = 1

    reg = MetricsRegistry()
    reg.register("cache", Stats())
    entry = reg.snapshot()["cache"]
    assert entry == {"type": "object", "fields": {"hits": 4, "misses": 1}}


def test_register_deduplicates_names():
    reg = MetricsRegistry()
    assert reg.register("x", Counter()) == "x"
    assert reg.register("x", Counter()) == "x#2"
    assert reg.register("x", Counter()) == "x#3"
    assert len(reg) == 3
    assert "x#2" in reg


def test_register_rejects_empty_name():
    reg = MetricsRegistry()
    with pytest.raises(SimulationError):
        reg.register("", Counter())


def test_gauge_rejects_non_callable():
    reg = MetricsRegistry()
    with pytest.raises(SimulationError):
        reg.gauge("bad", 42)


def test_get_unknown_name_raises():
    reg = MetricsRegistry()
    with pytest.raises(SimulationError):
        reg.get("missing")


def test_get_settles_lazy_collectors_first():
    """``get`` runs the settlers before it reads, as ``snapshot`` does:
    a disk serving its one request reads busy through the registry."""
    from repro.storage import Disk

    eng = Engine()
    disk = Disk(eng, name="d0")
    disk.submit_range(0, 8)
    eng.run(until=0.004)  # mid-service
    assert eng.metrics.get("d0.busy").mean() == 1.0
    assert disk.busy.mean() == 1.0


def test_engine_owns_a_registry():
    eng = Engine()
    assert isinstance(eng.metrics, MetricsRegistry)
    assert len(eng.metrics) == 0


def test_stack_components_self_register():
    from repro.io import CacheParams, FileSystem
    from repro.storage import Disk

    eng = Engine()
    disk = Disk(eng, name="d0")
    FileSystem(eng, disk, cache_params=CacheParams(capacity_pages=64))
    names = eng.metrics.names()
    assert any(n.startswith("d0.") for n in names)
    assert any(n.startswith("fs.") for n in names)
    assert any(n.startswith("cache.") for n in names)
    snap = eng.metrics.snapshot()
    assert snap  # every entry summarizes without raising
