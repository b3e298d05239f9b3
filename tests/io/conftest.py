"""Shared fixtures for the io-layer tests: a small engine + disk + fs."""

import pytest

from repro.io import CacheParams, FileSystem, FsParams, LruPolicy
from repro.io.prefetch import NoPrefetch
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def disk(engine):
    # ~40 MB disk: plenty for the io-layer tests and fast to simulate.
    return Disk(engine, geometry=DiskGeometry(cylinders=1000, heads=2, sectors_per_track=40))


@pytest.fixture
def fs(engine, disk):
    """File system with prefetching disabled (most tests want the
    demand path only; prefetch-specific tests build their own)."""
    return FileSystem(
        engine,
        disk,
        cache_params=CacheParams(capacity_pages=512),
        prefetch_policy=NoPrefetch(),
    )


def run(engine, gen):
    """Run one coroutine to completion, returning its value."""
    return engine.run_process(gen)


def keys(policy) -> list:
    """An eviction policy's page keys ``(file_id, page)``, next victim
    first: LRU and FIFO runs expanded, or a per-key order as it is."""
    if isinstance(policy, LruPolicy):
        found, run = [], policy._ring.next
        while run is not policy._ring:
            found += [(run.fid, page) for page in range(run.start, run.stop)]
            run = run.next
        return found
    return list(policy._order if hasattr(policy, "_order") else policy._ring)
