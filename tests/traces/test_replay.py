"""Tests for the trace replayer (through the CLI VM)."""

import pytest

from repro.errors import TraceError
from repro.obs import Tracer, render_summary
from repro.traces import (
    IOOp,
    ReplayConfig,
    TraceHeader,
    TraceRecord,
    TraceReplayer,
    generate_cholesky,
    generate_dmine,
    generate_lu,
    generate_pgrep,
)
from repro.traces.generator._base import TraceBuilder
from repro.units import MiB


def small_config(**kw):
    kw.setdefault("file_size", 64 * MiB)
    return ReplayConfig(**kw)


@pytest.fixture(scope="module")
def dmine_warm_result():
    h, recs = generate_dmine(dataset_size=8 * MiB, passes=2)
    return TraceReplayer(small_config(warmup=True)).replay(h, recs, "dmine")


def test_replay_runs_through_the_vm(dmine_warm_result):
    res = dmine_warm_result
    assert res.jit_methods >= 1       # the Replay method was JIT-compiled
    assert res.instructions > 100     # the CIL dispatch loop really ran
    assert res.total_time > 0


def test_replay_counts_match_trace(dmine_warm_result):
    h, recs = generate_dmine(dataset_size=8 * MiB, passes=2)
    res = dmine_warm_result
    for op in IOOp:
        expected = sum(1 for r in recs if r.op is op)
        assert res.timings.count(op) == expected, op


def test_warm_replay_op_ordering(dmine_warm_result):
    """The paper's Table 1 ordering: seek < open < read < close."""
    t = dmine_warm_result.timings
    assert t.mean_ms(IOOp.SEEK) < t.mean_ms(IOOp.OPEN)
    assert t.mean_ms(IOOp.OPEN) < t.mean_ms(IOOp.READ)
    assert t.mean_ms(IOOp.READ) < t.mean_ms(IOOp.CLOSE)


def test_close_slower_than_open_in_every_app():
    """'for all trace files the time spent closing a file was longer
    than the time taken to open the file'."""
    cases = [
        ("dmine", generate_dmine(dataset_size=4 * MiB)),
        ("pgrep", generate_pgrep(file_size=4 * MiB)),
        ("lu", generate_lu(extra_panels=0)),
        ("cholesky", generate_cholesky()),
    ]
    for name, (h, recs) in cases:
        res = TraceReplayer(small_config(file_size=96 * MiB)).replay(h, recs, name)
        assert res.timings.mean_ms(IOOp.CLOSE) > res.timings.mean_ms(IOOp.OPEN), name


def test_warm_reads_are_cache_fast(dmine_warm_result):
    """After a warm-up pass over a cache-fitting dataset, reads are
    microsecond-scale (the paper's 0.0025 ms regime)."""
    assert dmine_warm_result.timings.mean_ms(IOOp.READ) < 0.01


def test_cold_reads_are_orders_of_magnitude_slower():
    h, recs = generate_dmine(dataset_size=8 * MiB, passes=1)
    cold = TraceReplayer(small_config(warmup=False)).replay(h, recs, "dmine")
    warm = TraceReplayer(small_config(warmup=True)).replay(h, recs, "dmine")
    assert cold.timings.mean_ms(IOOp.READ) > 20 * warm.timings.mean_ms(IOOp.READ)


def test_cholesky_bimodal_reads():
    """Table 4's signature: some reads hit buffers, some fault."""
    h, recs = generate_cholesky()
    res = TraceReplayer(small_config(warmup=False)).replay(h, recs, "cholesky")
    reads = [ms for _size, ms in res.rows_for(IOOp.READ)]
    fast = [ms for ms in reads if ms < 0.05]
    slow = [ms for ms in reads if ms >= 0.05]
    assert fast and slow, "expected a bimodal mixture"
    assert min(slow) > 50 * max(fast)


def test_lu_write_buffered_and_close_expensive():
    """LU writes land in the cache (cheap); close pays for the dirty
    file (Table 3's close 0.4566 ms vs open 0.0006 ms)."""
    h, recs = generate_lu()
    res = TraceReplayer(small_config(file_size=96 * MiB)).replay(h, recs, "lu")
    t = res.timings
    assert t.mean_ms(IOOp.WRITE) < 0.05
    assert t.mean_ms(IOOp.CLOSE) > 10 * t.mean_ms(IOOp.OPEN)


def test_seek_times_are_tiny_and_flat():
    """Table 3: seeks are in the 1e-4 ms range regardless of offset."""
    h, recs = generate_lu()
    res = TraceReplayer(small_config(file_size=96 * MiB)).replay(h, recs, "lu")
    rows = res.rows_for(IOOp.SEEK)
    assert all(ms < 0.001 for _off, ms in rows)


def test_multi_process_trace_replays():
    h, recs = generate_pgrep(file_size=2 * MiB, num_processes=3, read_size=65536)
    res = TraceReplayer(small_config()).replay(h, recs, "pgrep")
    assert res.timings.count(IOOp.OPEN) == 3
    assert res.timings.count(IOOp.CLOSE) == 3
    assert res.timings.count(IOOp.READ) == sum(1 for r in recs if r.op is IOOp.READ)


def test_io_without_open_rejected():
    b = TraceBuilder()
    b.read(offset=0, length=100)  # never opened
    h, recs = b.build()
    with pytest.raises(TraceError, match="without an open file"):
        TraceReplayer(small_config()).replay(h, recs)


def test_per_record_timings_align_with_records():
    h, recs = generate_cholesky()
    res = TraceReplayer(small_config()).replay(h, recs, "cholesky")
    assert len(res.per_record) == len(recs)
    for rt in res.per_record:
        assert rt.record == recs[rt.index]
        assert rt.seconds >= 0
        assert rt.ms == pytest.approx(rt.seconds * 1e3)


def test_rows_for_uses_length_for_reads_and_offset_for_seeks():
    h, recs = generate_lu(extra_panels=0)
    res = TraceReplayer(small_config(file_size=96 * MiB)).replay(h, recs, "lu")
    seek_rows = res.rows_for(IOOp.SEEK)
    assert seek_rows[0][0] == 66617088  # offset, not length
    read_rows = res.rows_for(IOOp.READ)
    assert all(size == 524288 for size, _ in read_rows)


def test_probe_categories_attach_instrumentation():
    h, recs = generate_cholesky()
    tracer = Tracer(categories={"storage", "io"})
    TraceReplayer(small_config(tracer=tracer)).replay(h, recs, "cholesky")
    assert len(tracer) > 0
    assert set(tracer.categories_seen()) == {"storage", "io"}
    # A span summary can be rendered straight from the tracer.
    assert "disk.read" in render_summary(tracer)


def test_prefetch_policy_config_applied():
    h, recs = generate_dmine(dataset_size=4 * MiB)
    none = TraceReplayer(small_config(prefetch_policy="none")).replay(h, recs)
    fixed = TraceReplayer(small_config(prefetch_policy="fixed", prefetch_window=16)).replay(h, recs)
    # Read-ahead must reduce cold misses on a sequential scan.
    assert fixed.cache_misses < none.cache_misses
