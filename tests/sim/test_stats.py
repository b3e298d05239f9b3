"""Tests for the statistics collectors."""

import pytest

from repro.errors import SimulationError
from repro.sim import Counter, Engine, Histogram, Tally, TimeWeighted


def test_counter_basic():
    c = Counter("reqs")
    c.add()
    c.add(4)
    assert c.value == 5
    with pytest.raises(SimulationError):
        c.add(-1)


def test_tally_statistics():
    t = Tally()
    t.extend([1.0, 2.0, 3.0, 4.0])
    assert t.count == 4
    assert t.total == 10.0
    assert t.mean == 2.5
    assert t.minimum == 1.0
    assert t.maximum == 4.0
    assert t.percentile(50) == pytest.approx(2.5)
    assert t.std == pytest.approx(1.1180339887, rel=1e-9)


def test_tally_empty_raises():
    t = Tally()
    for attr in ("mean", "minimum", "maximum", "std"):
        with pytest.raises(SimulationError):
            getattr(t, attr)
    with pytest.raises(SimulationError):
        t.percentile(50)


def test_tally_values_is_copy():
    t = Tally()
    t.record(1.0)
    vals = t.values
    vals.append(99.0)
    assert t.count == 1


def test_time_weighted_mean():
    eng = Engine()
    tw = TimeWeighted(eng, initial=0.0)

    def proc():
        yield eng.timeout(2.0)
        tw.record(1.0)
        yield eng.timeout(2.0)
        tw.record(0.0)
        yield eng.timeout(4.0)

    eng.process(proc())
    eng.run()
    # value 0 for 2s, 1 for 2s, 0 for 4s → mean = 2/8
    assert tw.mean() == pytest.approx(0.25)
    assert tw.maximum == 1.0
    assert tw.current == 0.0


def test_time_weighted_zero_span():
    eng = Engine()
    tw = TimeWeighted(eng, initial=3.0)
    assert tw.mean() == 3.0  # no time elapsed → current value


def test_histogram_binning():
    h = Histogram(0.0, 10.0, bins=10)
    for v in [0.5, 1.5, 1.6, 9.99, -1.0, 10.0, 50.0]:
        h.record(v)
    assert h.count == 7
    assert h.underflow == 1
    assert h.overflow == 2
    assert h.counts[0] == 1
    assert h.counts[1] == 2
    assert h.counts[9] == 1
    assert h.mode_bin() == 1


def test_histogram_edges_and_validation():
    h = Histogram(0.0, 1.0, bins=4)
    edges = h.bin_edges()
    assert len(edges) == 5
    assert edges[0] == 0.0 and edges[-1] == 1.0
    with pytest.raises(SimulationError):
        Histogram(0.0, 1.0, bins=0)
    with pytest.raises(SimulationError):
        Histogram(1.0, 1.0, bins=2)
    with pytest.raises(SimulationError):
        Histogram(0.0, 1.0, bins=3).mode_bin()


def test_histogram_percentile_interpolates_within_bins():
    h = Histogram(0.0, 10.0, bins=10)
    for v in range(10):  # one sample per bin
        h.record(v + 0.5)
    # Mass interpolates linearly: p50 sits at the end of the 5th bin.
    assert h.percentile(50) == pytest.approx(5.0)
    assert h.percentile(90) == pytest.approx(9.0)
    assert 9.0 <= h.percentile(99) <= 10.0
    assert h.percentile(10) == pytest.approx(1.0)


def test_histogram_percentile_empty_raises():
    h = Histogram(0.0, 1.0, bins=4)
    with pytest.raises(SimulationError):
        h.percentile(50)


def test_histogram_percentile_out_of_range_q_raises():
    h = Histogram(0.0, 1.0, bins=4)
    h.record(0.5)
    for bad_q in (-1, -0.001, 100.001, 200):
        with pytest.raises(SimulationError):
            h.percentile(bad_q)


def test_histogram_percentile_q0_and_q100_extremes():
    h = Histogram(0.0, 10.0, bins=10)
    h.record(2.5)  # bin 2
    h.record(7.5)  # bin 7
    assert h.percentile(0) == pytest.approx(2.0)   # left edge of first mass
    assert h.percentile(100) == pytest.approx(8.0)  # right edge of last mass


def test_histogram_percentile_single_sample():
    h = Histogram(0.0, 10.0, bins=10)
    h.record(3.7)  # bin 3 spans [3, 4)
    for q in (0, 25, 50, 75, 100):
        assert 3.0 <= h.percentile(q) <= 4.0


def test_histogram_percentile_with_under_and_overflow():
    h = Histogram(0.0, 10.0, bins=10)
    h.record(-5.0)   # underflow counts as mass at low
    h.record(5.5)
    h.record(99.0)   # overflow counts as mass at high
    assert h.percentile(0) == 0.0
    assert h.percentile(100) == 10.0
    assert 5.0 <= h.percentile(50) <= 6.0


# -- windowed-telemetry contracts -------------------------------------------

def test_tally_values_since():
    t = Tally()
    t.extend([1.0, 2.0, 3.0])
    assert t.values_since(0) == [1.0, 2.0, 3.0]
    cursor = t.count
    assert t.values_since(cursor) == []
    t.extend([4.0, 5.0])
    assert t.values_since(cursor) == [4.0, 5.0]
    assert t.values_since(t.count) == []


def test_tally_values_since_negative_index_raises():
    t = Tally()
    t.record(1.0)
    with pytest.raises(SimulationError):
        t.values_since(-1)


def test_tally_values_since_returns_copy():
    t = Tally()
    t.extend([1.0, 2.0])
    window = t.values_since(0)
    window.append(99.0)
    assert t.count == 2


def test_histogram_merge_equals_concatenated_samples():
    """Merging two windows' histograms must answer quantile queries
    exactly as one histogram over the concatenated samples would —
    the property that makes per-window p50/p90/p99 composable."""
    first = [0.5, 1.2, 2.7, 3.3, 3.4]
    second = [0.1, 4.8, 4.9, 7.5, 9.1, 9.6]
    a = Histogram(0.0, 10.0, bins=20, name="w0")
    b = Histogram(0.0, 10.0, bins=20, name="w1")
    both = Histogram(0.0, 10.0, bins=20)
    for v in first:
        a.record(v)
        both.record(v)
    for v in second:
        b.record(v)
        both.record(v)
    merged = a.merge(b)
    assert merged.count == both.count == len(first) + len(second)
    assert list(merged.counts) == list(both.counts)
    for q in (50, 90, 99):
        assert merged.percentile(q) == pytest.approx(both.percentile(q))
    assert merged.name == "w0+w1"
    # Merge does not mutate its operands.
    assert a.count == len(first) and b.count == len(second)


def test_histogram_merge_combines_under_and_overflow():
    a = Histogram(0.0, 1.0, bins=4)
    b = Histogram(0.0, 1.0, bins=4)
    a.record(-1.0)
    b.record(2.0)
    b.record(3.0)
    merged = a.merge(b)
    assert merged.underflow == 1
    assert merged.overflow == 2
    assert merged.count == 3


def test_histogram_merge_rejects_mismatched_geometry():
    base = Histogram(0.0, 10.0, bins=10)
    for other in (Histogram(0.0, 10.0, bins=20),
                  Histogram(0.0, 5.0, bins=10),
                  Histogram(1.0, 10.0, bins=10)):
        with pytest.raises(SimulationError):
            base.merge(other)


def test_time_weighted_integral():
    eng = Engine()
    tw = TimeWeighted(eng, initial=2.0)

    def proc():
        yield eng.timeout(3.0)
        tw.record(4.0)
        yield eng.timeout(2.0)

    eng.process(proc())
    eng.run()
    # 2.0 for 3s, then 4.0 for 2s.
    assert tw.integral() == pytest.approx(14.0)
    assert tw.integral(4.0) == pytest.approx(10.0)  # one second into 4.0
    # Window mean from integral differences: [3, 5] averages 4.0.
    assert (tw.integral(5.0) - tw.integral(3.0)) / 2.0 == pytest.approx(4.0)


def test_time_weighted_integral_before_last_change_raises():
    eng = Engine()
    tw = TimeWeighted(eng, initial=0.0)

    def proc():
        yield eng.timeout(2.0)
        tw.record(1.0)

    eng.process(proc())
    eng.run()
    with pytest.raises(SimulationError):
        tw.integral(1.0)


def test_counter_rejects_non_integral_and_negative_counts():
    c = Counter("reqs")
    for bad in (1.0, 2.5, -1, -3, "3", None):
        with pytest.raises(SimulationError):
            c.add(bad)
    assert c.value == 0


def test_counter_accepts_numpy_ints_and_bool():
    import numpy as np

    c = Counter("reqs")
    c.add(np.int64(3))
    c.add(np.uint8(2))
    c.add(True)
    c.add(0)
    assert c.value == 6
    assert type(c.value) is int


def test_tally_rejects_nan_and_non_numeric_observations():
    import numpy as np

    t = Tally("lat")
    for bad in (float("nan"), np.float64("nan"), "fast", None, object()):
        with pytest.raises(SimulationError):
            t.record(bad)
    assert t.count == 0


def test_tally_accepts_numpy_scalars_and_bool_as_floats():
    import numpy as np

    t = Tally("lat")
    for v in (1.5, np.float64(2.5), np.float32(0.5), np.int64(4), True, 7):
        t.record(v)
    assert t.values == [1.5, 2.5, 0.5, 4.0, 1.0, 7.0]
    assert all(type(v) is float for v in t.values)


def test_histogram_rejects_bad_observation_and_keeps_state():
    h = Histogram(0.0, 10.0, bins=10, name="lat")
    for v in (1.0, 2.0, 12.0):
        h.record(v)
    before = (h.count, list(h.counts), h.underflow, h.overflow)
    for bad in (float("nan"), "x", None, object()):
        with pytest.raises(SimulationError):
            h.record(bad)
    assert (h.count, list(h.counts), h.underflow, h.overflow) == before
    # No phantom mass: the median is still read from the three samples.
    assert h.percentile(50.0) == pytest.approx(2.5)


def test_histogram_accepts_ints_and_infinities():
    h = Histogram(0.0, 10.0, bins=10)
    for v in (3, True, float("inf"), float("-inf")):
        h.record(v)
    assert h.count == 4
    assert (h.underflow, h.overflow) == (1, 1)
    assert list(h.counts[:4]) == [0, 1, 0, 1]


def test_tally_extend_is_all_or_nothing():
    t = Tally("lat")
    t.record(0.5)
    with pytest.raises(SimulationError, match="NaN observation"):
        t.extend([1.0, 2.0, float("nan")])
    with pytest.raises(SimulationError, match="non-numeric"):
        t.extend(iter([1.0, "x"]))
    assert t.values == [0.5]
    t.extend(v for v in (1.0, 2))
    assert t.values == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("q", [-0.1, 100.5, float("nan"), float("inf")])
def test_tally_percentile_out_of_range_q_raises(q):
    t = Tally("lat")
    t.extend([1.0, 2.0, 3.0])
    with pytest.raises(SimulationError, match="outside"):
        t.percentile(q)
    with pytest.raises(SimulationError, match="outside"):
        Tally("empty").percentile(q)
    assert t.percentile(0.0) == 1.0 and t.percentile(100.0) == 3.0
