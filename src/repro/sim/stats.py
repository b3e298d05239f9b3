"""Statistics collectors used across the simulation.

All collectors are cheap to update on the hot path (O(1) appends or
integer adds); aggregate queries (percentiles, means) vectorize with
NumPy only when asked.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["Counter", "Tally", "TimeWeighted", "Histogram"]


class Counter:
    """Monotonic named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by ``n``.

        ``n`` must be a non-negative integer; anything else raises
        :class:`~repro.errors.SimulationError` (the same error type
        every collector in this module uses for bad input — callers
        can catch one exception class for all of them).
        """
        if type(n) is int and n >= 0:  # fast path: the common case
            self.value += n
            return
        if not isinstance(n, numbers.Integral):
            raise SimulationError(
                f"Counter {self.name!r}: add() needs an integer, got {n!r}"
            )
        if n < 0:
            raise SimulationError(f"Counter {self.name!r}: add of negative {n}")
        self.value += int(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Tally:
    """Accumulates individual observations (e.g. per-request latencies)."""

    def __init__(self, name: str = "tally") -> None:
        self.name = name
        self._values: List[float] = []

    def record(self, value: float) -> None:
        """Add one observation.

        ``value`` must be a finite real number; non-numeric or NaN
        input raises :class:`~repro.errors.SimulationError` (matching
        :meth:`Counter.add` — one error type across the collectors).
        """
        if type(value) is float and value == value:  # fast path: not NaN
            self._values.append(value)
        else:
            self._values.append(self._check(value))

    def extend(self, values: Sequence[float]) -> None:
        """Add many observations (validated like :meth:`record`)."""
        self._values.extend(self._check(v) for v in values)

    def _check(self, value: float) -> float:
        try:
            out = float(value)
        except (TypeError, ValueError):
            raise SimulationError(
                f"Tally {self.name!r}: non-numeric observation {value!r}"
            ) from None
        if math.isnan(out):
            raise SimulationError(f"Tally {self.name!r}: NaN observation")
        return out

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        """The raw observations (copy — safe to mutate)."""
        return list(self._values)

    def values_since(self, index: int) -> List[float]:
        """Observations recorded at or after position ``index``.

        The windowed-telemetry access pattern: a sampler remembers the
        count at the last scrape and asks for everything newer.  A
        negative ``index`` is rejected (it would silently alias
        Python's from-the-end slicing); an ``index`` beyond the current
        count returns the empty list.
        """
        if index < 0:
            raise SimulationError(
                f"Tally {self.name!r}: values_since index must be >= 0, "
                f"got {index}"
            )
        return self._values[index:]

    def as_array(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    @property
    def total(self) -> float:
        return float(sum(self._values))

    @property
    def mean(self) -> float:
        if not self._values:
            raise SimulationError(f"Tally {self.name!r}: mean of no observations")
        return self.total / len(self._values)

    @property
    def minimum(self) -> float:
        if not self._values:
            raise SimulationError(f"Tally {self.name!r}: min of no observations")
        return min(self._values)

    @property
    def maximum(self) -> float:
        if not self._values:
            raise SimulationError(f"Tally {self.name!r}: max of no observations")
        return max(self._values)

    @property
    def std(self) -> float:
        """Population standard deviation."""
        if not self._values:
            raise SimulationError(f"Tally {self.name!r}: std of no observations")
        return float(np.std(self.as_array()))

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        if not self._values:
            raise SimulationError(f"Tally {self.name!r}: percentile of no observations")
        return float(np.percentile(self.as_array(), q))

    def __repr__(self) -> str:  # pragma: no cover
        if not self._values:
            return f"<Tally {self.name} empty>"
        return f"<Tally {self.name} n={self.count} mean={self.mean:.4g}>"


class TimeWeighted:
    """A piecewise-constant signal integrated over simulated time.

    Used for utilization and queue-length tracking: ``record(v)`` marks
    that the signal takes value ``v`` from *now* on; ``mean()`` is the
    time-weighted average since creation.
    """

    def __init__(self, engine: "Engine", initial: float = 0.0) -> None:
        self.engine = engine
        self._start = engine.now
        self._last_time = engine.now
        self._last_value = float(initial)
        self._area = 0.0
        self._max = float(initial)

    def record(self, value: float, at: Optional[float] = None) -> None:
        """The signal becomes ``value`` at the current simulated time, or
        ``at`` an earlier one no earlier than the last recorded change
        (how a component that records lazily replays the changes it
        owes, in order)."""
        now = self.engine._now if at is None else at
        self._area += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = float(value)
        if value > self._max:
            self._max = float(value)

    @property
    def current(self) -> float:
        return self._last_value

    @property
    def maximum(self) -> float:
        return self._max

    def mean(self, until: Optional[float] = None) -> float:
        """Time-weighted mean over [start, until] (default: now)."""
        end = self.engine.now if until is None else until
        span = end - self._start
        if span <= 0:
            return self._last_value
        area = self._area + self._last_value * (end - self._last_time)
        return area / span

    def integral(self, until: Optional[float] = None) -> float:
        """Area under the signal from creation to ``until`` (default:
        now).

        Differences of successive integrals give exact window means —
        ``(I(t1) - I(t0)) / (t1 - t0)`` — which is how windowed
        telemetry reports a per-window utilization without replaying
        the signal.  ``until`` must not precede the last recorded
        change (the signal's past is already folded into ``_area``).
        """
        end = self.engine.now if until is None else until
        if end < self._last_time:
            raise SimulationError(
                "TimeWeighted.integral: until precedes the last recorded "
                f"change ({end} < {self._last_time})"
            )
        return self._area + self._last_value * (end - self._last_time)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TimeWeighted current={self._last_value:g} mean={self.mean():.4g}>"


class Histogram:
    """Fixed-width binned histogram with under/overflow buckets."""

    def __init__(self, low: float, high: float, bins: int, name: str = "hist") -> None:
        if bins < 1:
            raise SimulationError(f"bins must be >= 1, got {bins}")
        if not (high > low):
            raise SimulationError(f"need high > low, got [{low}, {high}]")
        self.name = name
        self.low = float(low)
        self.high = float(high)
        self.bins = bins
        self._width = (high - low) / bins
        self.counts = np.zeros(bins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self._n = 0

    def record(self, value: float) -> None:
        """Add one observation to the appropriate bin."""
        self._n += 1
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            idx = int((value - self.low) / self._width)
            # Guard against float edge landing exactly on `high`.
            self.counts[min(idx, self.bins - 1)] += 1

    @property
    def count(self) -> int:
        return self._n

    def bin_edges(self) -> np.ndarray:
        return np.linspace(self.low, self.high, self.bins + 1)

    def mode_bin(self) -> int:
        """Index of the most populated in-range bin."""
        if self.counts.sum() == 0:
            raise SimulationError(f"Histogram {self.name!r}: empty")
        return int(np.argmax(self.counts))

    def merge(self, other: "Histogram") -> "Histogram":
        """New histogram holding this one's mass plus ``other``'s.

        Both inputs must share the exact same binning (``low``,
        ``high``, ``bins``); anything else raises
        :class:`~repro.errors.SimulationError`.  Because bin counts are
        additive, the merge of two windows' histograms reports the
        same percentiles as one histogram fed the concatenated samples
        — the property windowed telemetry relies on when it rolls
        per-window distributions up into longer spans
        (``tests/sim/test_stats.py`` pins it for the bundled
        quantiles).
        """
        if not isinstance(other, Histogram):
            raise SimulationError(
                f"Histogram {self.name!r}: cannot merge with "
                f"{type(other).__name__}"
            )
        if (self.low, self.high, self.bins) != (other.low, other.high, other.bins):
            raise SimulationError(
                f"Histogram {self.name!r}: merge needs identical binning, "
                f"got [{self.low:g},{self.high:g})x{self.bins} vs "
                f"[{other.low:g},{other.high:g})x{other.bins}"
            )
        out = Histogram(self.low, self.high, self.bins,
                        name=f"{self.name}+{other.name}")
        out.counts = self.counts + other.counts
        out.underflow = self.underflow + other.underflow
        out.overflow = self.overflow + other.overflow
        out._n = self._n + other._n
        return out

    def percentile(self, q: float) -> float:
        """Percentile estimated from the binned counts, ``q`` in [0, 100].

        Mass is interpolated linearly within each bin.  The histogram
        does not retain exact sample values, so underflow mass counts
        as sitting at ``low`` and overflow mass at ``high`` — the
        estimate is always within ``[low, high]``.  An empty histogram
        or an out-of-range ``q`` raises
        :class:`~repro.errors.SimulationError`.
        """
        if not 0.0 <= q <= 100.0:
            raise SimulationError(
                f"Histogram {self.name!r}: percentile q={q} outside [0, 100]"
            )
        if self._n == 0:
            raise SimulationError(
                f"Histogram {self.name!r}: percentile of no observations"
            )
        if q == 0.0:
            # Left edge of the first recorded mass.
            if self.underflow:
                return self.low
            nonzero = np.flatnonzero(self.counts)
            if nonzero.size:
                return self.low + int(nonzero[0]) * self._width
            return self.high  # only overflow recorded
        target = (q / 100.0) * self._n
        cum = float(self.underflow)
        if self.underflow and target <= cum:
            return self.low
        for i, c in enumerate(self.counts):
            c = int(c)
            if c and target <= cum + c:
                frac = (target - cum) / c
                return self.low + (i + frac) * self._width
            cum += c
        return self.high  # target lands in the overflow mass

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name} n={self._n} [{self.low:g},{self.high:g})x{self.bins}>"
