"""Seeded random-number streams.

All stochastic behaviour in the library (trace jitter, client think
times, file placement...) flows through :class:`SeededStreams` so a
single integer seed makes an entire experiment bit-for-bit
reproducible.  Each named stream is an independent ``numpy`` generator
derived from the root seed with ``SeedSequence.spawn``-style keying, so
adding a new consumer never perturbs existing streams.
"""

from __future__ import annotations

import zlib
from typing import Dict, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["SeededStreams", "stream_seed"]


def stream_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic 64-bit child seed for a named stream.

    Uses CRC32 of the stream name mixed into the root seed; stable
    across Python versions (unlike ``hash``) and across runs.
    """
    mix = zlib.crc32(name.encode("utf-8"))
    return (root_seed * 0x9E3779B97F4A7C15 + mix) & 0xFFFFFFFFFFFFFFFF


class SeededStreams:
    """A family of independently seeded RNG streams.

    >>> streams = SeededStreams(seed=42)
    >>> a = streams.get("disk-jitter")
    >>> b = streams.get("client-arrivals")
    >>> a is streams.get("disk-jitter")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            # At first use: a run that draws nothing never loads NumPy.
            import numpy as np

            gen = np.random.default_rng(stream_seed(self.seed, name))
            self._streams[name] = gen
        return gen

    def fork(self, name: str) -> "SeededStreams":
        """Create a child family keyed off this family's seed and ``name``.

        Useful when a subsystem wants to hand out its own sub-streams
        without risking collisions with its parent's names.
        """
        return SeededStreams(stream_seed(self.seed, "fork:" + name))

    def reset(self) -> None:
        """Drop all streams; subsequent ``get`` calls start fresh."""
        self._streams.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededStreams(seed={self.seed}, active={sorted(self._streams)})"
