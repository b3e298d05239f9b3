"""The request-mix draw is ``Generator.random()``, which is
``float(Generator.uniform())`` exactly.

The web and cluster workloads decide GET or POST/PUT with
``rng.random() < get_fraction``; they once drew ``float(rng.uniform())``.
The two must give bitwise-equal values and leave the stream in the same
place, or every web and cluster result moves; a numpy release that
changes either would break that silently, so it is pinned here, with
the draws the workloads interleave (think times, Zipf keys, file
indices and POST sizes).
"""

import numpy as np


def test_random_is_float_uniform_bit_for_bit():
    for seed in range(8):
        reference = np.random.default_rng(seed)
        candidate = np.random.default_rng(seed)
        for _ in range(2000):
            drawn = candidate.random()
            assert type(drawn) is float
            assert drawn.hex() == float(reference.uniform()).hex()
            # The workloads' other draws from the same stream.
            assert (float(candidate.exponential(1e-3))
                    == float(reference.exponential(1e-3)))
            assert int(candidate.integers(0, 7)) == int(reference.integers(0, 7))

