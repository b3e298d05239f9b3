"""The fleet's key draw is ``Generator.choice(n, p=zipf)``, exactly.

:class:`ClusterWorkload` searches a precomputed CDF with one uniform
instead of calling ``choice`` per request.  The two must pick the same
key from the same stream, and leave the stream in the same place, or
every cluster result moves; a numpy release that changes how ``choice``
draws would break that silently, so it is pinned here.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterWorkload, FileCluster
from repro.cluster.workload import ZIPF_S


@pytest.mark.parametrize("num_keys", [1, 12, 64])
def test_cdf_draw_matches_generator_choice(num_keys):
    cluster = FileCluster(ClusterConfig(nodes=3, replication=2,
                                        num_keys=num_keys))
    cdf = ClusterWorkload(cluster)._cdf
    ranks = np.arange(1, num_keys + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_S
    weights = weights / weights.sum()
    for seed in range(5):
        reference = np.random.default_rng(seed)
        candidate = np.random.default_rng(seed)
        for _ in range(2000):
            expected = int(reference.choice(num_keys, p=weights))
            drawn = int(cdf.searchsorted(candidate.random(), side="right"))
            assert drawn == expected
            # The workload's next draw from the same stream.
            assert candidate.random() == float(reference.uniform())
