"""Cluster workload: Zipf-popular keys under open (Poisson) arrivals.

The client fleet a replicated file service actually faces: requests
arrive by a Poisson process regardless of how the cluster is doing
(open arrivals — load does not back off during a crash, which is what
makes failover latency and retry pressure observable), and key
popularity follows a Zipf law (``weight ∝ rank^-s``, ``s`` =
:data:`ZIPF_S`), so a handful of hot keys dominate — the regime where
a crashed node's share of the keyspace actually matters and the
``consistent`` policy's cache locality shows.

Every request goes through the shared
:class:`~repro.cluster.client.ClusterClient`, so reads fail over and
writes replicate exactly as production traffic would; a request that
still dies after the coordinator's bounded retries is counted as
*aborted* and the fleet keeps going.

This is the repository's one open-arrival generator; the web server's
:class:`~repro.webserver.workload.WorkloadGenerator` is the paper's
closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import (
    ClusterError,
    ConnectionReset,
    HttpError,
    NoReplicasAvailable,
    ReproError,
    RetryExhausted,
)
from repro.sim import Tally
from repro.units import to_ms

from repro.cluster.cluster import FileCluster

__all__ = ["ClusterWorkloadConfig", "ClusterWorkloadResult",
           "ClusterWorkload"]

#: Exceptions that abort one request without killing the fleet.
_ABORTABLE = (ConnectionReset, RetryExhausted, HttpError,
              NoReplicasAvailable, ClusterError)

#: Zipf exponent of key popularity.
ZIPF_S = 1.1


@dataclass(frozen=True)
class ClusterWorkloadConfig:
    """Fleet parameters.

    Attributes
    ----------
    requests:
        Total requests the fleet fires.
    arrival_rate:
        Mean Poisson arrivals per simulated second.
    get_fraction:
        Probability a request is a GET; the rest are replicated PUTs.
    seed:
        Root seed for the fleet's arrival/mix streams.
    """

    requests: int = 200
    arrival_rate: float = 400.0
    get_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ReproError("requests must be >= 1")
        if self.arrival_rate <= 0:
            raise ReproError("arrival_rate must be positive")
        if not (0.0 <= self.get_fraction <= 1.0):
            raise ReproError("get_fraction must be in [0, 1]")


@dataclass
class ClusterWorkloadResult:
    """Aggregate outcome of one cluster workload run.

    ``latencies`` holds, per completed request, the simulated time from
    its first attempt to its completion, so coordinator retries,
    failovers and backoff are included.
    """

    completed: int
    aborted: int
    latencies: Tally
    duration: float
    #: Requests the balancer moved off a failed replica.
    failovers: int
    #: Client re-attempts beyond each request's first try.
    retries: int
    #: Balancer ejections over the run (sum across nodes).
    ejections: int
    #: Shards the repair agent re-replicated.
    rebuilt_keys: int
    #: Completions observed while the touched key was under-replicated.
    degraded: int
    #: Per-node requests served, keyed by node name.
    served_by_node: dict = field(default_factory=dict)
    #: Per-abort exception type names, for assertions.
    abort_reasons: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.completed + self.aborted

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return to_ms(self.latencies.mean)


class ClusterWorkload:
    """Drives a :class:`FileCluster` with a Zipf-popularity fleet."""

    def __init__(self, cluster: FileCluster,
                 config: Optional[ClusterWorkloadConfig] = None) -> None:
        self.cluster = cluster
        self.config = config or ClusterWorkloadConfig()
        self._streams = cluster.streams.fork("workload")
        ranks = np.arange(1, len(cluster.keys) + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_S
        weights /= weights.sum()
        # Generator.choice(n, p=weights)'s draw, without re-checking p
        # and re-summing it on every call: one uniform, searched in the
        # normalized CDF (tests/cluster pins the two together).
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def run(self) -> ClusterWorkloadResult:
        cfg = self.config
        cluster = self.cluster
        engine = cluster.engine
        client = cluster.client()
        keys = cluster.keys
        arrival_rng = self._streams.get("arrivals")
        mix_rng = self._streams.get("request-mix")
        cdf = self._cdf
        latencies = Tally("cluster.latency")
        completed = [0]
        aborted: List[str] = []
        start = engine.now

        def one_request():
            key = keys[int(cdf.searchsorted(mix_rng.random(), side="right"))]
            is_get = mix_rng.random() < cfg.get_fraction
            t0 = engine.now
            try:
                if is_get:
                    yield from client.get(key)
                else:
                    yield from client.put(key)
            except _ABORTABLE as exc:
                aborted.append(type(exc).__name__)
                cluster.aborted.add()
                return
            completed[0] += 1
            latencies.record(engine.now - t0)

        def dispatcher():
            fired = []
            for rid in range(cfg.requests):
                yield float(arrival_rng.exponential(1.0 / cfg.arrival_rate))
                fired.append(engine.process(one_request(),
                                            name=f"req-{rid}"))
            yield engine.all_of(fired)

        def waiter():
            yield engine.all_of(
                [engine.process(dispatcher(), name="cluster.arrivals")])

        engine.run_process(waiter())
        balancer = cluster.balancer
        return ClusterWorkloadResult(
            completed=completed[0],
            aborted=len(aborted),
            latencies=latencies,
            duration=engine.now - start,
            failovers=cluster.failovers.value,
            retries=cluster.retrier.retries.value,
            ejections=sum(c.value for c in balancer.ejections.values()),
            rebuilt_keys=cluster.rebuilt_keys.value,
            degraded=cluster.degraded.value,
            served_by_node={n: balancer.served[n].value
                            for n in sorted(balancer.served)},
            abort_reasons=aborted,
        )
