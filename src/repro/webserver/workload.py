"""Multi-client workload generation.

"The number of threads increases with the increasing number of
clients" — this module drives concurrent clients with seeded think
times and a GET/POST mix, for the scaling studies beyond the paper's
single-client tables.

The arrival process is the paper's closed loop: N clients in a
think/request loop, where load self-limits because each client waits
for its response before issuing the next request.  Open (Poisson)
arrivals live in :class:`repro.cluster.workload.ClusterWorkload`.

Client-side resilience: with ``retry`` set to a
:class:`repro.faults.RetryPolicy`, each request runs under a
:class:`~repro.faults.Retrier` — a reset or refused connection is
re-issued on a fresh socket under the policy's backoff.  A request
that still fails after the budget is counted as *aborted* (the
workload keeps going; one dead request is data, not a crash), and the
:class:`WorkloadResult` carries the full retry/abort accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConnectionReset, HttpError, ReproError, RetryExhausted
from repro.rng import SeededStreams
from repro.sim import Tally
from repro.units import to_ms
from repro.webserver.client import ClientResult
from repro.webserver.host import WebServerHost

__all__ = ["WorkloadConfig", "WorkloadResult", "WorkloadGenerator"]

#: Exceptions that abort one request without killing the workload.
_ABORTABLE = (ConnectionReset, RetryExhausted, HttpError)

#: Inclusive ``(lo, hi)`` bounds for POST body sizes (bytes).
POST_SIZE_RANGE = (1024, 65536)


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload parameters.

    Attributes
    ----------
    num_clients:
        Concurrent clients.
    requests_per_client:
        Requests each client issues.
    get_fraction:
        Probability a request is a GET of a random docroot file; the
        rest are POSTs.
    mean_think_time:
        Mean of the exponential think time between a closed-loop
        client's requests (seconds; 0 disables thinking).
    seed:
        Root seed for every stream the workload draws from.
    retry:
        Optional :class:`repro.faults.RetryPolicy`; requests that die
        on a reset/refused connection are re-issued under it.
    """

    num_clients: int = 4
    requests_per_client: int = 10
    get_fraction: float = 0.8
    mean_think_time: float = 0.01
    seed: int = 0
    retry: Optional[object] = None

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ReproError("num_clients must be >= 1")
        if self.requests_per_client < 1:
            raise ReproError("requests_per_client must be >= 1")
        if not (0.0 <= self.get_fraction <= 1.0):
            raise ReproError("get_fraction must be in [0, 1]")
        if self.mean_think_time < 0:
            raise ReproError("mean_think_time must be >= 0")


@dataclass
class WorkloadResult:
    """Aggregate outcome of one workload run.

    ``latencies`` holds, per completed request, the final attempt's
    :attr:`ClientResult.elapsed`, so failed attempts and retry backoff
    are excluded.
    """

    results: List[ClientResult]
    latencies: Tally
    duration: float
    #: Managed worker threads the server spawned — the paper's cost
    #: axis.  0 on the event-loop architecture, which has none.
    threads_spawned: int
    #: Which server design served the run (``"thread"``/``"eventloop"``).
    architecture: str = "thread"
    #: Connections the server admitted into the handler chain.
    connections_accepted: int = 0
    #: High-water mark of live simulated server processes (memory proxy).
    peak_processes: int = 0
    #: Requests abandoned after exhausting retries (or, with no retry
    #: policy, on the first reset).
    aborted: int = 0
    #: Client re-attempts beyond each request's first try.
    retries: int = 0
    #: Requests that failed at least once but eventually got a response.
    recovered: int = 0
    #: Per-abort exception type names, for test/bench assertions.
    abort_reasons: List[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Completed requests (aborts excluded)."""
        return len(self.results)

    @property
    def attempted(self) -> int:
        """Requests issued, whether or not they completed."""
        return self.count + self.aborted

    @property
    def mean_latency_ms(self) -> float:
        return to_ms(self.latencies.mean)

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second."""
        return self.count / self.duration if self.duration > 0 else 0.0

    @property
    def error_count(self) -> int:
        return sum(1 for r in self.results if r.status >= 400)


class WorkloadGenerator:
    """Drives a :class:`WebServerHost` with concurrent clients."""

    def __init__(self, host: WebServerHost, config: Optional[WorkloadConfig] = None) -> None:
        self.host = host
        self.config = config or WorkloadConfig()
        self._streams = SeededStreams(self.config.seed)
        self.retrier = None
        if self.config.retry is not None:
            from repro.faults import Retrier

            self.retrier = Retrier(
                host.engine, self.config.retry, name="workload.retry",
                category="workload",
                rng=self._streams.get("client-retry-jitter"),
            )

    def run(self) -> WorkloadResult:
        cfg = self.config
        engine = self.host.engine
        paths = sorted(self.host.config.files)
        results: List[ClientResult] = []
        latencies = Tally("workload.latency")
        aborted: List[str] = []
        start = engine.now

        lo, hi = POST_SIZE_RANGE

        def client_loop(cid: int):
            """Generator: think, then issue one request from the GET/POST
            mix, recording its outcome (or its abort)."""
            rng = self._streams.get(f"client-{cid}")
            client = self.host.client(retrier=self.retrier)
            for _ in range(cfg.requests_per_client):
                think = float(rng.exponential(cfg.mean_think_time)) if cfg.mean_think_time else 0.0
                if think > 0:
                    yield think
                if float(rng.uniform()) < cfg.get_fraction:
                    request = client.get(paths[int(rng.integers(0, len(paths)))])
                else:
                    request = client.post("/uploads", int(rng.integers(lo, hi + 1)))
                try:
                    result = yield from request
                except _ABORTABLE as exc:
                    aborted.append(type(exc).__name__)
                    continue
                results.append(result)
                latencies.record(result.elapsed)

        procs = [
            engine.process(client_loop(cid), name=f"client-{cid}")
            for cid in range(cfg.num_clients)
        ]

        def waiter():
            yield engine.all_of(procs)

        engine.run_process(waiter())
        server = self.host.server
        retr = self.retrier
        return WorkloadResult(
            results=results,
            latencies=latencies,
            duration=engine.now - start,
            threads_spawned=getattr(
                getattr(server, "threads_spawned", None), "value", 0),
            architecture=server.ARCHITECTURE,
            connections_accepted=server.connections_accepted.value,
            peak_processes=server.peak_live_processes,
            aborted=len(aborted),
            retries=retr.retries.value if retr else 0,
            recovered=retr.recovered.value if retr else 0,
            abort_reasons=aborted,
        )
