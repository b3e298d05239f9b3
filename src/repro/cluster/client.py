"""The coordinator client: replicated writes, failover reads.

One :class:`ClusterClient` is the cluster's data-plane entry point
(the piece a smart client library or an L7 proxy would embed).  It
speaks plain HTTP to the nodes — GET ``/k0042`` reads a shard copy,
POST ``/k0042`` overwrites it in place (the nodes run with
``keyed_writes``) — and layers the cluster semantics on top:

Reads (:meth:`get`)
    Ask the balancer for the in-sync replicas in policy order and walk
    them: a reset, an unreachable host, or a 5xx fails over to the
    next replica (one ``failover`` instant + per-node counter each).
    Only when *every* replica fails does the attempt fail — and if the
    failure is transport-level it is retried under the shared
    :class:`~repro.faults.Retrier` with bounded backoff, so a crash's
    grey window (dead node, not yet ejected) costs latency, not
    errors, and there is no retry storm.

Writes (:meth:`put`)
    Serialized per key (a :class:`~repro.sim.Resource` lock per key —
    the single-writer lease a real metadata service would grant), then
    replicated to **every admitted replica** before the write commits
    to the :class:`~repro.cluster.replication.ReplicationLog` and is
    acknowledged.  The admitted set is re-read every round: a replica
    that fails its (retried) write is re-driven for a bounded number
    of rounds; if it gets ejected meanwhile the write completes with
    the survivors (the repair agent will catch the node up); if it is
    *readmitted* mid-write it is added to the round — its rebuild scan
    ran before this write committed, so skipping it would leave an
    in-sync replica missing acked bytes; and if it stays
    admitted-but-failing the write is *aborted unacknowledged* — the
    cluster never acks bytes it cannot point to on a healthy replica.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.errors import (
    ConnectionReset,
    HttpError,
    NoReplicasAvailable,
    RetryExhausted,
)
from repro.sim import Resource
from repro.webserver.client import HttpClient

from repro.cluster.replication import base_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import FileCluster

__all__ = ["ClusterClient"]

#: Per-replica failures a read fails over on / a write re-drives on.
_REPLICA_FAILURES = (ConnectionReset, RetryExhausted, HttpError)

#: Re-drive rounds for a replica that keeps failing writes while still
#: admitted, before the write aborts unacknowledged.
WRITE_ROUNDS = 3


class ClusterClient:
    """Coordinates replicated reads/writes against one cluster."""

    def __init__(self, cluster: "FileCluster") -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.balancer = cluster.balancer
        self.log = cluster.log
        self.retrier = cluster.retrier
        self._http: Dict[str, HttpClient] = {
            name: HttpClient(cluster.network, host=node.host, port=node.port)
            for name, node in cluster.nodes.items()
        }
        self._locks: Dict[str, Resource] = {}

    # -- key locks ---------------------------------------------------------

    def lock_for(self, key: str) -> Resource:
        """The per-key write lock (shared with the repair agent)."""
        lock = self._locks.get(key)
        if lock is None:
            lock = Resource(self.engine, capacity=1, name=f"lock:{key}")
            self._locks[key] = lock
        return lock

    # -- bookkeeping -------------------------------------------------------

    def _finish(self, key: str) -> None:
        """Completion accounting shared by reads and writes."""
        self.cluster.requests.add()
        if not self.balancer.is_fully_replicated(key):
            self.cluster.degraded.add()

    def _replica_failed(self, key: str, name: str, exc: BaseException) -> None:
        self.cluster.failovers.add()
        self.balancer.note_failover(key, name, type(exc).__name__)

    # -- reads -------------------------------------------------------------

    def get(self, key: str):
        """Generator: read ``key`` from the first replica that answers.

        Returns the winning :class:`~repro.webserver.client.ClientResult`.
        """

        def attempt():
            order = self.balancer.read_order(key)
            if not order:
                raise NoReplicasAvailable(
                    f"read {key!r}: no in-sync replica")
            last: BaseException = None
            for name in order:
                self.balancer.note_dispatch(name)
                try:
                    result = yield from self._http[name].get(key)
                except _REPLICA_FAILURES as exc:
                    last = exc
                    self._replica_failed(key, name, exc)
                    continue
                finally:
                    self.balancer.note_done(name)
                if result.status == 200:
                    self.balancer.note_served(name)
                    tracer = self.engine.tracer
                    if tracer.enabled:
                        tracer.instant("cluster.serve", "cluster", key=key,
                                       node=name, kind="read",
                                       bytes=result.body_bytes)
                    return result
                last = HttpError(result.status,
                                 f"GET {key} -> {result.status} from {name}")
                self._replica_failed(key, name, last)
            raise last

        result = yield from self.retrier.call(attempt, op="cluster.get")
        self._finish(key)
        return result

    # -- writes ------------------------------------------------------------

    def put(self, key: str):
        """Generator: overwrite ``key`` on every admitted replica, then
        acknowledge.  Returns the committed size in bytes."""
        lock = self.lock_for(key)
        grant = lock.acquire()
        yield grant
        try:
            version = self.log.next_version(key)
            size = base_size(key) + version
            pending = self.balancer.write_targets(key)
            if not pending:
                raise NoReplicasAvailable(
                    f"write {key!r}: no admitted replica")
            succeeded = []
            rounds = 0
            while pending:
                failed = []
                for name in pending:
                    self.balancer.note_dispatch(name)
                    try:
                        result = yield from self.retrier.call(
                            lambda name=name: self._http[name].post(key, size),
                            op="cluster.put")
                    except _REPLICA_FAILURES as exc:
                        failed.append(name)
                        self._replica_failed(key, name, exc)
                    else:
                        if result.status == 201:
                            succeeded.append(name)
                            self.balancer.note_served(name)
                            tracer = self.engine.tracer
                            if tracer.enabled:
                                tracer.instant("cluster.replica_ack",
                                               "cluster", key=key, node=name,
                                               version=version)
                        else:
                            failed.append(name)
                            self._replica_failed(key, name, HttpError(
                                result.status,
                                f"POST {key} -> {result.status} from {name}"))
                    finally:
                        self.balancer.note_done(name)
                # Re-read the admitted set every round: failures to
                # since-ejected members are forgiven (the repair agent
                # owns catching them up), still-admitted stragglers get
                # re-driven for a bounded round count, and a replica
                # readmitted while a POST was in flight is *added* —
                # otherwise its rebuild scan (which ran before this
                # write committed) would mark it in-sync while it
                # misses these bytes.  No yield separates the final
                # empty check from the commit, so admission cannot
                # change in between.
                pending = [  # sanitizer: allow (refreshed every round)
                    n for n in self.balancer.replicas(key)
                    if self.balancer.is_admitted(n) and n not in succeeded
                ]
                if not pending:
                    break
                rounds += 1
                if rounds >= WRITE_ROUNDS:
                    raise RetryExhausted(
                        f"write {key!r}: replica(s) {pending} kept failing "
                        f"while admitted", attempts=rounds)
                yield self.balancer.config.probe_interval
            if not succeeded:
                raise NoReplicasAvailable(
                    f"write {key!r}: no replica acknowledged")
            self.log.commit(key, version, size,
                            replicas=tuple(self.balancer.replicas(key)),
                            now=self.engine.now)
            self._finish(key)
            return size
        finally:
            lock.release(grant)
