"""The cluster facade: topology, bootstrap, repair, and verification.

:class:`FileCluster` wires the whole distributed stack onto one
deterministic engine: N :class:`~repro.cluster.node.ClusterNode`\\ s
(each a full single-host storage/serving stack on a shared LAN), one
:class:`~repro.cluster.balancer.LoadBalancer`, one
:class:`~repro.cluster.replication.ReplicationLog`, and one shared
:class:`~repro.cluster.client.ClusterClient`.  Construction bootstraps
the namespace — every key's version-0 file is created on each of its R
ring-placed replicas — and only then starts health probing, so a
freshly built cluster is fully replicated and fully admitted.

The cluster also owns the *repair agent*.  When probes readmit a node
(it answers connections again after a crash or partition), the
balancer calls :meth:`_on_readmit`, which spawns a foreground rebuild
process: scan the replication log for shards the node owns whose
on-disk size disagrees with the last acknowledged write, fetch each
stale shard over HTTP from an in-sync peer (under the same per-key
write lock the coordinator uses, so repair never races a live
overwrite), and rewrite it locally.  Only when the backlog drains does
the node become ``in_sync`` — the ``node.up`` instant — and start
serving reads again.  Rebuild traffic is its own metric pair
(``cluster.rebuild.keys`` / ``cluster.rebuild.bytes``).

:meth:`verify_durability` checks the headline invariant: **no
acknowledged write is ever lost**.  For every key the log has acked,
every in-sync replica must hold at least the acked byte count, and at
least one live copy of the acked bytes must exist somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ClusterError
from repro.faults import FaultInjector, FaultPlan, Retrier, RetryPolicy
from repro.io import Network
from repro.rng import SeededStreams
from repro.sim import Counter, Engine
from repro.webserver.client import HttpClient
from repro.webserver.server import WebServerConfig

from repro.cluster.balancer import BalancerConfig, LoadBalancer, POLICIES
from repro.cluster.client import ClusterClient
from repro.cluster.node import ClusterNode
from repro.cluster.replication import ReplicationLog, base_size

__all__ = ["ClusterConfig", "FileCluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that defines a cluster run (pure data).

    Attributes
    ----------
    nodes, replication:
        N members and R copies per key (``1 <= R <= N``).
    policy:
        Read-routing policy (:data:`~repro.cluster.balancer.POLICIES`).
    architecture:
        Per-node server architecture (``thread``/``eventloop``).
    num_keys:
        Size of the sharded namespace (keys ``/k0000`` ...).
    port:
        Every node listens on this port at ``node-<i>:<port>``.
    seed:
        Root seed for all cluster-level randomness.
    retry:
        Client retry policy (defaults to 3 attempts, 5 ms base).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; ``node.*`` specs
        arm against the members, ``disk.*``/``net.*`` specs against
        each node's disk and the shared LAN.
    tracer:
        Optional tracer config forwarded to the engine.
    """

    nodes: int = 3
    replication: int = 2
    policy: str = "round_robin"
    architecture: str = "thread"
    num_keys: int = 32
    port: int = 5050
    seed: int = 0
    vm_profile: str = "sscli"
    cache_pages: int = 4096
    virtual_nodes: int = 64
    probe_interval: float = 0.02
    eject_after: int = 3
    readmit_after: int = 2
    max_concurrency: Optional[int] = 64
    accept_backlog: Optional[int] = None
    request_deadline: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    fault_plan: Optional[FaultPlan] = None
    tracer: object = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ClusterError(f"nodes must be >= 1, got {self.nodes}")
        if not (1 <= self.replication <= self.nodes):
            raise ClusterError(
                f"replication {self.replication} out of range for "
                f"{self.nodes} node(s)")
        if self.policy not in POLICIES:
            raise ClusterError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        if self.num_keys < 1:
            raise ClusterError(f"num_keys must be >= 1, got {self.num_keys}")


class FileCluster:
    """N replicated file-serving nodes behind one load balancer."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = cfg = config or ClusterConfig()
        self.engine = Engine(tracer=cfg.tracer)
        self.engine.tracer.name_process("cluster")
        self.injector = (FaultInjector(self.engine, cfg.fault_plan)
                         if cfg.fault_plan is not None else None)
        self.network = Network(self.engine, injector=self.injector)
        self.streams = SeededStreams(cfg.seed).fork("cluster")
        self.retrier = Retrier(
            self.engine,
            cfg.retry or RetryPolicy(max_attempts=3, base_delay=0.005),
            name="cluster.retry",
            category="cluster",
            rng=self.streams.get("client-retry-jitter"),
        )
        self.nodes: Dict[str, ClusterNode] = {}
        for i in range(cfg.nodes):
            name = f"node-{i}"
            server_config = WebServerConfig(
                host=name,
                port=cfg.port,
                docroot="/data",
                upload_dir="/data/uploads",
                seed=cfg.seed,
                keyed_writes=True,
                max_concurrency=cfg.max_concurrency,
                accept_backlog=cfg.accept_backlog,
                request_deadline=cfg.request_deadline,
            )
            self.nodes[name] = ClusterNode(
                self.engine, self.network, name, server_config,
                architecture=cfg.architecture,
                vm_profile=cfg.vm_profile,
                cache_pages=cfg.cache_pages,
                injector=self.injector,
            )
        self.keys: Tuple[str, ...] = tuple(
            f"/k{i:04d}" for i in range(cfg.num_keys))
        self.balancer = LoadBalancer(
            self.engine, self.network, list(self.nodes.values()),
            config=BalancerConfig(
                policy=cfg.policy,
                replication=cfg.replication,
                virtual_nodes=cfg.virtual_nodes,
                probe_interval=cfg.probe_interval,
                eject_after=cfg.eject_after,
                readmit_after=cfg.readmit_after,
            ),
            on_readmit=self._on_readmit,
        )
        self.log = ReplicationLog()
        # The commit instant is emitted from the log's own callback
        # with a *fresh* read of the admitted set — the sanitizer's
        # replicate-before-ack invariant checks acks against what was
        # admitted at the moment the log accepted the commit, not
        # against whatever set the writer happened to cache.
        self.log.on_commit = self._note_commit
        reg = self.engine.metrics
        self.requests = Counter("cluster.requests")
        self.degraded = Counter("cluster.degraded")
        self.aborted = Counter("cluster.aborted")
        self.failovers = Counter("cluster.failovers")
        self.rebuilt_keys = Counter("cluster.rebuild.keys")
        self.rebuilt_bytes = Counter("cluster.rebuild.bytes")
        for counter in (self.requests, self.degraded, self.aborted,
                        self.failovers, self.rebuilt_keys,
                        self.rebuilt_bytes):
            reg.register(counter.name, counter)
        self.cluster_client = ClusterClient(self)
        self.engine.run_process(self._setup())
        # Fault daemons arm only after bootstrap: registering them
        # earlier would let the setup run (which drains the event
        # queue) burn through the fault windows before any traffic.
        if self.injector is not None:
            for node in self.nodes.values():
                self.injector.register_node(node)
        # Probing starts only after every listener is up — a probe
        # round during bootstrap would eject perfectly healthy nodes.
        self.balancer.start()

    # -- bootstrap ---------------------------------------------------------

    def _setup(self):
        for node in self.nodes.values():
            yield from node.start()
        for key in self.keys:
            size = base_size(key)
            # The ring is fixed at construction: placement, unlike
            # health state, cannot change across the creates.
            replicas = self.balancer.replicas(key)  # sanitizer: allow
            for name in replicas:
                node = self.nodes[name]
                yield from node.fs.create(node.key_path(key),
                                          size_bytes=size)
            self.log.bootstrap(key, size, tuple(replicas),
                               now=self.engine.now)

    # -- data plane --------------------------------------------------------

    def client(self) -> ClusterClient:
        """The shared coordinator (all callers see one lock table)."""
        return self.cluster_client

    # -- protocol trace ----------------------------------------------------

    def _note_commit(self, key: str, version: int, size: int) -> None:
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(
                "cluster.commit", "cluster", key=key, version=version,
                size=size,
                admitted=",".join(self.balancer.write_targets(key)))

    # -- repair ------------------------------------------------------------

    def _on_readmit(self, name: str) -> None:
        node = self.nodes[name]
        self.engine.process(self._rebuild(node),
                            name=f"cluster.rebuild.{name}")

    def _rebuild(self, node: ClusterNode):
        """Foreground process: re-replicate ``node``'s stale shards,
        then mark it in sync (``node.up``)."""
        # The scan is deliberately a snapshot: every key it lists is
        # re-validated under its write lock before any bytes move.
        stale = [  # sanitizer: allow
            key for key in self.log.keys()
            if node.name in self.log.replicas_of(key)
            and node.stored_size(key) != self.log.expected_size(key)
        ]
        node.rebuild_progress = 0.0 if stale else 1.0
        moved = 0
        for i, key in enumerate(stale):
            lock = self.cluster_client.lock_for(key)
            grant = lock.acquire()
            yield grant
            try:
                # Re-check under the lock: a write that committed while
                # we queued may have refreshed this shard already.
                expected = self.log.expected_size(key)
                if node.stored_size(key) == expected:
                    continue
                sources = [
                    n for n in self.log.replicas_of(key)
                    if n != node.name and self.balancer.is_in_sync(n)
                ]
                if not sources:
                    # No trustworthy copy right now; a later readmit
                    # (or the next overwrite) repairs this shard.
                    continue
                src = sources[0]
                peer = self.nodes[src]
                fetch = HttpClient(self.network, host=peer.host,
                                   port=peer.port)
                result = yield from fetch.get(key)
                if result.status != 200:
                    continue
                yield from node.store_local(key, result.body_bytes)
                moved += 1
                self.rebuilt_keys.add()
                self.rebuilt_bytes.add(result.body_bytes)
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant("rebalance.move", "cluster",
                                   node=node.name, key=key, src=src,
                                   bytes=result.body_bytes)
            finally:
                lock.release(grant)
                node.rebuild_progress = (i + 1) / len(stale)
        node.rebuild_progress = 1.0
        self.balancer.mark_in_sync(node.name)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("node.up", "cluster", node=node.name,
                           rebuilt_keys=moved,
                           scanned_keys=len(stale))

    # -- verification ------------------------------------------------------

    def verify_durability(self) -> dict:
        """Check the no-lost-acknowledged-writes invariant.

        Returns ``{"checked": int, "lost": [...], "lost_acked_writes":
        int}``.  A loss is an in-sync replica holding fewer bytes than
        the log acked for a key (it would serve stale data), or a key
        with no live copy of the acked bytes anywhere.  Copies *larger*
        than the ack are fine — an unacknowledged newer write that
        partially landed.
        """
        lost: List[dict] = []
        for key in self.log.keys():
            expected = self.log.expected_size(key)
            have_copy = False
            for name in self.log.replicas_of(key):
                node = self.nodes[name]
                size = node.stored_size(key)
                if node.is_up and size is not None and size >= expected:
                    have_copy = True
                if self.balancer.is_in_sync(name) and (
                        size is None or size < expected):
                    lost.append({
                        "key": key, "node": name, "reason": "stale_in_sync",
                        "stored": size, "acked": expected,
                    })
            if not have_copy:
                lost.append({
                    "key": key, "node": None, "reason": "no_copy",
                    "stored": None, "acked": expected,
                })
        return {
            "checked": len(self.log),
            "lost": lost,
            "lost_acked_writes": len(lost),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (f"<FileCluster n={cfg.nodes} r={cfg.replication} "
                f"{cfg.policy}/{cfg.architecture}>")
