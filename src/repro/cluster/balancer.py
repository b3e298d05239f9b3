"""The load balancer: health checking, ejection, and replica routing.

The balancer is the cluster's *control plane*: a smart L7 router that
knows the shard map (:class:`~repro.cluster.hashring.HashRing`) and
tracks which owners of a key are currently trustworthy.  Two health
bits per node:

``admitted``
    The node answers connections.  Lost after ``eject_after``
    consecutive failed probes (``lb.eject`` instant), regained after
    ``readmit_after`` consecutive successes.  Writes go to every
    admitted replica of the key.

``in_sync``
    The node's shard copies are known current.  Lost together with
    admission; regained only when the cluster's repair agent finishes
    re-replicating the node's stale shards (the ``node.up`` instant).
    Reads are served only by in-sync replicas — a rejoined node must
    not answer reads from stale files.

Health probing is deterministic and out-of-band: every
``probe_interval`` the balancer asks the network whether a SYN would
reach a live listener on each node (a control-plane observation — no
connection is built and no data-LAN cost is paid, so probes never
pollute server request metrics).  Health-probe rounds ride the engine's
background scheduler, so an idle cluster's probing never extends a
run; they observe the timeline, they don't drive it.

Three routing policies order the in-sync replicas a read tries:

``round_robin``
    Rotate the starting replica per request — even load, ignores state.
``least_conn``
    Fewest balancer-tracked in-flight requests first (ties broken by
    name) — adapts to slow nodes.
``consistent``
    Always the ring's primary first — maximizes per-node cache locality
    at the cost of hot-key imbalance.

Writes ignore the policy: they go to *all* admitted replicas (the
replication contract), so only reads are policy-routed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ClusterError
from repro.io import Network
from repro.sanitizer import runtime as _sanitizer
from repro.sanitizer.race import shared
from repro.sim import Counter, Engine

from repro.cluster.hashring import HashRing
from repro.cluster.node import ClusterNode

__all__ = ["POLICIES", "BalancerConfig", "LoadBalancer"]

POLICIES = ("round_robin", "least_conn", "consistent")


@dataclass(frozen=True)
class BalancerConfig:
    """Routing + health-checking knobs.

    Attributes
    ----------
    policy:
        Read-routing policy, one of :data:`POLICIES`.
    replication:
        R — copies per key (validated against the node count by the
        cluster).
    virtual_nodes:
        Ring smoothing factor (points per physical node).
    probe_interval:
        Simulated seconds between health-probe rounds.
    eject_after:
        Consecutive failed probes before a node is ejected.
    readmit_after:
        Consecutive successful probes before an ejected node is
        readmitted (for writes; reads additionally wait for repair).
    """

    policy: str = "round_robin"
    replication: int = 2
    virtual_nodes: int = 64
    probe_interval: float = 0.02
    eject_after: int = 3
    readmit_after: int = 2

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ClusterError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        if self.replication < 1:
            raise ClusterError("replication must be >= 1")
        if self.probe_interval <= 0:
            raise ClusterError("probe_interval must be positive")
        if self.eject_after < 1 or self.readmit_after < 1:
            raise ClusterError("eject_after/readmit_after must be >= 1")


class LoadBalancer:
    """Routes keys to healthy replicas; ejects and readmits members."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        nodes: Sequence[ClusterNode],
        config: Optional[BalancerConfig] = None,
        on_readmit: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.config = config or BalancerConfig()
        if self.config.replication > len(nodes):
            raise ClusterError(
                f"replication {self.config.replication} exceeds "
                f"{len(nodes)} node(s)")
        self.nodes: Dict[str, ClusterNode] = {n.name: n for n in nodes}
        self._names = sorted(self.nodes)
        self.ring = HashRing(self._names,
                             virtual_nodes=self.config.virtual_nodes)
        #: Called with a node name when probes readmit it — the cluster
        #: hangs its repair agent here; reads resume only after the
        #: agent calls :meth:`mark_in_sync`.
        self.on_readmit = on_readmit
        self._admitted = {n: True for n in self._names}
        self._in_sync = {n: True for n in self._names}
        # Sanitizer annotations for the membership maps.  The control
        # plane (probe-driven eject/readmit, repair completion) writes
        # them relaxed — the protocol absorbs same-instant collisions
        # with routing reads by re-reading every round — so a reported
        # race always involves a *data-plane* mutation, which is the
        # bug class (PR 8's write-across-readmit).
        self._san_admitted = shared("balancer.admitted")
        self._san_in_sync = shared("balancer.in_sync")
        self._fail_streak = {n: 0 for n in self._names}
        self._ok_streak = {n: 0 for n in self._names}
        self._in_flight = {n: 0 for n in self._names}
        self._rr = 0
        reg = engine.metrics
        self.served: Dict[str, Counter] = {}
        self.failovers: Dict[str, Counter] = {}
        self.ejections: Dict[str, Counter] = {}
        for name in self._names:
            self.served[name] = Counter("lb.served")
            self.failovers[name] = Counter("lb.failovers")
            self.ejections[name] = Counter("lb.ejections")
            for counter in (self.served[name], self.failovers[name],
                            self.ejections[name]):
                reg.register(counter.name, counter, node=name)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm the recurring health-probe round (background-scheduled:
        probes observe the run, they never extend it)."""
        self.engine.schedule_background(self._probe_round,
                                        self.config.probe_interval)

    def _probe_round(self) -> None:
        cfg = self.config
        for name in self._names:
            node = self.nodes[name]
            # Reachability is what a SYN probe would learn, with no
            # connection built.
            if self.network.reachable(node.host, node.port):
                self._ok_streak[name] += 1
                self._fail_streak[name] = 0
                if (not self._admitted[name]
                        and self._ok_streak[name] >= cfg.readmit_after):
                    self._readmit(name)
            else:
                self._fail_streak[name] += 1
                self._ok_streak[name] = 0
                if (self._admitted[name]
                        and self._fail_streak[name] >= cfg.eject_after):
                    self._eject(name)
        self.engine.schedule_background(self._probe_round,
                                        cfg.probe_interval)

    def _eject(self, name: str) -> None:
        if _sanitizer.active is not None:
            self._san_admitted.write(self.engine, op="eject", relaxed=True)
            self._san_in_sync.write(self.engine, op="eject", relaxed=True)
        self._admitted[name] = False
        self._in_sync[name] = False
        self.ejections[name].add()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("lb.eject", "cluster", node=name,
                           failed_probes=self._fail_streak[name])
        # An ejected member sheds its in-flight accounting: those
        # requests are dead and must not bias least_conn forever.
        self._in_flight[name] = 0

    def _readmit(self, name: str) -> None:
        if _sanitizer.active is not None:
            self._san_admitted.write(self.engine, op="readmit", relaxed=True)
        self._admitted[name] = True
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("lb.readmit", "cluster", node=name)
        if self.on_readmit is not None:
            self.on_readmit(name)
        else:
            # Nobody to re-replicate: trust the node as-is.
            if _sanitizer.active is not None:
                self._san_in_sync.write(self.engine, op="readmit",
                                        relaxed=True)
            self._in_sync[name] = True

    def mark_in_sync(self, name: str) -> None:
        """Repair finished: the node may serve reads again."""
        if _sanitizer.active is not None:
            # Repair completion is control-plane: a read racing the
            # mark sees the node either way, both outcomes are legal.
            self._san_in_sync.write(self.engine, op="mark_in_sync",
                                    relaxed=True)
        self._in_sync[name] = True

    # -- health introspection ---------------------------------------------

    def is_admitted(self, name: str) -> bool:
        if _sanitizer.active is not None:
            self._san_admitted.read(self.engine, op="is_admitted")
        return self._admitted[name]

    def is_in_sync(self, name: str) -> bool:
        if _sanitizer.active is not None:
            self._san_in_sync.read(self.engine, op="is_in_sync")
        return self._admitted[name] and self._in_sync[name]

    def healthy_nodes(self) -> List[str]:
        if _sanitizer.active is not None:
            self._san_admitted.read(self.engine, op="healthy_nodes")
        return [n for n in self._names if self._admitted[n]]

    def is_fully_replicated(self, key: str) -> bool:
        """Every replica of ``key`` admitted and in sync — the signal
        the availability SLO watches (degraded service = any request
        whose key is under-replicated right now)."""
        return all(self.is_in_sync(n) for n in self.replicas(key))

    # -- routing -----------------------------------------------------------

    def replicas(self, key: str) -> List[str]:
        """Static placement: the R owners of ``key`` in ring order."""
        return self.ring.replicas_for(key, self.config.replication)

    def write_targets(self, key: str) -> List[str]:
        """Admitted replicas — every one of them must take the write.
        Rebuilding members are included: new writes keep them from
        falling further behind while repair drains the backlog."""
        if _sanitizer.active is not None:
            self._san_admitted.read(self.engine, op="write_targets")
        return [n for n in self.replicas(key) if self._admitted[n]]

    def read_order(self, key: str) -> List[str]:
        """In-sync replicas in the order a read should try them."""
        candidates = [n for n in self.replicas(key) if self.is_in_sync(n)]
        if len(candidates) <= 1:
            return candidates
        policy = self.config.policy
        if policy == "consistent":
            return candidates
        if policy == "round_robin":
            self._rr += 1
            k = self._rr % len(candidates)
            return candidates[k:] + candidates[:k]
        # least_conn
        return sorted(candidates, key=lambda n: (self._in_flight[n], n))

    # -- request accounting ------------------------------------------------

    def note_dispatch(self, name: str) -> None:
        self._in_flight[name] += 1

    def note_done(self, name: str) -> None:
        if self._in_flight[name] > 0:
            self._in_flight[name] -= 1

    def note_served(self, name: str) -> None:
        self.served[name].add()

    def note_failover(self, key: str, name: str, reason: str) -> None:
        """A request gave up on ``name`` and moved to the next replica."""
        self.failovers[name].add()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("failover", "cluster", node=name, key=key,
                           reason=reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        up = sum(1 for n in self._names if self._admitted[n])
        return (f"<LoadBalancer {self.config.policy} "
                f"{up}/{len(self._names)} admitted>")
