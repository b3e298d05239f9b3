"""A sharded, replicated file-service cluster that survives crashes.

This package scales the single-host web-server stack out to N
:class:`~repro.cluster.node.ClusterNode` members behind a
:class:`~repro.cluster.balancer.LoadBalancer`:

* the namespace is sharded by consistent hash
  (:mod:`~repro.cluster.hashring`) with R-way replication;
* writes replicate to every admitted replica before acknowledging
  (:mod:`~repro.cluster.client`), recorded in the
  :class:`~repro.cluster.replication.ReplicationLog`;
* reads fail over across in-sync replicas under one of three routing
  policies;
* deterministic health probes eject crashed or partitioned members
  and readmit repaired ones, at which point the cluster re-replicates
  their stale shards before trusting them with reads again
  (:mod:`~repro.cluster.cluster`);
* a Zipf-popularity open-arrival fleet, the repository's one Poisson
  generator, drives the whole thing (:mod:`~repro.cluster.workload`).

The headline invariant — no acknowledged write is ever lost — is
checkable on any cluster via
:meth:`~repro.cluster.cluster.FileCluster.verify_durability`.
See ``docs/cluster.md`` for topology and the failover lifecycle.
"""

from repro.cluster.balancer import BalancerConfig, LoadBalancer, POLICIES
from repro.cluster.client import ClusterClient
from repro.cluster.cluster import ClusterConfig, FileCluster
from repro.cluster.hashring import HashRing, stable_hash
from repro.cluster.node import ClusterNode
from repro.cluster.replication import ReplicationLog, base_size
from repro.cluster.workload import (
    ClusterWorkload,
    ClusterWorkloadConfig,
    ClusterWorkloadResult,
)

__all__ = [
    "POLICIES",
    "BalancerConfig",
    "LoadBalancer",
    "ClusterClient",
    "ClusterConfig",
    "FileCluster",
    "HashRing",
    "stable_hash",
    "ClusterNode",
    "ReplicationLog",
    "base_size",
    "ClusterWorkload",
    "ClusterWorkloadConfig",
    "ClusterWorkloadResult",
]
