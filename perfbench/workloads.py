"""The four benchmark workloads.

Each workload turns a seed into simulated inputs
(:meth:`Workload.inputs`); a rep (:meth:`Workload.rep`) builds a fresh
engine and stack and runs it, returning the simulated outcome as plain
data.  Nothing built by one rep is reused by the next.
:meth:`Workload.violations` names the invariants an outcome breaks on
any seed; the digest of the whole outcome is checked separately,
against ``digests.json``, on the seeds recorded there.

Why these four:

* ``qcrd_disks`` — the Fig 4 disk sweep; host time goes to ``storage``
  (disk arm loop, stripe split, one request per fragment) and ``sim``,
  with no ``cli``, ``webserver`` or buffer cache.
* ``dmine_hot`` — the paper's read path: a Dmine trace replayed through
  the CIL dispatch loop, ``FileStream``, buffer cache and adaptive
  prefetch; the second pass is all cache hits.  No ``webserver``,
  ``cluster`` or striping.
* ``web_thread`` — the thread-per-connection server under 64 closed-loop
  clients (90% GET, 10% synced POST); its accept path scans every
  worker thread, so its cost grows with connections.
* ``cluster_sanitize`` — a 3-node, R=2 cluster losing ``node-1`` mid-run
  under open Poisson arrivals, with the race detector on: the only
  workload where ``cluster``, ``faults`` and ``sanitizer`` work.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.cluster import (
    ClusterConfig,
    ClusterWorkload,
    ClusterWorkloadConfig,
    FileCluster,
)
from repro.faults import FaultPlan, FaultSpec
from repro.model import build_qcrd, disk_speedup_study
from repro import sanitizer
from repro.traces import ReplayConfig, TraceReplayer, generate_dmine
from repro.units import MiB
from repro.webserver import HostConfig, WebServerHost
from repro.webserver.workload import WorkloadConfig, WorkloadGenerator

__all__ = ["WORKLOADS", "Workload"]


def _jitter(seed: int, salt: str, width: float) -> float:
    """A seeded factor in ``[1 - width/2, 1 + width/2]``."""
    return 1.0 + width * (random.Random(f"{salt}:{seed}").random() - 0.5)


class Workload:
    """One named set of seeded inputs and how to run them."""

    name = ""

    def inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def stack(self, inputs) -> Any:
        """A fresh engine and stack (``None`` where the run builds its own)."""
        return None

    def run(self, stack, inputs) -> Dict[str, Any]:
        raise NotImplementedError

    def rep(self, inputs) -> Dict[str, Any]:
        """One measured repetition: build a fresh stack and run it."""
        return self.run(self.stack(inputs), inputs)

    def violations(self, outcome: Dict[str, Any]) -> List[str]:
        """Invariants ``outcome`` breaks, on any seed."""
        return []


class QcrdDisks(Workload):
    """Fig 4: QCRD speedup over 2..32 striped scratch disks per node."""

    name = "qcrd_disks"

    def inputs(self, seed: int):
        # Program durations at a tenth of the paper's, jittered by the
        # seed within +-1% so the work per seed stays the same size.
        scale = _jitter(seed, self.name, 0.02)
        return build_qcrd(12.0 * scale, 5.5 * scale)

    def run(self, stack, app) -> Dict[str, Any]:
        speedups = disk_speedup_study(app)
        return {"speedup": {str(n): s for n, s in sorted(speedups.items())}}


class DmineHot(Workload):
    """A Dmine replay at 10x the ext_prefetch dataset, scanned twice;
    the cache holds the whole dataset, so the second pass only hits."""

    name = "dmine_hot"

    def inputs(self, seed: int):
        gap = 1e-4 * _jitter(seed, self.name, 0.2)
        return generate_dmine(dataset_size=160 * MiB, passes=2,
                              compute_gap=gap)

    def stack(self, inputs):
        return TraceReplayer(ReplayConfig(
            warmup=False, prefetch_policy="adaptive", prefetch_window=32,
            file_size=640 * MiB, cache_pages=65536,  # 256 MiB holds it all
        ))

    def run(self, replayer, inputs) -> Dict[str, Any]:
        header, records = inputs
        result = replayer.replay(header, records, "dmine-x10")
        return {
            "records": len(records),
            "total_time": result.total_time,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
        }


class WebThread(Workload):
    """Thread-per-connection server, 64 closed-loop clients."""

    name = "web_thread"
    clients = 64
    requests_per_client = 24

    def inputs(self, seed: int):
        return WorkloadConfig(
            num_clients=self.clients,
            requests_per_client=self.requests_per_client,
            get_fraction=0.9, mean_think_time=1e-3, seed=seed,
        )

    def stack(self, config):
        return WebServerHost(HostConfig(architecture="thread"))

    def run(self, host, config) -> Dict[str, Any]:
        result = WorkloadGenerator(host, config).run()
        return {
            "requests": result.count,
            "errors": result.error_count,
            "aborted": result.aborted,
            "duration": result.duration,
        }

    def violations(self, outcome) -> List[str]:
        if outcome["errors"]:
            return [f"{outcome['errors']} request(s) answered with an error"]
        return []


class ClusterSanitize(Workload):
    """3 nodes, R=2, node-1 crashes mid-run, race detector on."""

    name = "cluster_sanitize"
    requests = 300
    arrival_rate = 500.0
    crash_window = (0.20, 0.32)

    def inputs(self, seed: int):
        return seed

    def stack(self, seed):
        plan = FaultPlan(seed=seed, specs=(
            FaultSpec(kind="node.crash", target="node-1",
                      start=self.crash_window[0], end=self.crash_window[1]),
        ))
        return FileCluster(ClusterConfig(
            nodes=3, replication=2, policy="round_robin", num_keys=24,
            seed=seed, fault_plan=plan,
        ))

    def rep(self, seed) -> Dict[str, Any]:
        # The race detector watches the whole rep, bootstrap included.
        with sanitizer.sanitized() as detector:
            outcome = self.run(self.stack(seed), seed)
        outcome["races"] = detector.summary()["races"]
        return outcome

    def run(self, cluster, seed) -> Dict[str, Any]:
        result = ClusterWorkload(cluster, ClusterWorkloadConfig(
            requests=self.requests, arrival_rate=self.arrival_rate,
            get_fraction=0.7, seed=seed,
        )).run()
        return {
            "completed": result.completed,
            "aborted": result.aborted,
            "duration": result.duration,
            "failovers": result.failovers,
            "retries": result.retries,
            "rebuilt_keys": result.rebuilt_keys,
            "lost_acked_writes":
                cluster.verify_durability()["lost_acked_writes"],
        }

    def violations(self, outcome) -> List[str]:
        found = []
        if outcome["lost_acked_writes"]:
            found.append(f"{outcome['lost_acked_writes']} acknowledged "
                         "write(s) lost")
        if outcome["races"]:
            found.append(f"{outcome['races']} race(s) reported")
        return found


WORKLOADS = {w.name: w for w in (QcrdDisks(), DmineHot(), WebThread(),
                                 ClusterSanitize())}
