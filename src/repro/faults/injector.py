"""Deterministic fault injector.

The :class:`FaultInjector` is the runtime half of :mod:`repro.faults`:
it binds a pure-data :class:`~repro.faults.plan.FaultPlan` to one
engine, draws per-operation variates from named
:class:`~repro.rng.SeededStreams` (one stream per spec, so rules never
perturb each other), and answers the question every instrumented layer
asks on its hot path: *does a fault fire here, now?*

Layers pull rather than the injector pushing: the disk consults
:meth:`disk_fault` as the arm services each request, sockets consult
:meth:`net_fault` per transfer.  The only pushed faults are whole-disk
failures (``disk.fail``), which the injector schedules as daemon
processes against simulated time when a disk is registered.

Every firing is appended to :attr:`injections` (the deterministic
schedule the contract tests compare byte-for-byte), counted in the
``faults.injected`` counter, and emitted as a ``fault.injected``
instant through ``engine.tracer`` with the owning layer's category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultSpec
from repro.rng import SeededStreams
from repro.sim import Counter, Engine

__all__ = ["InjectionRecord", "FaultInjector"]

#: Tracer category per fault family — keeps per-layer attribution in
#: the obs report (`fault.*` instants land in the layer they hit).
_KIND_CATEGORY = {
    "disk.media_error": "storage",
    "disk.slow": "storage",
    "disk.stall": "storage",
    "disk.fail": "storage",
    "net.drop": "net",
    "node.crash": "cluster",
    "node.partition": "cluster",
}

_DISK_OP_KINDS = ("disk.media_error", "disk.slow", "disk.stall")

_NODE_KINDS = ("node.crash", "node.partition")


@dataclass(frozen=True)
class InjectionRecord:
    """One fault firing (an entry of the deterministic schedule)."""

    time: float
    kind: str
    target: str
    spec_index: int
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "target": self.target,
            "spec": self.spec_index,
            "detail": dict(sorted(self.detail.items())),
        }


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against one engine's timeline."""

    def __init__(self, engine: Engine, plan: Optional[FaultPlan] = None) -> None:
        self.engine = engine
        self.plan = plan or FaultPlan()
        self._streams = SeededStreams(self.plan.seed).fork("faults")
        self._hits: Dict[int, int] = {}
        self.injections: List[InjectionRecord] = []
        self.injected = Counter("faults.injected")
        engine.metrics.register(self.injected.name, self.injected)

    # -- bookkeeping -----------------------------------------------------------

    def _stream(self, index: int, spec: FaultSpec):
        return self._streams.get(spec.stream_name(index))

    def _budget_left(self, index: int, spec: FaultSpec) -> bool:
        if spec.max_hits is None:
            return True
        return self._hits.get(index, 0) < spec.max_hits

    def _fire(self, index: int, spec: FaultSpec, **detail: Any) -> None:
        self._hits[index] = self._hits.get(index, 0) + 1
        now = self.engine.now
        self.injections.append(InjectionRecord(
            time=now, kind=spec.kind, target=spec.target,
            spec_index=index, detail=detail,
        ))
        self.injected.add()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("fault.injected", _KIND_CATEGORY[spec.kind],
                           kind=spec.kind, target=spec.target,
                           spec=index, **detail)

    def schedule_dump(self) -> List[dict]:
        """The injection log as plain dicts (byte-comparable via JSON)."""
        return [r.to_dict() for r in self.injections]

    # -- disk faults -----------------------------------------------------------

    def register_disk(self, disk) -> None:
        """Arm ``disk.fail`` rules targeting ``disk.name``.

        Each matching rule spawns a daemon that fails the device at the
        rule's ``start``; if the rule has an ``end``, the disk is
        repaired there (modeling a drive swap), which arrays use to
        kick off a rebuild.
        """
        for index, spec in self.plan.for_kind("disk.fail"):
            if not spec.matches_target(disk.name) or not self._budget_left(index, spec):
                continue
            self.engine.process(self._fail_disk_at(index, spec, disk),
                                name=f"fault.disk_fail.{disk.name}", daemon=True)

    def _fail_disk_at(self, index: int, spec: FaultSpec, disk):
        if spec.start > self.engine.now:
            yield spec.start - self.engine.now
        if disk.failed or not self._budget_left(index, spec):
            return
        disk.fail_disk(reason=f"injected by fault spec #{index}")
        self._fire(index, spec, disk=disk.name, action="fail")
        if spec.end is not None:
            yield spec.end - self.engine.now
            if disk.failed:
                disk.repair()
                self._fire(index, spec, disk=disk.name, action="repair")

    # -- node faults -----------------------------------------------------------

    def register_node(self, node) -> None:
        """Arm ``node.crash``/``node.partition`` rules targeting
        ``node.name``.

        Mirrors :meth:`register_disk`: each matching rule spawns a
        daemon that fires at the rule's ``start`` and — when ``end``
        is set — recovers the node (``node.crash``) or heals the
        partition (``node.partition``) there.  ``node`` is any object
        with the :class:`repro.cluster.ClusterNode` lifecycle surface
        (``name``, ``is_up``, ``is_reachable``, ``crash``/``recover``/
        ``partition``/``heal``).
        """
        for index, spec in self.plan.for_kind(*_NODE_KINDS):
            if not spec.matches_target(node.name) or not self._budget_left(index, spec):
                continue
            self.engine.process(self._node_fault_at(index, spec, node),
                                name=f"fault.{spec.kind}.{node.name}",
                                daemon=True)

    def _node_fault_at(self, index: int, spec: FaultSpec, node):
        if spec.start > self.engine.now:
            yield spec.start - self.engine.now
        if not self._budget_left(index, spec):
            return
        if spec.kind == "node.crash":
            if not node.is_up:
                return
            node.crash(reason=f"injected by fault spec #{index}")
            self._fire(index, spec, node=node.name, action="crash")
            if spec.end is not None:
                yield spec.end - self.engine.now
                if not node.is_up:
                    node.recover()
                    self._fire(index, spec, node=node.name, action="recover")
        else:  # node.partition
            if not (node.is_up and node.is_reachable):
                return
            node.partition(reason=f"injected by fault spec #{index}")
            self._fire(index, spec, node=node.name, action="partition")
            if spec.end is not None:
                yield spec.end - self.engine.now
                if node.is_up and not node.is_reachable:
                    node.heal()
                    self._fire(index, spec, node=node.name, action="heal")

    def disk_fault(self, disk_name: str, lba: int,
                   nblocks: int) -> Optional[Tuple[str, FaultSpec]]:
        """Per-request fault decision for a disk transfer.

        Returns ``(kind, spec)`` for the first matching rule that fires,
        or ``None``.  Called by the disk arm once per serviced request.
        """
        now = self.engine.now
        for index, spec in self.plan.for_kind(*_DISK_OP_KINDS):
            if not spec.matches_target(disk_name):
                continue
            if not spec.active_at(now) or not spec.matches_lba(lba, nblocks):
                continue
            if not self._budget_left(index, spec):
                continue
            if float(self._stream(index, spec).random()) >= spec.probability:
                continue
            self._fire(index, spec, disk=disk_name, lba=lba, nblocks=nblocks)
            return spec.kind, spec
        return None

    # -- network faults --------------------------------------------------------

    def net_fault(self, target: str, op: str) -> bool:
        """Per-transfer connection-drop decision.

        ``target`` scopes rules (e.g. ``"server"``/``"client"``), ``op``
        labels the operation (``send``/``receive``) in the record.
        """
        now = self.engine.now
        for index, spec in self.plan.for_kind("net.drop"):
            if not spec.matches_target(target) or not spec.active_at(now):
                continue
            if not self._budget_left(index, spec):
                continue
            if float(self._stream(index, spec).random()) >= spec.probability:
                continue
            self._fire(index, spec, scope=target, op=op)
            return True
        return False
