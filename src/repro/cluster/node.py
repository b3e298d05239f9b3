"""One cluster member: a full single-host stack plus a fault surface.

A :class:`ClusterNode` owns everything the single-host benchmark owns —
its own disk, file system, buffer cache, CLI runtime and
:class:`~repro.webserver.architecture.ServerHost` — sharing only the
engine and the LAN with its peers.  Every metric the node's stack
registers carries a ``node=<name>`` label, so per-node attribution
survives aggregation into the engine-wide registry.

The node also implements the lifecycle the fault injector drives
(``node.crash``/``node.partition`` specs arm against it via
:meth:`repro.faults.FaultInjector.register_node`):

``crash()``
    Stops accepting, resets the queued backlog and every in-flight
    connection (clients observe :class:`~repro.errors.ConnectionReset`)
    and blackholes the endpoint.  Storage survives — a crashed node
    that :meth:`recover`-s comes back with old (possibly stale) files,
    which is why the cluster re-replicates before trusting it again.

``partition()``
    Blackholes the endpoint only: in-flight requests complete, but no
    new connection reaches the node until :meth:`heal`.
"""

from __future__ import annotations

from typing import Optional

from repro.cli import CliRuntime
from repro.cli.profiles import get_profile
from repro.io import (
    CacheParams,
    FileMode,
    FileStream,
    FileSystem,
    FsParams,
    Network,
    StreamWriter,
)
from repro.sim import Counter, Engine
from repro.storage import Disk, DiskGeometry, DiskParams
from repro.webserver.handlers import FILE_CHUNK
from repro.webserver.server import WebServerConfig

__all__ = ["ClusterNode"]


class ClusterNode:
    """One storage/serving member of a :class:`~repro.cluster.FileCluster`."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        name: str,
        server_config: WebServerConfig,
        architecture: str = "thread",
        vm_profile: str = "sscli",
        cache_pages: int = 4096,
        fs_params: Optional[FsParams] = None,
        disk_params: Optional[DiskParams] = None,
        disk_geometry: Optional[DiskGeometry] = None,
        injector=None,
        retrier=None,
    ) -> None:
        from repro.webserver.host import SERVER_ARCHITECTURES

        self.engine = engine
        self.network = network
        self.name = name
        self.disk = Disk(
            engine,
            geometry=disk_geometry or DiskGeometry(),
            params=disk_params or DiskParams(),
            name=f"{name}.disk",
            injector=injector,
        )
        self.fs = FileSystem(
            engine,
            self.disk,
            params=fs_params or FsParams(),
            cache_params=CacheParams(capacity_pages=cache_pages),
        )
        profile = get_profile(vm_profile)
        self.runtime = CliRuntime(
            engine, jit_params=profile.jit, interp_params=profile.interp
        )
        server_cls = SERVER_ARCHITECTURES[architecture]
        self.server = server_cls(
            engine, self.runtime, self.fs, network, server_config,
            retrier=retrier, labels={"node": name},
        )
        self.is_up = True
        self.is_reachable = True
        #: Fraction of the last repair pass completed (1.0 = in sync).
        self.rebuild_progress = 1.0
        self.crashes = Counter("cluster.node.crashes")
        self.resets = Counter("cluster.node.conn_resets")
        reg = engine.metrics
        reg.register(self.crashes.name, self.crashes, node=name)
        reg.register(self.resets.name, self.resets, node=name)
        reg.gauge("cluster.rebuild_progress",
                  lambda: self.rebuild_progress, node=name)

    # -- convenience -------------------------------------------------------

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        return self.server.config.port

    def start(self):
        """Generator: load the handler assembly and begin listening."""
        yield from self.server.start()

    def key_path(self, key: str) -> str:
        """Where ``key`` lives on this node's file system."""
        return self.server.resolve_path(key)

    def stored_size(self, key: str) -> Optional[int]:
        """Bytes held for ``key``, or ``None`` if the node has no copy."""
        path = self.key_path(key)
        return self.fs.size_of(path) if self.fs.exists(path) else None

    def store_local(self, key: str, nbytes: int):
        """Generator: durably write ``nbytes`` for ``key`` straight into
        the local file system — the repair agent's path, paying the same
        stream/sync costs as a ``doPost`` without the HTTP hop."""
        path = self.key_path(key)
        stream = yield from FileStream.open(self.fs, path, FileMode.CREATE)
        writer = StreamWriter(stream, buffer_size=FILE_CHUNK)
        yield from writer.write(nbytes)
        yield from writer.flush()
        yield from self.fs.sync(stream.handle)
        yield from stream.close()

    # -- fault lifecycle ---------------------------------------------------

    def crash(self, reason: str = "") -> None:
        """Fail-stop: stop accepting, reset every connection the node
        holds, and make the endpoint unreachable.  Idempotent."""
        if not self.is_up:
            return
        self.is_up = False
        self.is_reachable = False
        self.network.block(self.host, self.port)
        self.server.listener.stop()
        torn = 0
        for sock in self.server.listener.drain_backlog():
            sock.reset()
            torn += 1
        for conn in list(self.server.handlers.connections.values()):
            conn.socket.reset()
            torn += 1
        self.crashes.add()
        self.resets.add(torn)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("node.down", "cluster", node=self.name,
                           kind="crash", reset_connections=torn,
                           reason=reason)

    def recover(self) -> None:
        """Repair a crashed node: the endpoint reopens with storage
        intact.  The balancer readmits it for writes on the next
        successful probes; reads wait until re-replication marks it in
        sync (the cluster emits ``node.up`` there)."""
        if self.is_up:
            return
        self.is_up = True
        self.is_reachable = True
        self.network.unblock(self.host, self.port)
        self.server.listener.start()

    def partition(self, reason: str = "") -> None:
        """Cut the node off the LAN without killing it: established
        connections keep flowing, new ones fail like a dead host."""
        if not self.is_up or not self.is_reachable:
            return
        self.is_reachable = False
        self.network.block(self.host, self.port)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("node.down", "cluster", node=self.name,
                           kind="partition", reason=reason)

    def heal(self) -> None:
        """Undo :meth:`partition` (no-op on a crashed node — recovery
        owns unblocking there)."""
        if not self.is_up or self.is_reachable:
            return
        self.is_reachable = True
        self.network.unblock(self.host, self.port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("up" if self.is_up and self.is_reachable
                 else "partitioned" if self.is_up else "down")
        return f"<ClusterNode {self.name} {state}>"
