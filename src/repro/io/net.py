"""Simulated TCP: listener, sockets, and network streams.

The micro-benchmark's server "starts listening on port 5050 using
TcpListener class ... accepts the connection by using AcceptSocket(),
which returns a socket descriptor"; this module provides that surface
on the event engine.

Model: each established connection gets a dedicated duplex pair of
bandwidth/latency channels (a switched LAN — flows do not contend on
the wire, they contend at the endpoints).  Data is tracked as byte
counts, chunked by the sender's writes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.errors import ConnectionReset, SimulationError
from repro.sanitizer import runtime as _sanitizer
from repro.sanitizer.race import shared
from repro.sim import Channel, Engine, Store
from repro.units import MB

__all__ = ["Network", "TcpListener", "Socket", "NetworkStream"]

_EOF = object()
_RESET = object()
_socket_ids = itertools.count(1)


class Network:
    """Address registry + link parameters for one simulated LAN.

    Defaults model 100 Mb/s switched Ethernet with 100 µs one-way
    latency — the paper-era lab network.

    ``injector`` (a :class:`repro.faults.FaultInjector`) arms
    ``net.drop`` fault rules: each socket send consults it, and a
    firing tears the connection down — both endpoints observe
    :class:`~repro.errors.ConnectionReset`.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth: float = 12.5 * MB,  # 100 Mb/s in bytes/s
        latency: float = 100e-6,
        connect_overhead: float = 50e-6,
        injector=None,
        syn_timeout: float = 50e-3,
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0 or connect_overhead < 0:
            raise SimulationError("latency/connect overhead must be >= 0")
        if syn_timeout <= 0:
            raise SimulationError(f"syn_timeout must be positive, got {syn_timeout}")
        self.engine = engine
        self.bandwidth = bandwidth
        self.latency = float(latency)
        self.connect_overhead = float(connect_overhead)
        self.injector = injector
        #: Time a connect to a blocked (unreachable) endpoint burns
        #: before giving up — an aggressive SYN retransmission budget.
        self.syn_timeout = float(syn_timeout)
        self._listeners: Dict[Tuple[str, int], "TcpListener"] = {}
        self._blocked: set = set()

    def _register(self, listener: "TcpListener") -> None:
        key = (listener.host, listener.port)
        if key in self._listeners:
            raise SimulationError(f"address {key} already in use")
        self._listeners[key] = listener

    def _unregister(self, listener: "TcpListener") -> None:
        self._listeners.pop((listener.host, listener.port), None)

    # -- reachability (cluster fault surface) ------------------------------

    def block(self, host: str, port: int) -> None:
        """Make an endpoint unreachable: new connects burn the SYN
        budget and fail with :class:`~repro.errors.ConnectionReset`
        (retryable).  Established connections are unaffected — tearing
        those down is the caller's decision (a crash does, a partition
        does not)."""
        self._blocked.add((host, port))

    def unblock(self, host: str, port: int) -> None:
        """Undo :meth:`block` for an endpoint."""
        self._blocked.discard((host, port))

    def reachable(self, host: str, port: int) -> bool:
        """Would a SYN reach a live listener right now?  (What a
        health probe learns without paying a full handshake.)"""
        if (host, port) in self._blocked:
            return False
        listener = self._listeners.get((host, port))
        if listener is None:
            return False
        if _sanitizer.active is not None:
            # Probes race with crash/restart by design: the balancer's
            # streak thresholds absorb a stale answer, so the read is
            # relaxed (it must not count as a data conflict).
            listener._san_state.read(self.engine, op="probe", relaxed=True)
        return listener._listening

    def connect(self, host: str, port: int):
        """Generator: open a connection to a listening endpoint.

        Pays the three-way-handshake cost (one round trip + software
        overhead) and returns the client-side :class:`Socket`.
        Connecting to a :meth:`block`-ed endpoint burns
        :attr:`syn_timeout` and raises
        :class:`~repro.errors.ConnectionReset` — retryable, unlike the
        hard error for an address nothing ever listened on.
        """
        key = (host, port)
        if key in self._blocked:
            yield self.syn_timeout
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.instant("net.unreachable", "net", host=host, port=port)
            raise ConnectionReset(f"host unreachable: no route to {key}")
        listener = self._listeners.get(key)
        if _sanitizer.active is not None and listener is not None:
            # A connect colliding with a same-instant stop/start is
            # resolved by the retry policy (the client sees a refused/
            # reset and tries again) — tolerated, hence relaxed.
            listener._san_state.read(self.engine, op="connect", relaxed=True)
        if listener is None or not listener._listening:
            raise SimulationError(f"connection refused: no listener at {key}")
        yield 2 * self.latency + self.connect_overhead
        if (listener.backlog_limit is not None
                and listener.pending >= listener.backlog_limit):
            # SYN queue overflow: the handshake is dropped and the
            # client sees a reset (retryable under the default policy).
            listener.refused += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.instant("net.refused", "net", host=host, port=port,
                               pending=listener.pending)
            raise ConnectionReset(
                f"connection refused: accept backlog full at {key}"
            )
        client, server = Socket.pair(self)
        client.fault_scope = "client"
        server.fault_scope = "server"
        listener._backlog.put(server)
        return client


class TcpListener:
    """Server-side listening endpoint (``TcpListener`` in the paper)."""

    def __init__(self, network: Network, host: str = "localhost",
                 port: int = 5050, backlog_limit: Optional[int] = None) -> None:
        if backlog_limit is not None and backlog_limit < 1:
            raise SimulationError(
                f"backlog_limit must be >= 1 or None, got {backlog_limit}")
        self.network = network
        self.host = host
        self.port = port
        self._listening = False
        self.backlog_limit = backlog_limit
        self.refused = 0
        self._ever_started = False
        self._backlog: Store = Store(network.engine, name=f"backlog:{host}:{port}")
        #: Sanitizer annotation for the listener's lifecycle state.
        #: ``start``/``stop`` write it; remote control-plane observers
        #: (probes, connects, accept re-entry) read it relaxed, while
        #: the public :attr:`listening` property reads it plainly — so
        #: server code that snapshots the flag across a wait shows up
        #: as a data conflict with a same-instant crash.
        self._san_state = shared(f"listener:{host}:{port}")

    @property
    def listening(self) -> bool:
        """True while the listener accepts new connections."""
        if _sanitizer.active is not None:
            self._san_state.read(self.network.engine, op="listening")
        return self._listening

    def start(self) -> None:
        """Begin accepting connections (registers the address)."""
        if self._listening:
            return
        self.network._register(self)
        if _sanitizer.active is not None:
            self._san_state.write(self.network.engine, op="start")
        self._listening = True
        self._ever_started = True

    def stop(self) -> None:
        """Stop accepting; queued connections remain acceptable."""
        if not self._listening:
            return
        self.network._unregister(self)
        if _sanitizer.active is not None:
            self._san_state.write(self.network.engine, op="stop")
        self._listening = False

    @property
    def pending(self) -> int:
        """Connections waiting in the backlog."""
        return self._backlog.count

    def drain_backlog(self) -> list:
        """Remove and return the queued (not yet accepted) server-side
        sockets.  A crashing node drains its backlog and tears each
        connection down so queued clients observe a reset instead of
        hanging; accept loops blocked on an empty backlog stay parked
        and resume when the listener starts taking connections again."""
        return self._backlog.drain()

    def accept_socket(self):
        """Generator: block until a connection arrives; returns the
        server-side :class:`Socket` (the paper's ``AcceptSocket()``).

        A *stopped* listener parks here rather than erroring: a crashed
        node's accept loop may re-enter between the stop and the
        restart (e.g. it was already holding a connection delivered at
        the crash timestamp), and it must survive to drain the backlog
        once the listener comes back — only accepting on a listener
        that was never started is a programming error."""
        if not self._ever_started:
            raise SimulationError("accept on a listener that was never started")
        if _sanitizer.active is not None:
            # Accept re-entry on a stopped listener is the *fixed*
            # behavior (park, don't die) — observing the state here is
            # tolerated by construction.
            self._san_state.read(self.network.engine, op="accept",
                                 relaxed=True)
        sock = yield self._backlog.get()
        return sock


class Socket:
    """One endpoint of an established connection."""

    def __init__(self, network: Network, outgoing: Channel, incoming: Store) -> None:
        self.socket_id = next(_socket_ids)
        self.network = network
        self._outgoing = outgoing
        self._incoming = incoming
        self._pending = 0  # bytes received but not yet consumed
        self._eof = False
        self._closed = False
        self._reset = False
        # Scope label matched against net.drop fault-rule targets
        # ("client"/"server" for connections made via Network.connect).
        self.fault_scope = "conn"
        self.bytes_sent = 0
        self.bytes_received = 0
        self._peer: Optional["Socket"] = None
        self._deliver_to: Optional[Store] = None  # wired by pair()
        # Application payloads (e.g. HTTP text) delivered alongside the
        # byte counts, in arrival order.  The simulation tracks data as
        # sizes; payloads let endpoints parse real message contents.
        self._rx_payloads: list = []

    @classmethod
    def pair(cls, network: Network) -> Tuple["Socket", "Socket"]:
        """Create a connected duplex socket pair."""
        eng = network.engine
        a_to_b = Channel(eng, network.bandwidth, network.latency, name="a->b")
        b_to_a = Channel(eng, network.bandwidth, network.latency, name="b->a")
        a_in: Store = Store(eng, name="a.in")
        b_in: Store = Store(eng, name="b.in")
        a = cls(network, outgoing=a_to_b, incoming=a_in)
        b = cls(network, outgoing=b_to_a, incoming=b_in)
        a._peer, b._peer = b, a

        # Wire each channel's deliveries into the peer's inbox: the
        # sender process pushes after its transfer completes (below),
        # so no extra machinery is needed here.
        a._deliver_to = b_in
        b._deliver_to = a_in
        return a, b

    def send(self, nbytes: int, payload=None):
        """Generator: transmit ``nbytes`` to the peer.  Occupies this
        direction's channel for the transfer; the peer can ``receive``
        the bytes once they arrive.  ``payload`` (any object, e.g. the
        HTTP message text) rides along and becomes available to the
        peer's :meth:`take_payloads` once the bytes have arrived."""
        if self._reset:
            raise ConnectionReset(f"send on reset socket {self.socket_id}")
        if self._closed:
            raise SimulationError("send on closed socket")
        if nbytes < 0:
            raise SimulationError(f"negative send: {nbytes}")
        injector = self.network.injector
        if injector is not None and injector.net_fault(self.fault_scope, "send"):
            self._tear_down()
            raise ConnectionReset(
                f"connection reset by fault injection (socket {self.socket_id})"
            )
        if nbytes == 0:
            yield 0.0
            return 0
        yield from self._outgoing.send(nbytes)
        if self._reset:
            # The connection died while the bytes were in flight.
            raise ConnectionReset(
                f"connection reset during send (socket {self.socket_id})"
            )
        self._deliver_to.put((nbytes, payload))
        self.bytes_sent += nbytes
        return nbytes

    def receive(self, max_bytes: int):
        """Generator: deliver up to ``max_bytes``.  Blocks until at
        least one chunk (or EOF) is available; returns 0 at EOF."""
        if max_bytes < 1:
            raise SimulationError(f"receive needs max_bytes >= 1, got {max_bytes}")
        if self._reset:
            raise ConnectionReset(f"receive on reset socket {self.socket_id}")
        if self._pending == 0 and not self._eof:
            chunk = yield self._incoming.get()
            self._ingest(chunk)
        # Drain any further chunks that already arrived (non-blocking).
        while not self._eof and not self._reset and self._incoming.count > 0:
            ev = self._incoming.get()
            self._ingest(ev.value)  # Store.get on a non-empty store succeeds now
        if self._reset:
            raise ConnectionReset(
                f"connection reset by peer (socket {self.socket_id})"
            )
        take = min(self._pending, max_bytes)
        self._pending -= take
        self.bytes_received += take
        return take

    def reset(self) -> None:
        """Forcibly reset the connection: both endpoints observe
        :class:`~repro.errors.ConnectionReset`.  What a node crash
        does to every connection the node holds."""
        self._tear_down()

    def _tear_down(self) -> None:
        """Reset both endpoints and wake any blocked receivers."""
        for sock in (self, self._peer):
            if sock is None or sock._reset:
                continue
            sock._reset = True
            # A receiver blocked on its inbox needs a wake-up to
            # observe the reset.
            sock._incoming.put(_RESET)

    def _ingest(self, chunk) -> None:
        if chunk is _RESET:
            self._reset = True
            return
        if chunk is _EOF:
            self._eof = True
            return
        nbytes, payload = chunk
        self._pending += nbytes
        if payload is not None:
            self._rx_payloads.append(payload)

    def take_payloads(self) -> list:
        """Application payloads received so far (clears the buffer)."""
        out = self._rx_payloads
        self._rx_payloads = []
        return out

    def close(self):
        """Generator: half-close — signal EOF to the peer."""
        if self._closed or self._reset:
            # Closing a torn-down connection is a no-op.
            yield 0.0
            return
        self._closed = True
        yield self.network.latency
        self._deliver_to.put(_EOF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Socket {self.socket_id} sent={self.bytes_sent} "
            f"recv={self.bytes_received}{' closed' if self._closed else ''}>"
        )


class NetworkStream:
    """Thin stream facade over a :class:`Socket` (the C# class the
    paper's ``StartListen()`` builds around the accepted socket)."""

    def __init__(self, socket: Socket) -> None:
        self.socket = socket

    def read(self, max_bytes: int):
        """Generator: receive up to ``max_bytes`` (0 at EOF)."""
        got = yield from self.socket.receive(max_bytes)
        return got

    def write(self, nbytes: int):
        """Generator: send ``nbytes``."""
        sent = yield from self.socket.send(nbytes)
        return sent

    def close(self):
        """Generator: close the underlying socket."""
        yield from self.socket.close()
