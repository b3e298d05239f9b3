"""The server-architecture layer: one protocol, two concurrency designs.

:class:`ServerHost` is the contract every server architecture
implements.  It owns everything that is *not* a concurrency decision:

* the listening endpoint (``TcpListener`` on the configured
  host/port, with the optional bounded accept backlog);
* the CIL handler assembly (``StartListen`` → ``DoGet``/``DoPost``/
  ``SendError``) and the ``Http.*`` intrinsics backing it
  (:class:`~repro.webserver.handlers.RequestHandlers`);
* the protocol-level degradation semantics — load shedding
  (``max_concurrency`` → immediate 503), deadline downgrade
  (``request_deadline`` → late success becomes 503), and accountable
  connection-reset handling — which MUST behave identically across
  architectures: a client cannot tell the designs apart by status
  codes, only by latency and the server's resource footprint;
* metrics (:class:`~repro.webserver.metrics.ServerMetrics` plus the
  ``server.*`` counters) and spans, all labeled/tagged with the
  architecture name so reports attribute results to the design that
  produced them.

What a subclass decides is *scheduling only*, via two hooks:

``_begin_accepting()``
    Called once from :meth:`start` after the handler assembly is
    loaded and the listener is live.  Starts whatever machinery pulls
    connections off the accept queue.

``_dispatch(socket)``
    Called (or inlined) per accepted connection: decide how the
    CIL handler chain runs — a managed thread per connection
    (:class:`~repro.webserver.server.ThreadPerConnectionServer`) or a
    task on a single-process event loop
    (:class:`~repro.webserver.eventloop.EventLoopServer`).

Two read-only properties make the architecture a measurable axis.
Both are read on every accept, so both must be O(1) — a counter kept
at spawn and exit (the threaded server's ``_live_workers``, the event
loop's ``_in_flight``), never a scan over past workers:

``live_workers``
    In-flight connections being served right now (worker threads or
    loop tasks) — the quantity ``max_concurrency`` sheds against.

``live_processes``
    Simulated processes the server currently holds — the **memory
    proxy** the ``ext_arch`` experiment reports.  Thread-per-
    connection pays one process per in-flight connection (plus the
    acceptor); the event loop holds exactly one, no matter how many
    connections are open.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cli import AssemblyBuilder, CliRuntime
from repro.errors import ConnectionReset, ReproError
from repro.io import FileSystem, Network, TcpListener
from repro.rng import SeededStreams
from repro.sim import Counter, Engine
from repro.webserver.handlers import RequestHandlers
from repro.webserver.httpmsg import HttpResponse
from repro.webserver.metrics import ServerMetrics

__all__ = ["ServerHost"]


class ServerHost:
    """Abstract base: one server instance bound to a runtime, file
    system and network.  Subclasses provide the concurrency design;
    see the module docstring for the contract.
    """

    #: Architecture tag carried by metrics labels and span attributes;
    #: also the key under :data:`repro.webserver.host.SERVER_ARCHITECTURES`.
    ARCHITECTURE = "abstract"

    def __init__(
        self,
        engine: Engine,
        runtime: CliRuntime,
        fs: FileSystem,
        network: Network,
        config=None,
        retrier=None,
        labels=None,
    ) -> None:
        from repro.webserver.server import WebServerConfig, build_handler_methods

        self.engine = engine
        self.runtime = runtime
        self.fs = fs
        self.network = network
        self.config = config or WebServerConfig()
        # Optional repro.faults.Retrier: GET file opens/reads run under
        # its policy so transient storage faults do not kill workers.
        self.retrier = retrier
        # Extra metric labels (e.g. node="node-0" when this server is
        # one member of a repro.cluster) merged into every registration
        # alongside server=/architecture=.
        self.labels = dict(labels or {})
        self.metrics = ServerMetrics()
        self.handlers = RequestHandlers(self)
        self.listener = TcpListener(network, self.config.host, self.config.port,
                                    backlog_limit=self.config.accept_backlog)
        #: Connections dispatched into the handler chain (sheds excluded).
        self.connections_accepted = Counter("server.connections")
        self.shed = Counter("server.shed")
        self.deadline_exceeded = Counter("server.deadline_exceeded")
        #: High-water mark of :attr:`live_processes` — the memory proxy.
        self.peak_live_processes = 0
        #: High-water mark of :attr:`live_workers`.
        self.peak_live_workers = 0
        reg = engine.metrics
        self.metric_labels = dict(self.labels)
        self.metric_labels.update(server=self.config.host,
                                  architecture=self.ARCHITECTURE)
        self.metrics.bind(reg, **self.metric_labels)
        for counter in (self.connections_accepted, self.shed,
                        self.deadline_exceeded):
            reg.register(counter.name, counter, **self.metric_labels)
        reg.gauge("server.peak_processes",
                  lambda: self.peak_live_processes,
                  **self.metric_labels)
        self._rng = SeededStreams(self.config.seed).get("post-file-names")
        self._started = False

        runtime.register_intrinsics(
            {
                "Http.ReceiveRequest": self.handlers.receive_request,
                "Http.DoGet": self.handlers.do_get,
                "Http.DoPost": self.handlers.do_post,
                "Http.SendError": self.handlers.send_error,
            }
        )
        start_listen, do_get, do_post, send_error = build_handler_methods()
        ab = AssemblyBuilder("WebServerApp")
        for method in (start_listen, do_get, do_post, send_error):
            ab.add_method("Work", method)
        self.assembly = ab.build()
        self._start_listen = start_listen

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Generator: load the handler assembly, bind the listener, and
        hand off to the architecture's accept machinery."""
        if self._started:
            raise ReproError("server already started")
        yield from self.runtime.load_assembly(self.assembly)
        self.listener.start()
        self._begin_accepting()
        self._started = True

    def stop(self) -> None:
        """Stop accepting new connections (in-flight requests finish)."""
        self.listener.stop()

    # -- architecture hooks -------------------------------------------------

    def _begin_accepting(self) -> None:
        """Start pulling connections off the accept queue."""
        raise NotImplementedError

    @property
    def live_workers(self) -> int:
        """In-flight connections being served right now."""
        raise NotImplementedError

    @property
    def live_processes(self) -> int:
        """Simulated processes this server currently holds (memory proxy)."""
        raise NotImplementedError

    # -- shared machinery ---------------------------------------------------

    def _note_dispatch(self) -> None:
        """Update the high-water marks after admitting a connection."""
        self.connections_accepted.add()
        if self.live_workers > self.peak_live_workers:
            self.peak_live_workers = self.live_workers
        if self.live_processes > self.peak_live_processes:
            self.peak_live_processes = self.live_processes

    def _should_shed(self) -> bool:
        """Load-shedding decision, identical across architectures: at
        or beyond ``max_concurrency`` in-flight connections, turn new
        arrivals away with an immediate 503."""
        limit = self.config.max_concurrency
        return limit is not None and self.live_workers >= limit

    def _shed_connection(self, socket):
        """Generator: turn away one connection with an immediate 503.

        Runs cheaply — a daemon process on the threaded server, a loop
        task on the event-driven one — so a saturated server never
        spends a managed worker saying "no"."""
        self.shed.add()
        self.metrics.record_failure("shed")
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("server.shed", "webserver",
                           active=self.live_workers, arch=self.ARCHITECTURE)
        response = HttpResponse(503)
        try:
            yield from socket.send(response.wire_bytes,
                                   payload=response.header_text())
            yield from socket.close()
        except ConnectionReset:
            pass  # the client gave up first; the shed is already counted

    # -- path helpers ------------------------------------------------------------

    def resolve_path(self, url_path: str) -> str:
        """Map a URL path onto the simulated file system."""
        return self.config.docroot + url_path

    def new_upload_path(self) -> str:
        """A fresh random-number file name for POST data (the paper's
        no-synchronization-needed scheme)."""
        while True:
            name = f"{self.config.upload_dir}/{int(self._rng.integers(0, 2**31)):010d}.dat"
            if not self.fs.exists(name):
                return name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} [{self.ARCHITECTURE}] "
                f"{self.config.host}:{self.config.port} "
                f"workers={self.live_workers if self._started else 0}>")
