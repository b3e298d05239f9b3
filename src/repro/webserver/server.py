"""The thread-per-connection web server (the paper's design).

Structure follows §4.1 exactly:

* the server "starts listening on port 5050 using TcpListener class";
* the main (accept) thread loops on ``AcceptSocket()`` and creates a
  new managed thread per connection, invoking ``StartListen()``;
* ``StartListen`` receives and parses the request and dispatches to
  ``doGet``/``doPost``.

``StartListen``/``doGet``/``doPost`` are CIL method bodies run by the
VM, so the first request pays JIT compilation for the whole handler
chain — the warm-up the paper measures in Table 6 / Figure 6.

Everything that is not the threading decision (protocol handling,
shedding/deadline semantics, metrics, path mapping) lives in the
shared :class:`~repro.webserver.architecture.ServerHost` base; the
event-driven alternative is
:class:`~repro.webserver.eventloop.EventLoopServer`.  See
``docs/webserver.md`` for the architecture comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cli import MethodBuilder
from repro.errors import ReproError
from repro.sim import Counter
from repro.webserver.architecture import ServerHost
from repro.webserver.handlers import Connection

__all__ = ["WebServerConfig", "ThreadPerConnectionServer",
           "build_handler_methods"]


@dataclass(frozen=True)
class WebServerConfig:
    """Server knobs, shared by every architecture (defaults follow the
    paper's unbounded single-host setup).

    Attributes
    ----------
    host, port:
        Listening endpoint on the simulated LAN (the paper's
        ``localhost:5050``).
    docroot:
        File-system prefix URL paths map onto (``GET /x`` reads
        ``{docroot}/x``).
    upload_dir:
        Directory POST bodies land in, under random-number file names
        (the paper's no-synchronization-needed scheme).
    seed:
        Root seed for the server's private RNG streams (upload names).
    keyed_writes:
        When True, POST bodies are stored at the *request path* (under
        ``docroot``) instead of a fresh random upload name — the
        storage contract a replicated cluster needs, where every
        replica of a key must hold the same file at the same path and
        a re-write of the key overwrites in place.  Defaults to False:
        the paper's no-synchronization random-name scheme.

    The three graceful-degradation knobs default to off (``None``),
    preserving the paper's unbounded server.  Their *protocol-level*
    behaviour is identical across architectures; only the resource
    they protect differs:

    max_concurrency:
        Cap on simultaneously-served connections (worker threads on
        the threaded server, loop tasks on the event-driven one);
        beyond it, new connections are *shed* with an immediate 503
        instead of being admitted.
    accept_backlog:
        Bound on the listener's accept queue; overflowing connects
        are refused (the client sees a reset).
    request_deadline:
        Per-request budget in simulated seconds; a success that
        misses it is downgraded to 503 at response time.
    """

    host: str = "localhost"
    port: int = 5050
    docroot: str = "/www"
    upload_dir: str = "/www/uploads"
    seed: int = 0
    keyed_writes: bool = False
    max_concurrency: Optional[int] = None
    accept_backlog: Optional[int] = None
    request_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0 < self.port < 65536):
            raise ReproError(f"bad port {self.port}")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ReproError("max_concurrency must be >= 1 or None")
        if self.accept_backlog is not None and self.accept_backlog < 1:
            raise ReproError("accept_backlog must be >= 1 or None")
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ReproError("request_deadline must be positive or None")


def build_handler_methods():
    """The CIL handler chain: StartListen dispatches to DoGet/DoPost/
    SendError, each of which enters the class library."""
    do_get = (
        MethodBuilder("DoGet")
        .arg("conn")
        .ldarg("conn").call_intrinsic("Http.DoGet", 1, False)
        .ret()
        .build()
    )
    do_post = (
        MethodBuilder("DoPost")
        .arg("conn")
        .ldarg("conn").call_intrinsic("Http.DoPost", 1, False)
        .ret()
        .build()
    )
    send_error = (
        MethodBuilder("SendError")
        .arg("conn")
        .ldarg("conn").call_intrinsic("Http.SendError", 1, False)
        .ret()
        .build()
    )
    start_listen = (
        MethodBuilder("StartListen")
        .arg("conn").local("m")
        # Receiving/parsing runs in a protected region: a malformed
        # request surfaces as System.Net.ProtocolViolationException
        # and lands in the catch block below.
        .begin_try()
        .ldarg("conn").call_intrinsic("Http.ReceiveRequest", 1, True).stloc("m")
        .end_try("bad", catches="System.Net.")
        .ldloc("m").ldc(1).ceq().brtrue("post")
        .ldarg("conn").call(do_get).ret()
        .label("post").ldarg("conn").call(do_post).ret()
        .label("bad").pop().ldarg("conn").call(send_error).ret()
        .build()
    )
    return start_listen, do_get, do_post, send_error


class ThreadPerConnectionServer(ServerHost):
    """One managed thread per connection (the paper's §4.1 design).

    The accept loop is its own simulation process; every admitted
    connection spawns a :class:`~repro.cli.ManagedThread` (paying the
    CLR thread-start overhead) whose entry point is the CIL
    ``StartListen`` method.  Memory proxy: ``1 + live_workers``
    simulated processes.
    """

    ARCHITECTURE = "thread"

    def __init__(self, engine, runtime, fs, network, config=None,
                 retrier=None, labels=None) -> None:
        super().__init__(engine, runtime, fs, network, config, retrier,
                         labels=labels)
        #: Worker threads created over the server's lifetime (one per
        #: admitted connection; kept alongside ``server.connections``
        #: because threads are this architecture's defining cost).
        self.threads_spawned = Counter("server.threads")
        engine.metrics.register(self.threads_spawned.name,
                                self.threads_spawned,
                                **self.metric_labels)
        #: Worker threads started and not yet finished.  A counter, not
        #: a scan over spawned threads: it is read on every accept.
        self._live_workers = 0

    # -- architecture hooks -------------------------------------------------

    def _begin_accepting(self) -> None:
        self.engine.process(self._accept_loop(), name="webserver.main",
                            daemon=True)

    @property
    def live_workers(self) -> int:
        """Worker threads still serving a connection."""
        return self._live_workers

    @property
    def live_processes(self) -> int:
        """The accept-loop process plus one process per live worker."""
        return 1 + self._live_workers

    # -- the accept loop ---------------------------------------------------

    def _accept_loop(self):
        while True:
            socket = yield from self.listener.accept_socket()
            if self._should_shed():
                # Load shedding: answer 503 from the accept thread
                # (cheap, no managed worker) so the client backs off
                # instead of queueing behind saturated workers.
                self.engine.process(self._shed_connection(socket),
                                    name="webserver.shed", daemon=True)
                continue
            conn = Connection(socket, accepted_at=self.engine.now)
            conn_id = self.handlers.register(conn)
            self.runtime.create_thread(
                self._serve(conn_id), name=f"worker-{conn_id}"
            ).start()
            self._live_workers += 1
            self.threads_spawned.add()
            self._note_dispatch()

    def _serve(self, conn_id):
        """Generator: a worker thread's body, ``StartListen`` on one
        connection.  The worker leaves the live count in the same step
        its process finishes, whether it returns or raises, so a
        same-instant accept sees exactly the workers still alive."""
        try:
            return (yield from self.runtime.interpreter.invoke(
                self._start_listen, [conn_id]))
        finally:
            self._live_workers -= 1
