"""Micro-benchmark: a multithreaded web server (paper §4).

"A main thread of the web server initializes the system by creating a
separate thread to handle each client connection. ... If the request
type is 'GET', then the required file is read and sent back to the
client.  When the request is 'POST', the data delivered from the
client is written to a file."

* :mod:`repro.webserver.httpmsg` — request/response text building and
  parsing (the handler "parses the incoming data for request type and
  file name").
* :mod:`repro.webserver.architecture` — the :class:`ServerHost`
  contract every server concurrency design implements (listener,
  CIL handler assembly, shedding/deadline semantics, metrics).
* :mod:`repro.webserver.server` — the paper's architecture:
  ``TcpListener`` on port 5050, ``AcceptSocket()``,
  thread-per-connection ``StartListen`` written as CIL and executed
  by the VM (JIT on first request — the Table 6 / Figure 6 warm-up
  effect).
* :mod:`repro.webserver.eventloop` — the alternative architecture: a
  single-process event-driven server multiplexing every connection
  on one :class:`~repro.sim.TaskLoop` (the ``ext_arch`` bench axis).
* :mod:`repro.webserver.handlers` — ``doGet``/``doPost`` class-library
  implementations, timing reads and writes with
  ``QueryPerformanceCounter`` semantics.
* :mod:`repro.webserver.client` / :mod:`repro.webserver.workload` —
  the client side and multi-client workload generation.
* :mod:`repro.webserver.host` — wires disk + fs + network + VM +
  server into one runnable benchmark environment.
* :mod:`repro.webserver.metrics` — per-request read/write/response
  time records (the layout of Tables 5–6).
"""

from repro.webserver.httpmsg import HttpRequest, HttpResponse, parse_request
from repro.webserver.metrics import RequestRecord, ServerMetrics
from repro.webserver.architecture import ServerHost
from repro.webserver.server import (
    ThreadPerConnectionServer,
    WebServerConfig,
)
from repro.webserver.eventloop import EventLoopServer
from repro.webserver.host import (
    SERVER_ARCHITECTURES,
    WebServerHost,
    HostConfig,
)
from repro.webserver.client import HttpClient
from repro.webserver.workload import WorkloadConfig, WorkloadGenerator, WorkloadResult

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "parse_request",
    "RequestRecord",
    "ServerMetrics",
    "ServerHost",
    "ThreadPerConnectionServer",
    "EventLoopServer",
    "SERVER_ARCHITECTURES",
    "WebServerConfig",
    "WebServerHost",
    "HostConfig",
    "HttpClient",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadResult",
]
