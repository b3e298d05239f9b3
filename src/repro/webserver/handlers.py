"""Class-library side of the web server: the intrinsics the CIL
handler methods call.

``doGet``: "the requested file is read and sent to the client through
the socket" — timed as (1) filestream creation, (2) reading the data,
(3) closing the filestream.

``doPost``: "the data is written to a new file created by using a
random number generator.  Hence, no synchronization is required for
write operations.  The data is stored to the new file using
streamwriter class."
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import (
    ConnectionReset,
    FileNotFound,
    HttpError,
    RetryExhausted,
    StorageError,
)
from repro.io import FileMode, FileStream, StreamWriter
from repro.io.net import Socket
from repro.webserver.httpmsg import HttpRequest, HttpResponse, parse_request
from repro.webserver.metrics import RequestRecord, ServerMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.webserver.architecture import ServerHost

__all__ = ["Connection", "RequestHandlers"]

_connection_ids = itertools.count(1)

#: Read/write granularity (bytes) of the ``doGet``/``doPost`` file
#: streaming loops.
FILE_CHUNK = 8192


class Connection:
    """Per-connection server state shared between intrinsic calls."""

    def __init__(self, socket: Socket, accepted_at: float) -> None:
        self.conn_id = next(_connection_ids)
        self.socket = socket
        self.accepted_at = accepted_at
        self.request: Optional[HttpRequest] = None
        self.error_status: Optional[int] = None
        self.started_at: Optional[float] = None


class RequestHandlers:
    """Implements the ``Http.*`` intrinsics against one server."""

    def __init__(self, server: "ServerHost") -> None:
        self.server = server
        self.connections: Dict[int, Connection] = {}

    # -- helpers ----------------------------------------------------------

    @property
    def engine(self):
        return self.server.engine

    @property
    def fs(self):
        return self.server.fs

    @property
    def metrics(self) -> ServerMetrics:
        return self.server.metrics

    def register(self, connection: Connection) -> int:
        self.connections[connection.conn_id] = connection
        return connection.conn_id

    def _conn(self, conn_id: int) -> Connection:
        try:
            return self.connections[conn_id]
        except KeyError:
            raise HttpError(500, f"unknown connection {conn_id}") from None

    # -- intrinsics ---------------------------------------------------------

    def receive_request(self, conn_id: int):
        """Read the incoming data into a buffer, convert to a string,
        and parse it; returns 0 for GET, 1 for POST.  A malformed
        request raises a *managed* exception
        (``System.Net.ProtocolViolationException``) that the CIL
        ``StartListen`` catches in its protected region."""
        from repro.cli import ManagedException

        conn = self._conn(conn_id)
        conn.started_at = self.engine.now
        received = 0
        text: Optional[str] = None
        expected = None
        while True:
            try:
                got = yield from conn.socket.receive(8192)
            except ConnectionReset:
                # The client vanished mid-request.  There is nobody to
                # answer, but the request must not vanish from the
                # metrics: count the failure, then unwind through the
                # managed catch so the worker exits cleanly.
                self._abort(conn, "reset_during_receive")
                raise ManagedException(
                    "System.Net.SocketException",
                    "connection reset while receiving request",
                    payload=499,
                ) from None
            received += got
            if text is None:
                payloads = conn.socket.take_payloads()
                if payloads:
                    text = payloads[0]
                    try:
                        conn.request = parse_request(text)
                        expected = conn.request.wire_bytes
                    except HttpError as exc:
                        conn.error_status = exc.status
                        raise ManagedException(
                            "System.Net.ProtocolViolationException",
                            exc.message,
                            payload=exc.status,
                        ) from None
            if got == 0:  # EOF before a full request
                if conn.request is None:
                    conn.error_status = 400
                    raise ManagedException(
                        "System.Net.ProtocolViolationException",
                        "connection closed before a complete request",
                        payload=400,
                    )
                break
            if expected is not None and received >= expected:
                break
        return 0 if conn.request.method == "GET" else 1

    def do_get(self, conn_id: int):
        """Serve a GET: open + read + close the file (timed), then send
        the response through the socket."""
        conn = self._conn(conn_id)
        request = conn.request
        path = self.server.resolve_path(request.path)
        t0 = self.engine.now
        try:
            stream = yield from FileStream.open(
                self.fs, path, FileMode.OPEN, retrier=self.server.retrier)
        except FileNotFound:
            yield from self._respond(conn, HttpResponse(404), read_time=None)
            return
        except (StorageError, RetryExhausted):
            # The storage layer is misbehaving beyond what retries can
            # absorb; degrade to 503 instead of killing the worker.
            yield from self._respond(conn, HttpResponse(503), read_time=None)
            return
        try:
            nbytes = yield from stream.read_to_end(chunk=FILE_CHUNK)
            yield from stream.close()
        except (StorageError, RetryExhausted):
            yield from self._respond(conn, HttpResponse(503), read_time=None)
            return
        read_time = self.engine.now - t0
        yield from self._respond(
            conn, HttpResponse(200, body_bytes=nbytes), read_time=read_time
        )

    def do_post(self, conn_id: int):
        """Serve a POST: write the body through a StreamWriter (timed),
        then acknowledge.  The paper's scheme writes to a fresh
        randomly-named file; with ``keyed_writes`` the body lands at
        the request path itself (``FileMode.CREATE`` overwrites), the
        contract replicated cluster nodes rely on."""
        conn = self._conn(conn_id)
        request = conn.request
        if self.server.config.keyed_writes:
            path = self.server.resolve_path(request.path)
        else:
            path = self.server.new_upload_path()
        t0 = self.engine.now
        try:
            stream = yield from FileStream.open(self.fs, path, FileMode.CREATE)
            writer = StreamWriter(stream, buffer_size=FILE_CHUNK)
            yield from writer.write(request.body_bytes)
            yield from writer.flush()
            # Uploaded data is made durable before acknowledging — this is
            # why the paper's writes come out slower than its reads.
            yield from self.fs.sync(stream.handle)
            yield from stream.close()
        except (StorageError, RetryExhausted):
            yield from self._respond(conn, HttpResponse(503), write_time=None)
            return
        write_time = self.engine.now - t0
        yield from self._respond(
            conn, HttpResponse(201), write_time=write_time
        )

    def send_error(self, conn_id: int):
        """Report a malformed request back to the client."""
        conn = self.connections.get(conn_id)
        if conn is None:
            # Already aborted (e.g. the connection reset mid-receive and
            # the failure was recorded); nothing left to answer.
            yield self.engine.timeout(0.0)
            return
        status = conn.error_status or 400
        yield from self._respond(conn, HttpResponse(status))

    # -- shared response path ---------------------------------------------------

    def _abort(self, conn: Connection, reason: str) -> None:
        """Account for a request that dies without a response."""
        self.metrics.record_failure(reason)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("http.aborted", "webserver", tid=conn.conn_id,
                           reason=reason, arch=self.server.ARCHITECTURE)
        self.connections.pop(conn.conn_id, None)

    def _respond(
        self,
        conn: Connection,
        response: HttpResponse,
        read_time: Optional[float] = None,
        write_time: Optional[float] = None,
    ):
        deadline = self.server.config.request_deadline
        if (deadline is not None and conn.started_at is not None
                and self.engine.now - conn.started_at > deadline
                and response.status < 400):
            # Too late to be useful: degrade the answer to 503 so the
            # client can tell an overloaded server from a slow file.
            self.server.deadline_exceeded.add()
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.instant("server.deadline_exceeded", "webserver",
                               tid=conn.conn_id,
                               elapsed=self.engine.now - conn.started_at,
                               arch=self.server.ARCHITECTURE)
            response = HttpResponse(503)
        try:
            yield from conn.socket.send(
                response.wire_bytes, payload=response.header_text())
            yield from conn.socket.close()
        except ConnectionReset:
            self._abort(conn, "reset_during_send")
            return
        request = conn.request
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(
                f"http.{request.method.lower()}" if request else "http.error",
                "webserver",
                conn.started_at if conn.started_at is not None else conn.accepted_at,
                tid=conn.conn_id,
                path=request.path if request else "?",
                status=response.status,
                data_bytes=response.body_bytes,
                arch=self.server.ARCHITECTURE,
            )
        self.metrics.record(
            RequestRecord(
                index=self.metrics.count + 1,
                method=request.method if request else "?",
                path=request.path if request else "?",
                status=response.status,
                data_bytes=(
                    response.body_bytes
                    if request is None or request.method == "GET"
                    else request.body_bytes
                ),
                read_time=read_time,
                write_time=write_time,
                response_time=self.engine.now - (conn.started_at or conn.accepted_at),
            )
        )
        del self.connections[conn.conn_id]
