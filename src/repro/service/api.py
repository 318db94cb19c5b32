"""The HTTP/JSON surface of the placement service (stdlib only).

Built on :class:`http.server.ThreadingHTTPServer` — no web framework,
matching the repo's zero-new-dependency rule. Routes:

========================  =================================================
``POST /jobs``            submit ``{"request": <request dict>, "priority":
                          n}`` -> 201 with the job snapshot (cache hits
                          come back already ``done`` with ``cached: true``)
``GET /jobs``             every tracked job (without result payloads)
``GET /jobs/<id>``        one job, including its result when done
``GET /jobs/<id>?wait=s`` the same, once the job is terminal or ``s``
                          seconds (capped at :data:`MAX_WAIT_S`) passed
``DELETE /jobs/<id>``     cancel a pending job -> ``{"cancelled": bool}``
``GET /health``           liveness: status, worker count, uptime
``GET /stats``            queue counters, result-cache hit/miss/eviction,
                          aggregated StageCache statistics, and this
                          service's engine counters (``batched``,
                          ``reschedule``, ``coschedule``)
========================  =================================================

Request/response bodies use :mod:`repro.service.schemas` exclusively,
so the HTTP path serves the same floats the library computes — the
verify subsystem's service tier holds this to tolerance 0.0. Every
error is a JSON ``{"error": ...}`` body, the ones :mod:`http.server`
raises itself included: 400 for malformed payloads, a ``priority``
that is not a JSON integer, a ``wait`` that is not a finite number
>= 0, a negative or non-integer ``Content-Length``, or a malformed
request line; 404 for unknown ids (including finished jobs the queue
has evicted) and routes; 405, with ``Allow``, for a method without a
handler; 411 for a ``POST`` body sent with ``Transfer-Encoding``; 413
for bodies over :data:`MAX_BODY_BYTES`.

A ``POST /jobs`` body parses once: :attr:`PlacementServer.body_memo`
maps the SHA-256 of the exact body bytes to its parsed request and
priority, bounded like the service's result cache, so a byte-identical
repeat skips :func:`~repro.service.schemas.request_from_dict` (and,
holding the same request object, its digest). Only bodies that parsed
are kept.

Connections are HTTP/1.1 keep-alive. The server closes a connection
after any error :mod:`http.server` raises itself, after a 405, 411 or
413 and after a request whose body its route does not use, and says
``Connection: close`` in that response. It reads such a body first
when it can, and drains any other one after answering (:func:`_linger`);
an idle connection is released after :data:`IDLE_TIMEOUT_S`, and
:meth:`PlacementServer.stop` closes every open one.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Tuple

from repro.service.cache import ResultCache
from repro.service.schemas import PlacementRequest, request_from_dict
from repro.service.workers import PlacementService
from repro.util.errors import ReproError, ValidationError

#: the largest ``POST /jobs`` body the service reads; larger -> 413.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: the longest ``GET /jobs/<id>?wait=`` block, in seconds.
MAX_WAIT_S = 10.0
#: seconds a keep-alive connection may sit idle before it is closed.
IDLE_TIMEOUT_S = 30.0
#: seconds between the accept loop's checks for a stop request, which
#: bounds how long :meth:`PlacementServer.stop` waits for the loop.
STOP_POLL_S = 0.05
#: the longest :func:`_linger` drains a connection, in seconds.
LINGER_S = 2.0


class PlacementServer:
    """One service instance bound to an HTTP listener.

    Parameters
    ----------
    service:
        The :class:`~repro.service.workers.PlacementService` to expose
        (a default two-worker one is created when omitted).
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back
        from :attr:`port` — the pattern the tests use).

    Attributes
    ----------
    body_memo:
        The parsed ``POST /jobs`` bodies, ``(request, priority)`` by
        the SHA-256 of the body bytes, least recently used evicted
        past the result cache's capacity.
    """

    def __init__(
        self,
        service: Optional[PlacementService] = None,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.service = service or PlacementService()
        self.body_memo = ResultCache(
            max_entries=self.service.result_cache.max_entries
        )
        self.started_at = time.monotonic()
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._connections: Set[socket.socket] = set()
        self._stopped = False

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PlacementServer":
        """Start workers and serve HTTP on a background thread."""
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": STOP_POLL_S},
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Start workers and serve on the calling thread (CLI path)."""
        self.service.start()
        self.httpd.serve_forever(poll_interval=STOP_POLL_S)

    def stop(self) -> None:
        """Stop accepting HTTP, hang up every open connection, then
        shut the worker pool down."""
        self.httpd.shutdown()
        self.httpd.server_close()
        with self._lock:
            self._stopped = True
            connections = list(self._connections)
        for connection in connections:
            _hang_up(connection)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.stop()

    def _opened(self, connection: socket.socket) -> None:
        with self._lock:
            if not self._stopped:
                self._connections.add(connection)
                return
        _hang_up(connection)  # accepted while stopping

    def _closed(self, connection: socket.socket) -> None:
        with self._lock:
            self._connections.discard(connection)

    def __enter__(self) -> "PlacementServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def make_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    cache_entries: int = 1024,
    job_timeout: Optional[float] = None,
) -> PlacementServer:
    """Build a :class:`PlacementServer` with a fresh service."""
    service = PlacementService(
        workers=workers,
        result_cache=ResultCache(max_entries=cache_entries),
        job_timeout=job_timeout,
    )
    return PlacementServer(service=service, host=host, port=port)


def _hang_up(connection: socket.socket) -> None:
    """Shut ``connection`` down; its handler's blocked read sees EOF."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:  # its handler has closed it already
        pass


def _linger(connection: socket.socket) -> None:
    """Half-close ``connection`` and discard what the client still sends
    until it closes or :data:`LINGER_S` passes: a close on unread bytes
    resets the connection, which can lose the answer sent before it."""
    deadline = time.monotonic() + LINGER_S
    try:
        connection.shutdown(socket.SHUT_WR)
        while (left := deadline - time.monotonic()) > 0:
            connection.settimeout(left)
            if not connection.recv(65536):
                return
    except OSError:  # timed out, reset, or hung up by stop()
        pass


def _parse_submission(raw: bytes) -> Tuple[PlacementRequest, int]:
    """The request and priority a ``POST /jobs`` body carries."""
    payload = json.loads(raw.decode("utf-8") or "{}")
    request = request_from_dict(payload["request"])
    priority = payload.get("priority", 0)
    # not int(): it truncates 1.5, takes "3" and true, overflows on inf
    if type(priority) is not int:
        raise ValidationError(
            f"priority must be an integer, got {type(priority).__name__}"
        )
    return request, priority


def _make_handler(server: PlacementServer):
    service = server.service
    body_memo = server.body_memo

    class Handler(BaseHTTPRequestHandler):
        # the service speaks JSON everywhere, including errors
        protocol_version = "HTTP/1.1"
        # headers and body leave in two sends; with Nagle's algorithm
        # the body would wait for the client's delayed ACK (~40 ms)
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_S
        lingering = False  # end the connection with _linger

        def log_message(self, *args) -> None:  # quiet by default
            pass

        def setup(self) -> None:
            super().setup()
            server._opened(self.connection)

        def finish(self) -> None:
            server._closed(self.connection)
            super().finish()

        def handle(self) -> None:
            try:
                super().handle()
            except ConnectionError:  # the client or stop() hung up
                self.close_connection = True
            if self.lingering:
                _linger(self.connection)

        def __getattr__(self, name: str):
            # http.server answers 501 for a method with no do_ handler
            if name.startswith("do_"):
                return self._method_not_allowed
            raise AttributeError(name)

        def send_error(self, code, message=None, explain=None) -> None:
            # http.server's own refusals: a bad request line or version,
            # oversized headers. Its HTML page always closes the
            # connection, and has no status line or headers when the
            # request line named no version; this JSON one closes too,
            # and always has them.
            self.close_connection = True
            self.request_version = self.protocol_version
            self._error(code, message or self.responses[code][0])

        # -- plumbing -------------------------------------------------------
        def _send(self, status: int, payload: dict, **headers: str) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            if self.command != "HEAD":  # the client reads no HEAD body
                self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._send(status, {"error": message})

        def _body_length(self) -> int:
            """The declared body length; negative when it is invalid."""
            try:
                return int(self.headers.get("Content-Length") or 0)
            except ValueError:
                return -1

        def _skip_body(self) -> None:
            """Close after answering a request whose body goes unused:
            read a valid body now, :func:`_linger` over any other one."""
            length = self._body_length()
            chunked = "Transfer-Encoding" in self.headers
            if not chunked and length == 0:
                return
            self.close_connection = True
            if chunked or not 0 < length <= MAX_BODY_BYTES:
                self.lingering = True
            else:
                self.rfile.read(length)

        def _method_not_allowed(self) -> None:
            self._skip_body()
            self.close_connection = True
            self._send(
                405,
                {"error": f"method {self.command} not allowed"},
                Allow="GET, POST, DELETE",
            )

        def _route(self) -> Tuple[str, Optional[str]]:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if not parts:
                return "", None
            if len(parts) == 1:
                return parts[0], None
            return parts[0], "/".join(parts[1:])

        def _wait_seconds(self) -> float:
            """The ``wait`` query parameter, capped; 0 when absent."""
            query = urllib.parse.parse_qs(
                self.path.partition("?")[2], keep_blank_values=True
            )
            if "wait" not in query:
                return 0.0
            raw = query["wait"][-1]
            try:
                wait = float(raw)
            except ValueError:
                wait = float("nan")
            if not 0.0 <= wait < float("inf"):
                raise ValueError(
                    f"wait must be a finite number of seconds >= 0, "
                    f"got {raw!r}"
                )
            return min(wait, MAX_WAIT_S)

        # -- verbs ----------------------------------------------------------
        def do_GET(self) -> None:
            self._skip_body()
            head, rest = self._route()
            if head == "health" and rest is None:
                self._send(
                    200,
                    {
                        "status": "ok",
                        "workers": service.num_workers,
                        "uptime_s": time.monotonic() - server.started_at,
                    },
                )
            elif head == "stats" and rest is None:
                self._send(200, service.stats())
            elif head == "jobs" and rest is None:
                self._send(
                    200,
                    {
                        "jobs": [
                            j.to_dict(include_result=False)
                            for j in service.queue.jobs()
                        ]
                    },
                )
            elif head == "jobs":
                try:
                    wait = self._wait_seconds()
                except ValueError as exc:
                    self._error(400, f"bad request: {exc}")
                    return
                job = service.queue.wait(rest, wait)
                if job is None:
                    self._error(404, f"unknown job {rest!r}")
                else:
                    self._send(200, job.to_dict())
            else:
                self._error(404, f"no route GET {self.path}")

        def do_POST(self) -> None:
            head, rest = self._route()
            if head != "jobs" or rest is not None:
                self._skip_body()
                self.close_connection = True
                self._error(404, f"no route POST {self.path}")
                return
            if "Transfer-Encoding" in self.headers:
                self._skip_body()
                self._error(
                    411,
                    "length required: send the body with a "
                    "Content-Length, not a Transfer-Encoding",
                )
                return
            length = self._body_length()
            if length < 0:
                self._skip_body()
                self._error(
                    400,
                    "bad request: Content-Length must be a non-negative "
                    "integer",
                )
                return
            if length > MAX_BODY_BYTES:
                self._skip_body()
                self._error(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                )
                return
            raw = self.rfile.read(length) if length else b""
            key = hashlib.sha256(raw).hexdigest()
            parsed = body_memo.get(key)
            try:
                if parsed is None:
                    parsed = _parse_submission(raw)
                    body_memo.put(key, parsed)
                request, priority = parsed
                job = service.submit(request, priority=priority)
            except (
                ReproError, KeyError, TypeError, ValueError, RecursionError
            ) as exc:
                self._error(400, f"bad request: {exc}")
                return
            self._send(201, job.to_dict())

        def do_DELETE(self) -> None:
            self._skip_body()
            head, rest = self._route()
            if head != "jobs" or rest is None:
                self._error(404, f"no route DELETE {self.path}")
                return
            if service.queue.poll(rest) is None:
                self._error(404, f"unknown job {rest!r}")
                return
            self._send(200, {"id": rest, "cancelled": service.queue.cancel(rest)})

    return Handler
