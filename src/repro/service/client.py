"""Python client for the placement service (stdlib ``http.client`` only).

A thin, dependency-free mirror of the HTTP surface: submit a
:class:`~repro.service.schemas.PlacementRequest` of any kind (or a
convenience search), poll, block on completion, cancel, and read
health/stats.
Each calling thread keeps one keep-alive connection, and
:meth:`PlacementClient.wait` blocks in the server
(``GET /jobs/<id>?wait=``) instead of polling on a timer.
Deserialization goes through :mod:`repro.service.schemas`, so
:meth:`PlacementClient.result_score` hands back a real
:class:`~repro.scheduler.objectives.PlacementScore` carrying the
service's floats unchanged.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.parse
from typing import Dict, List, Optional

from repro.runtime.spec import EnsembleSpec
from repro.scheduler.objectives import PlacementScore
from repro.service.schemas import (
    PlacementRequest,
    request_to_dict,
    score_from_dict,
)


class ServiceError(RuntimeError):
    """An HTTP-level failure reported by the placement service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class PlacementClient:
    """Client bound to one service base URL.

    Each thread that calls the client gets its own persistent
    connection, reopened when the server has closed it. The client
    closes every connection it opens: a thread's connection once the
    thread has exited (when the next thread opens one), and all of
    them at :meth:`close` (or on leaving a ``with`` block).

    Parameters
    ----------
    base_url:
        e.g. ``http://127.0.0.1:8765`` (trailing slash tolerated).
    timeout:
        Socket timeout per HTTP call, in seconds; :meth:`wait` asks
        the server to block for at most half of it per call.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        self._local = threading.local()
        # strong, so no connection is left to the garbage collector
        self._connections: Dict[
            threading.Thread, http.client.HTTPConnection
        ] = {}
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later call reopens one."""
        with self._lock:
            connections = list(self._connections.values())
        for connection in connections:
            connection.close()

    def __enter__(self) -> "PlacementClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- HTTP plumbing ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, dropped first if the server closed it.

        An idle keep-alive socket has nothing to read; a readable one
        holds the server's EOF (or stray bytes), so it is not reused.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            with self._lock:
                exited = [
                    thread
                    for thread in self._connections
                    if not thread.is_alive()
                ]
                for thread in exited:
                    self._connections.pop(thread).close()
                self._connections[threading.current_thread()] = connection
        elif connection.sock is not None and select.select(
            [connection.sock], [], [], 0
        )[0]:
            connection.close()  # the next request reconnects
        return connection

    def _call(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        try:
            connection.request(
                method, self._prefix + path, body=body, headers=headers
            )
            response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()
            raise
        if response.status >= 400:
            try:
                message = json.loads(data.decode("utf-8"))["error"]
            except Exception:
                message = response.reason
            raise ServiceError(response.status, message)
        return json.loads(data.decode("utf-8"))

    # -- API ----------------------------------------------------------------
    def submit(
        self, request: PlacementRequest, priority: int = 0
    ) -> dict:
        """POST the request; returns the job snapshot (with its id)."""
        return self._call(
            "POST",
            "/jobs",
            {"request": request_to_dict(request), "priority": priority},
        )

    def submit_search(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int = 32,
        priority: int = 0,
        **kwargs,
    ) -> dict:
        """Convenience: submit an exhaustive-search request."""
        return self.submit(
            PlacementRequest(
                kind="search",
                spec=spec,
                num_nodes=num_nodes,
                cores_per_node=cores_per_node,
                **kwargs,
            ),
            priority=priority,
        )

    def job(self, job_id: str, wait: float = 0.0) -> dict:
        """GET one job snapshot (includes the result when done).

        A positive ``wait`` lets the server hold the answer until the
        job is terminal or ``wait`` seconds (capped by the server) pass.
        """
        query = f"?wait={wait:.3f}" if wait > 0 else ""
        return self._call("GET", f"/jobs/{job_id}{query}")

    def jobs(self) -> List[dict]:
        """GET every tracked job (without result payloads)."""
        return self._call("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> bool:
        """DELETE a job; True iff it was pending and is now cancelled."""
        return self._call("DELETE", f"/jobs/{job_id}")["cancelled"]

    def health(self) -> dict:
        return self._call("GET", "/health")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def wait(self, job_id: str, timeout: float = 30.0) -> dict:
        """Block until the job is terminal; returns the final snapshot.

        Each :meth:`job` call blocks in the server for at most half
        the socket timeout, so a job that finishes within that costs
        one request.

        Raises
        ------
        TimeoutError
            If the job is still pending/running after ``timeout``.
        """
        deadline = time.monotonic() + timeout
        longest = self.timeout / 2
        while True:
            remaining = deadline - time.monotonic()
            snapshot = self.job(job_id, wait=min(max(remaining, 0.0), longest))
            if snapshot["state"] in ("done", "failed", "cancelled"):
                return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} "
                    f"after {timeout}s"
                )

    @staticmethod
    def result_score(snapshot: dict) -> PlacementScore:
        """The :class:`PlacementScore` inside a DONE job snapshot."""
        if snapshot.get("state") != "done":
            raise ServiceError(
                409, f"job {snapshot.get('id')} is not done: {snapshot}"
            )
        return score_from_dict(snapshot["result"]["score"])
