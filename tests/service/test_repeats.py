"""Repeated requests: one parse, one digest and one round trip.

A byte-identical ``POST /jobs`` body is parsed once (the server's
``body_memo``), the request it parses to renders its canonical digest
once, and a submit whose ``201`` is already terminal needs no ``GET``
(the client keeps that snapshot for ``wait``).
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading

import pytest

from repro.runtime.spec import EnsembleSpec, default_member
from repro.service import api, schemas
from repro.service.api import make_server
from repro.service.client import PlacementClient
from repro.service.schemas import PlacementRequest, request_to_dict
from repro.service.workers import execute_request


def _spec() -> EnsembleSpec:
    return EnsembleSpec(
        "repeats", (default_member("em1", num_analyses=1, n_steps=2),)
    )


def _search(num_nodes: int = 2) -> PlacementRequest:
    return PlacementRequest(kind="search", spec=_spec(), num_nodes=num_nodes)


def _body(request: PlacementRequest, priority: int = 0) -> bytes:
    return json.dumps(
        {"request": request_to_dict(request), "priority": priority}
    ).encode("utf-8")


def _post(conn: http.client.HTTPConnection, body: bytes):
    """POST ``body`` on ``conn``; returns (status, parsed JSON answer)."""
    conn.request(
        "POST", "/jobs", body=body,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


@pytest.fixture()
def server():
    with make_server(port=0, workers=2) as srv:
        yield srv


@pytest.fixture()
def conn(server):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
    try:
        yield conn
    finally:
        conn.close()


@pytest.fixture()
def parses(monkeypatch):
    """Every request dict the handler parses, in order."""
    seen = []
    parse = api.request_from_dict

    def counted(payload):
        seen.append(payload)
        return parse(payload)

    monkeypatch.setattr(api, "request_from_dict", counted)
    return seen


class TestClientKeepsTerminalAnswers:
    def test_wait_after_a_cached_submit_sends_no_request(self, server):
        with PlacementClient(server.url) as client:
            client.wait(client.submit(_search())["id"], timeout=30.0)
            second = client.submit(_search())
            assert second["state"] == "done" and second["cached"] is True
            calls = []
            call = client._call

            def counted(*args, **kwargs):
                calls.append(args)
                return call(*args, **kwargs)

            client._call = counted
            snapshot = client.wait(second["id"], timeout=30.0)
            assert calls == []
            client._call = call
            assert snapshot == client.job(second["id"])

    def test_kept_answer_is_per_thread(self, server):
        with PlacementClient(server.url) as client:
            client.wait(client.submit(_search())["id"], timeout=30.0)
            cached = client.submit(_search())
            polls = []
            job = client.job

            def counted(*args, **kwargs):
                polls.append(args)
                return job(*args, **kwargs)

            client.job = counted
            # another thread holds no answer for the job, so it asks
            waited = []
            thread = threading.Thread(
                target=lambda: waited.append(client.wait(cached["id"]))
            )
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert waited == [cached]
            assert len(polls) == 1


class TestBodyMemo:
    def test_repeated_body_parses_and_digests_once(
        self, conn, parses, monkeypatch
    ):
        renders = []
        render = schemas.canonical_json

        def counted(payload):
            renders.append(payload)
            return render(payload)

        monkeypatch.setattr(schemas, "canonical_json", counted)
        body = _body(_search())
        first = _post(conn, body)
        second = _post(conn, body)
        assert first[0] == second[0] == 201
        assert first[1]["digest"] == second[1]["digest"]
        assert len(parses) == 1
        assert len(renders) == 1

    def test_least_recently_used_body_is_parsed_again(self, parses):
        with make_server(port=0, workers=1, cache_entries=2) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10.0)
            try:
                oldest, *rest = [_body(_search(n)) for n in (1, 2, 3)]
                for body in [oldest] + rest:  # bound + 1 distinct bodies
                    assert _post(conn, body)[0] == 201
                assert len(parses) == 3
                assert len(srv.body_memo) == 2
                assert _post(conn, rest[-1])[0] == 201  # still memoized
                assert len(parses) == 3
                assert _post(conn, oldest)[0] == 201  # evicted
                assert len(parses) == 4
            finally:
                conn.close()

    @pytest.mark.parametrize(
        "body",
        [
            b'{"request": {"kind": "bogus"}}',
            _body(_search()).replace(b'"priority": 0', b'"priority": 1.5'),
        ],
        ids=["request-refused", "priority-refused"],
    )
    def test_refused_body_is_never_memoized(self, server, conn, parses, body):
        for _ in range(2):
            status, answer = _post(conn, body)
            assert status == 400 and "error" in answer
        assert len(parses) == 2
        assert len(server.body_memo) == 0


def test_concurrent_repeats_serve_the_serial_payloads():
    """Identical and distinct bodies from more threads than cores.

    Four bodies (two requests, each at two priorities) per thread, in
    a thread-specific order, against two workers and a memo bounded at
    2, with the interpreter switching threads every microsecond. Every
    payload must equal the serial ``execute_request`` one, and the
    memo must never hold more than its bound.
    """
    requests = [_search(1), _search(2)]
    expected = {
        request.digest: json.dumps(execute_request(request), sort_keys=True)
        for request in requests
    }
    bodies = [(r, priority) for r in requests for priority in (0, 1)]
    threads_count = (os.cpu_count() or 2) + 2
    rounds = 10
    served, sizes, errors = [], [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with make_server(port=0, workers=2, cache_entries=2) as srv:
            bound = srv.body_memo.max_entries

            def run(index: int) -> None:
                try:
                    with PlacementClient(srv.url) as client:
                        for turn in range(rounds * len(bodies)):
                            request, priority = bodies[
                                (index + turn) % len(bodies)
                            ]
                            job = client.submit(request, priority=priority)
                            sizes.append(len(srv.body_memo))
                            snapshot = client.wait(job["id"], timeout=60.0)
                            served.append(
                                (job["digest"], snapshot["result"])
                            )
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert len(served) == threads_count * rounds * len(bodies)
    for digest, result in served:
        assert json.dumps(result, sort_keys=True) == expected[digest]
    assert max(sizes) <= bound

