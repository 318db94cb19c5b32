"""The HTTP surface: routes, status codes, and the Python client.

Every test boots a real :class:`PlacementServer` on an ephemeral port
(``port=0``) and talks to it over actual sockets through
:class:`PlacementClient` — no handler mocking, so the wire format and
status codes are exercised end to end.
"""

from __future__ import annotations

import gc
import http.client
import json
import statistics
import threading
import time
import types
import urllib.error
import urllib.request
import warnings

import pytest

from repro.coschedule.requests import EnsembleRequest
from repro.reschedule.drift import DEFAULT_DRIFT_CAP
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.objectives import score_placement
from repro.search.engine import find_best_placement
from repro.service import api
from repro.service.api import MAX_BODY_BYTES, PlacementServer, make_server
from repro.service.client import PlacementClient, ServiceError
from repro.service.schemas import (
    CoscheduleOptions,
    PlacementRequest,
    RescheduleOptions,
    placement_to_dict,
    request_to_dict,
    score_from_dict,
)


NAN = float("nan")
INF = float("inf")


@pytest.fixture()
def server():
    with make_server(port=0, workers=2) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with PlacementClient(server.url) as client:
        yield client


def _spec(n_steps: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        "api", (default_member("em1", num_analyses=1, n_steps=n_steps),)
    )


def _search(num_nodes: int = 2) -> PlacementRequest:
    return PlacementRequest(kind="search", spec=_spec(), num_nodes=num_nodes)


#: three 16+8-core members, each alone on its node
_THREE = EnsembleSpec(
    "api3", tuple(default_member(f"em{i}", n_steps=2) for i in range(3))
)
_SPREAD = EnsemblePlacement(
    3, tuple(MemberPlacement(i, (i,)) for i in range(3))
)
#: the first two members on node 0: 48 of its 32 cores
_CROWDED = placement_to_dict(
    EnsemblePlacement(
        3,
        (MemberPlacement(0, (0,)), MemberPlacement(0, (0,)))
        + _SPREAD.members[2:],
    )
)


#: a one-member candidate for the three-member spec
_ONE_MEMBER = placement_to_dict(EnsemblePlacement(1, _SPREAD.members[:1]))

#: two 16+8-core members: never both on one 32-core node
_TWO = EnsembleSpec(
    "api2", tuple(default_member(f"em{i}", n_steps=2) for i in range(2))
)


def _with(kind: str, **wire) -> dict:
    """A valid ``kind`` request on ``_THREE``, ``wire`` set on the wire."""
    fields = (
        {"candidates": {"a": _SPREAD}, "rank_method": "des"}
        if kind == "rank"
        else {"placement": _SPREAD}
    )
    request = PlacementRequest(kind=kind, spec=_THREE, num_nodes=3, **fields)
    return {**request_to_dict(request), **wire}


def _reschedule(**options) -> dict:
    """A reschedule request on 4 nodes, ``options`` set on the wire."""
    request = PlacementRequest(
        kind="reschedule",
        spec=_spec(),
        num_nodes=4,
        placement=EnsemblePlacement(4, (MemberPlacement(0, (1,)),)),
        reschedule=RescheduleOptions(),
    )
    payload = request_to_dict(request)
    payload["reschedule"].update(options)
    return payload


def _coschedule(entry=None, **options) -> dict:
    """A two-entry coschedule stream on 4 nodes, ``options`` and the
    second entry's ``entry`` fields set on the wire."""
    stream = (
        EnsembleRequest(name="a", spec=_spec()),
        EnsembleRequest(name="b", spec=_spec(), arrival_time=5.0),
    )
    request = PlacementRequest(
        kind="coschedule",
        spec=stream[0].spec,
        num_nodes=4,
        coschedule=CoscheduleOptions(requests=stream),
    )
    payload = request_to_dict(request)
    payload["coschedule"].update(options)
    payload["coschedule"]["requests"][1].update(entry or {})
    return payload


class TestRoutes:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["workers"] == 2
        assert payload["uptime_s"] >= 0

    def test_submit_poll_roundtrip(self, client):
        submitted = client.submit(_search())
        assert submitted["state"] in ("pending", "running", "done")
        assert submitted["kind"] == "search"
        snapshot = client.wait(submitted["id"], timeout=30.0)
        assert snapshot["state"] == "done"
        score = PlacementClient.result_score(snapshot)
        best, evaluated = find_best_placement(_spec(), 2, 32)
        assert score == best
        assert score.objective == best.objective  # exact, not approx
        assert snapshot["result"]["evaluated"] == evaluated

    def test_submit_search_helper(self, client):
        job = client.submit_search(_spec(), num_nodes=2)
        snapshot = client.wait(job["id"], timeout=30.0)
        assert snapshot["state"] == "done"

    def test_jobs_listing_excludes_results(self, client):
        job = client.submit(_search())
        client.wait(job["id"], timeout=30.0)
        listing = client.jobs()
        assert [j["id"] for j in listing] == [job["id"]]
        assert "result" not in listing[0]

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("job-does-not-exist")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._call("GET", "/frobnicate")
        assert err.value.status == 404

    def test_cancel_pending_job(self):
        import threading

        from repro.service.workers import PlacementService

        release = threading.Event()

        def stalling(request, stage_cache=None):
            release.wait(10.0)
            return {"ok": True}

        service = PlacementService(workers=1, execute_fn=stalling)
        with (
            PlacementServer(service=service, port=0) as srv,
            PlacementClient(srv.url) as client,
        ):
            client.submit(_search(num_nodes=2))  # occupies the worker
            pending = client.submit(_search(num_nodes=3))
            assert client.cancel(pending["id"]) is True
            assert client.job(pending["id"])["state"] == "cancelled"
            release.set()

    def test_submit_to_closed_queue_is_400(self, server, client):
        server.service.queue.close()
        with pytest.raises(ServiceError) as err:
            client.submit(_search())
        assert err.value.status == 400

    def test_delete_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.cancel("job-does-not-exist")
        assert err.value.status == 404

    def test_delete_done_job_reports_not_cancelled(self, client):
        job = client.submit(_search())
        client.wait(job["id"], timeout=30.0)
        assert client.cancel(job["id"]) is False

    def test_malformed_submit_is_400(self, server):
        url = f"{server.url}/jobs"
        for body in (b"{not json", b"{}", b'{"request": {"kind": "bogus"}}'):
            req = urllib.request.Request(
                url, data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 400
            detail = json.loads(err.value.read())
            assert "error" in detail

    @pytest.mark.parametrize(
        "body",
        [
            {"request": []},
            {"request": "x"},
            {"request": {**request_to_dict(_search()), "candidates": []}},
            {"request": {**request_to_dict(_search()), "reschedule": []}},
            {"request": {**request_to_dict(_search()), "robust_rate": NAN}},
            {"request": {**request_to_dict(_search()), "robust_rate": INF}},
            {"request": {**request_to_dict(_search()), "robust_weight": NAN}},
            {"request": {**request_to_dict(_search()), "base_seed": -1}},
            {"request": {**request_to_dict(_search()), "base_seed": 1.5}},
            {"request": {**request_to_dict(_search()), "base_seed": True}},
            {"request": {**request_to_dict(_search()), "base_seed": None}},
            {"request": _reschedule(seed=-1)},
            {"request": _reschedule(seed=True)},
            {"request": _reschedule(drift_node=99)},
            {"request": _reschedule(drift_node=1.5)},
            {"request": _reschedule(drift_start=1.5)},
            {"request": _reschedule(drift_magnitude=NAN)},
            {"request": _reschedule(drift_magnitude=DEFAULT_DRIFT_CAP + 1)},
            {"request": _reschedule(threshold=NAN)},
            {"request": _reschedule(min_gain=NAN)},
            {"request": _with("score", placement=_CROWDED)},
            {"request": _with("rank", candidates={"a": _CROWDED})},
            {
                "request": _with(
                    "rank",
                    candidates={
                        "a": placement_to_dict(_SPREAD),
                        "b": _ONE_MEMBER,
                    },
                )
            },
            {"request": request_to_dict(_search()), "priority": INF},
            {"request": request_to_dict(_search()), "priority": 1.5},
            {"request": request_to_dict(_search()), "priority": "3"},
            {"request": request_to_dict(_search()), "priority": True},
            {"request": _coschedule(fairness_weight=NAN)},
            {"request": _coschedule(deadline_weight=INF)},
            {"request": _coschedule({"priority": INF})},
            {"request": _coschedule({"priority": 1.5})},
            {"request": _coschedule({"priority": True})},
        ],
        ids=[
            "request-list", "request-string", "candidates-list",
            "reschedule-list", "rate-nan", "rate-inf", "weight-nan",
            "seed-negative", "seed-float", "seed-bool", "seed-null",
            "reschedule-seed-negative", "reschedule-seed-bool",
            "drift-node-off-placement", "drift-node-float",
            "drift-start-float", "drift-magnitude-nan",
            "drift-magnitude-above-cap", "threshold-nan",
            "min-gain-nan", "score-placement-oversubscribed",
            "rank-candidate-oversubscribed", "rank-candidate-member-count",
            "priority-inf", "priority-float", "priority-string",
            "priority-bool", "coschedule-weight-nan",
            "coschedule-weight-inf", "stream-priority-inf",
            "stream-priority-float", "stream-priority-bool",
        ],
    )
    def test_wrong_typed_or_non_finite_fields_are_400(self, server, body):
        # the live handler answers 400 with a JSON error — never a
        # dropped connection, and never a 201 for a job that would fail
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0
        )
        try:
            conn.request(
                "POST",
                "/jobs",
                body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert "error" in json.loads(resp.read())
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "wire, message",
        [
            ({"num_nodes": 1}, "no feasible placement over 1 nodes"),
            (
                {"num_nodes": 1, "cores_per_node": 48},
                "nodes oversubscribed (capacity 32)",
            ),
        ],
        ids=["no-canonical-placement", "budget-above-the-node"],
    )
    def test_infeasible_search_is_400(self, server, client, wire, message):
        # the engine's closed-form refusal runs at submit, so the job
        # is never queued to fail twice in a worker
        body = {
            "request": {
                **request_to_dict(
                    PlacementRequest(kind="search", spec=_TWO, num_nodes=2)
                ),
                **wire,
            }
        }
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0
        )
        try:
            conn.request(
                "POST",
                "/jobs",
                body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert message in json.loads(resp.read())["error"]
        finally:
            conn.close()
        assert client.stats()["queue"]["submitted"] == 0

    @pytest.mark.parametrize(
        "length, status",
        [("twelve", 400), ("1.5", 400), ("-1", 400),
         (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_bad_content_length(self, server, length, status):
        # the handler answers from the header alone: a refused body is
        # never read, so a negative length cannot block the handler
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0
        )
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == status
            # the unread body ends the connection, and the reply says so
            assert resp.getheader("Connection") == "close"
            assert resp.will_close
            assert "error" in json.loads(resp.read())
        finally:
            conn.close()

    def test_post_to_unknown_route_closes_the_connection(self, server):
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0
        )
        try:
            conn.request("POST", "/frobnicate", body=b'{"request": {}}')
            resp = conn.getresponse()
            assert resp.status == 404
            assert resp.getheader("Connection") == "close"
            resp.read()
        finally:
            conn.close()

    def test_stats_surfaces_all_layers(self, client):
        client.wait(client.submit(_search())["id"], timeout=30.0)
        client.submit(_search())  # cache hit
        stats = client.stats()
        assert stats["queue"]["submitted"] == 2
        assert stats["result_cache"]["hits"] == 1
        assert "stage_hits" in stats["stage_cache"]
        assert stats["workers"] == 2


class TestCachedSubmission:
    def test_duplicate_submit_returns_done_cached(self, client):
        first = client.wait(client.submit(_search())["id"], timeout=30.0)
        second = client.submit(_search())
        assert second["state"] == "done"
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_priority_accepted(self, client):
        job = client.submit(_search(), priority=7)
        assert job["priority"] == 7
        client.wait(job["id"], timeout=30.0)


class TestScoreRequests:
    def test_score_request_round_trips_exactly(self, client):
        spec = _spec()
        best, _ = find_best_placement(spec, 2, 32)
        request = PlacementRequest(
            kind="score", spec=spec, num_nodes=2, placement=best.placement
        )
        snapshot = client.wait(client.submit(request)["id"], timeout=30.0)
        served = score_from_dict(snapshot["result"]["score"])
        direct = score_placement(spec, best.placement)
        assert served.objective == direct.objective
        assert served.ensemble_makespan == direct.ensemble_makespan
        assert served.member_indicators == direct.member_indicators

    def test_result_score_on_unfinished_job_raises(self, client):
        snapshot = {"state": "pending", "id": "job-x"}
        with pytest.raises(ServiceError) as err:
            PlacementClient.result_score(snapshot)
        assert err.value.status == 409


class TestWireEncoding:
    def test_request_dict_is_what_travels(self, server, client):
        """The HTTP path accepts exactly request_to_dict's rendering."""
        payload = {"request": request_to_dict(_search())}
        req = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            assert resp.status == 201
            body = json.loads(resp.read())
        assert body["state"] in ("pending", "running", "done")
        client.wait(body["id"], timeout=30.0)


@pytest.fixture()
def stalled():
    """A one-worker server whose jobs wait for ``release``, and a client."""
    from repro.service.workers import PlacementService

    release = threading.Event()

    def stalling(request, stage_cache=None):
        release.wait(10.0)
        return {"ok": True}

    service = PlacementService(workers=1, execute_fn=stalling)
    server = PlacementServer(service=service, port=0).start()
    client = PlacementClient(server.url)
    try:
        yield types.SimpleNamespace(
            client=client, release=release, server=server
        )
    finally:
        release.set()
        client.close()
        server.stop()


def _count_accepts(server: PlacementServer) -> list:
    """Record the peer address of every connection the server accepts."""
    accepted = []
    process = server.httpd.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        return process(request, client_address)

    server.httpd.process_request = counting
    return accepted


class TestLongPoll:
    def test_wait_returns_done_in_one_get(self, stalled):
        client, release = stalled.client, stalled.release
        job = client.submit(_search())
        threading.Timer(0.1, release.set).start()
        start = time.monotonic()
        snapshot = client._call("GET", f"/jobs/{job['id']}?wait=5")
        assert snapshot["state"] == "done"
        assert snapshot["result"] == {"ok": True}
        assert time.monotonic() - start < 5.0

    def test_expired_wait_returns_the_unfinished_snapshot(self, stalled):
        client = stalled.client
        job = client.submit(_search())
        start = time.monotonic()
        snapshot = client.job(job["id"], wait=0.2)
        assert time.monotonic() - start >= 0.2
        assert snapshot["state"] in ("pending", "running")
        assert snapshot["result"] is None

    def test_unknown_id_is_404_without_blocking(self, client):
        start = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.job("job-does-not-exist", wait=5.0)
        assert err.value.status == 404
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("raw", ["-1", "nan", "inf", "abc", ""])
    def test_bad_wait_is_400(self, client, raw):
        job = client.submit(_search())
        with pytest.raises(ServiceError) as err:
            client._call("GET", f"/jobs/{job['id']}?wait={raw}")
        assert err.value.status == 400
        assert "wait" in str(err.value)

    def test_client_wait_makes_one_request(self, stalled):
        client, release = stalled.client, stalled.release
        job = client.submit(_search())
        calls = []
        job_call = client.job

        def counted(*args, **kwargs):
            calls.append(args)
            return job_call(*args, **kwargs)

        client.job = counted
        threading.Timer(0.1, release.set).start()
        snapshot = client.wait(job["id"], timeout=10.0)
        assert snapshot["state"] == "done"
        assert len(calls) == 1

    def test_client_wait_times_out(self, stalled):
        client = stalled.client
        job = client.submit(_search())
        with pytest.raises(TimeoutError, match="still"):
            client.wait(job["id"], timeout=0.2)


class TestConnections:
    def test_one_thread_reuses_one_connection(self, server, client):
        accepted = _count_accepts(server)
        client.health()
        client.wait(client.submit(_search())["id"], timeout=30.0)
        client.jobs()
        client.stats()
        assert len(accepted) == 1

    def test_each_thread_gets_its_own_connection(self, server, client):
        accepted = _count_accepts(server)
        statuses = []

        def calls():
            for _ in range(3):
                statuses.append(client.health()["status"])

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert statuses == ["ok"] * 6
        assert len(accepted) == 2

    def test_exited_threads_leave_no_socket_to_the_collector(self, server):
        client = PlacementClient(server.url)
        statuses = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(3):
                thread = threading.Thread(
                    target=lambda: statuses.append(client.health()["status"])
                )
                thread.start()
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            client.close()
            del thread
            gc.collect()
        assert statuses == ["ok"] * 3
        leaks = [w for w in caught if w.category is ResourceWarning]
        assert not leaks, [str(w.message) for w in leaks]

    def test_keep_alive_round_trips_are_not_delayed(self, client):
        # the handler writes headers and body in two sends; with Nagle's
        # algorithm on, each body would wait out a ~40 ms delayed ACK
        client.health()
        times = []
        for _ in range(50):
            start = time.perf_counter()
            client.health()
            times.append(time.perf_counter() - start)
        assert statistics.median(times) < 0.01

    def test_stop_hangs_up_open_connections(self):
        server = make_server(port=0, workers=1).start()
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0
        )
        try:
            conn.request("GET", "/health")
            assert conn.getresponse().read()
            server.stop()
            with pytest.raises((http.client.HTTPException, OSError)):
                conn.request("GET", "/health")
                conn.getresponse().read()
        finally:
            conn.close()

    def test_long_poll_parked_across_stop_ends_quietly(self, stalled, capfd):
        client, release, server = (
            stalled.client, stalled.release, stalled.server
        )
        job = client.submit(_search())
        outcome = []

        def long_poll():
            try:
                outcome.append(client.job(job["id"], wait=5.0))
            except (http.client.HTTPException, OSError) as exc:
                outcome.append(exc)

        poller = threading.Thread(target=long_poll)
        poller.start()
        time.sleep(0.2)  # the GET is parked in the queue's wait
        stopper = threading.Thread(target=server.stop)
        stopper.start()  # hangs up, then waits for the stalled job
        poller.join(timeout=5.0)
        assert not poller.is_alive()
        assert isinstance(outcome[0], OSError)  # no answer after stop
        release.set()  # the parked handler wakes to a hung-up socket
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        deadline = time.monotonic() + 5.0
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._connections
        assert "Traceback" not in capfd.readouterr().err

    def test_client_reconnects_after_the_idle_timeout(self, monkeypatch):
        # the handler class reads the constant when the server is built
        monkeypatch.setattr(api, "IDLE_TIMEOUT_S", 0.2)
        with make_server(port=0, workers=1) as srv:
            accepted = _count_accepts(srv)
            with PlacementClient(srv.url) as client:
                client.wait(client.submit(_search())["id"], timeout=30.0)
                time.sleep(0.6)  # the server hangs up the idle connection
                job = client.submit(_search(num_nodes=3))
                finished = client.wait(job["id"], timeout=30.0)
            assert finished["state"] == "done"
            assert len(accepted) == 2
