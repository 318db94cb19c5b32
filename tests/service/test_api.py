"""The HTTP surface: routes, status codes, and the Python client.

Every test boots a real :class:`PlacementServer` on an ephemeral port
(``port=0``) and talks to it over actual sockets through
:class:`PlacementClient` — no handler mocking, so the wire format and
status codes are exercised end to end.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.coschedule.requests import EnsembleRequest
from repro.reschedule.drift import DEFAULT_DRIFT_CAP
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.objectives import score_placement
from repro.search.engine import find_best_placement
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
    return PlacementClient(server.url)


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
        with PlacementServer(service=service, port=0) as srv:
            client = PlacementClient(srv.url)
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
            assert "error" in json.loads(resp.read())
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
