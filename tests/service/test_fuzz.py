"""Fuzzing ``POST /jobs`` through the live handler.

Bodies are valid requests built from the shared grids of
``tests/strategies.py``, and mutations of them: a key dropped or
retyped anywhere in the body, a non-finite number, a non-object where
an object nests, truncated JSON and a bad ``priority``. Each body is
sent twice on one keep-alive connection; when the first parsed, the
second is answered from the server's body memo. Both answers must be
a ``201`` or a JSON 4xx, with the same status and the same body apart
from the job id: never a 500, a dropped connection, a hang (the
socket times out) or a body that is not a JSON object.

The server's one worker is held by a blocker job for the whole module,
so every accepted job stays ``pending`` and the two answers for one
body compare whole.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.spec import EnsembleSpec, default_member
from repro.service.api import PlacementServer
from repro.service.jobs import JobState
from repro.service.schemas import (
    SCHEMA_VERSION,
    CoscheduleOptions,
    PlacementRequest,
    RescheduleOptions,
    coschedule_options_to_dict,
    placement_to_dict,
    reschedule_options_to_dict,
    spec_to_dict,
)
from repro.service.workers import PlacementService
from tests.strategies import (
    des_ensembles,
    des_placements,
    ensemble_stream,
    plan_mix_grids,
    search_grids,
)

#: values a mutation puts where the schema expects something else
ALIEN = (None, True, "x", 1.5, -1, 0, 10**30, [], {}, [1, 2], {"a": 1})
NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.fixture(scope="module")
def server():
    release = threading.Event()

    def stalling(request, stage_cache=None):
        release.wait(30.0)
        return {"ok": True}

    service = PlacementService(workers=1, execute_fn=stalling)
    server = PlacementServer(service=service, port=0).start()
    try:
        blocker = service.submit(
            PlacementRequest(
                kind="search",
                spec=EnsembleSpec("blocker", (default_member("em1"),)),
                num_nodes=2,
            )
        )
        deadline = time.monotonic() + 10.0
        while service.queue.poll(blocker.id).state is not JobState.RUNNING:
            assert time.monotonic() < deadline, "the blocker never ran"
            time.sleep(0.01)
        yield server
    finally:
        release.set()
        server.stop()


def _wire(kind: str, spec, num_nodes: int, cores_per_node=32, **fields):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "spec": spec_to_dict(spec),
        "num_nodes": num_nodes,
        "cores_per_node": cores_per_node,
        **fields,
    }


@st.composite
def valid_requests(draw):
    """A request dict of any kind, built from the shared grids."""
    kind = draw(
        st.sampled_from(["search", "plan", "score", "rank", "reschedule",
                         "coschedule"])
    )
    if kind in ("search", "plan"):
        grid = search_grids() if kind == "search" else plan_mix_grids()
        spec, num_nodes, cores_per_node = draw(grid)
        return _wire("search", spec, num_nodes, cores_per_node)
    if kind == "coschedule":
        stream = draw(ensemble_stream())
        options = CoscheduleOptions(requests=stream)
        return _wire(
            "coschedule", stream[0].spec, 4,
            coschedule=coschedule_options_to_dict(options),
        )
    spec = draw(des_ensembles())
    placement = placement_to_dict(draw(des_placements()))
    if kind == "rank":
        return _wire("rank", spec, 2, candidates={"a": placement})
    if kind == "reschedule":
        options = reschedule_options_to_dict(RescheduleOptions())
        return _wire("reschedule", spec, 2, placement=placement,
                     reschedule=options)
    return _wire("score", spec, 2, placement=placement)


def _draw_path(data, node) -> list:
    """A path from the body's root to some value inside it."""
    path = []
    while isinstance(node, (dict, list)) and node:
        if path and data.draw(st.booleans(), label="stop"):
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)), label="key")
        path.append(key)
        node = node[key]
    return path


def _mutated(data, body: dict) -> bytes:
    """``body`` with one mutation, rendered to bytes."""
    mutation = data.draw(
        st.sampled_from(
            ["none", "drop", "retype", "non-finite", "truncate", "priority"]
        ),
        label="mutation",
    )
    if mutation in ("drop", "retype", "non-finite"):
        path = _draw_path(data, body)
        parent = body
        for key in path[:-1]:
            parent = parent[key]
        if mutation == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(
                st.sampled_from(ALIEN if mutation == "retype" else NON_FINITE),
                label="value",
            )
    elif mutation == "priority":
        body["priority"] = data.draw(
            st.sampled_from(ALIEN + NON_FINITE), label="priority"
        )
    raw = json.dumps(body).encode("utf-8")
    if mutation == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    return raw


def _answers_agree(server: PlacementServer, raw: bytes) -> None:
    """POST ``raw`` twice on one connection; check both answers."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
    answers = []
    try:
        for _ in range(2):
            conn.request(
                "POST", "/jobs", body=raw,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.getheader("Content-Type") == "application/json"
            answer = json.loads(resp.read())
            assert isinstance(answer, dict)
            assert resp.status == 201 or 400 <= resp.status < 500, answer
            if resp.status != 201:
                assert isinstance(answer["error"], str)
            answers.append((resp.status, answer))
    finally:
        conn.close()
    (first_status, first), (second_status, second) = answers
    assert first_status == second_status
    first.pop("id", None)
    second.pop("id", None)
    assert first == second


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_submissions_answer_alike_twice(server, data):
    body = {
        "request": data.draw(valid_requests(), label="request"),
        "priority": data.draw(st.integers(-3, 3), label="priority"),
    }
    _answers_agree(server, _mutated(data, body))


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"null",
        b"[]",
        b'"request"',
        b"\xff\xfe",
        b'{"request": null}',
        b'{"request": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"request": {"spec": ' + b"{\"a\": " * 5_000 + b"1"
        + b"}" * 5_000 + b"}}",
    ],
    ids=["empty", "null", "list", "string", "not-utf8", "request-null",
         "deep-list", "deep-object"],
)
def test_degenerate_bodies_answer_alike_twice(server, raw):
    _answers_agree(server, raw)
