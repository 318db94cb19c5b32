"""The ``reschedule`` request kind and its digest-stability contract.

Two things are pinned here. First, the wire format: adding the
``reschedule`` field must not perturb any existing digest — requests
without options serialize to the exact pre-extension payload (the
result cache and the deterministic job ids key off those digests).
Second, the semantics: a reschedule job runs the static and the
closed-loop DES under one shared drift schedule and reports the
attributable improvement, end to end through the worker pool and the
HTTP surface.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.service.api import make_server
from repro.service.client import PlacementClient
from repro.service.schemas import (
    PlacementRequest,
    RescheduleOptions,
    canonical_digest,
    request_from_dict,
    request_to_dict,
    reschedule_options_from_dict,
    reschedule_options_to_dict,
)
from repro.service.workers import execute_request
from repro.util.errors import ValidationError


def _spec(n_steps: int = 12) -> EnsembleSpec:
    return EnsembleSpec(
        "resched",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=n_steps)
            for i in range(3)
        ),
    )


def _placement() -> EnsemblePlacement:
    return EnsemblePlacement(
        4, tuple(MemberPlacement(i, (i,)) for i in range(3))
    )


def _options(**overrides) -> RescheduleOptions:
    knobs = dict(
        drift_start=2, window=2, threshold=1.2, min_dwell=2
    )
    knobs.update(overrides)
    return RescheduleOptions(**knobs)


def _reschedule_request(options=None) -> PlacementRequest:
    return PlacementRequest(
        kind="reschedule",
        spec=_spec(),
        num_nodes=4,
        placement=_placement(),
        reschedule=options,
    )


class TestDigestStability:
    def test_requests_without_options_serialize_as_before(self):
        """No ``reschedule`` key when the field is None — pre-existing
        request payloads (and therefore digests) are untouched."""
        request = PlacementRequest(kind="search", spec=_spec(), num_nodes=3)
        payload = request_to_dict(request)
        assert "reschedule" not in payload
        rebuilt = request_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.reschedule is None
        assert canonical_digest(rebuilt) == canonical_digest(request)

    def test_options_change_the_digest(self):
        base = _reschedule_request(options=None)
        with_options = _reschedule_request(options=_options())
        assert canonical_digest(base) != canonical_digest(with_options)

    def test_distinct_options_distinct_digests(self):
        a = _reschedule_request(options=_options(threshold=1.2))
        b = _reschedule_request(options=_options(threshold=1.3))
        assert canonical_digest(a) != canonical_digest(b)


class TestOptionsRoundTrip:
    def test_to_from_dict_is_lossless(self):
        options = _options(drift_kind="ramp", drift_magnitude=0.25, seed=3)
        payload = json.loads(json.dumps(reschedule_options_to_dict(options)))
        assert reschedule_options_from_dict(payload) == options

    def test_from_dict_fills_defaults(self):
        assert reschedule_options_from_dict({}) == RescheduleOptions()

    def test_request_round_trip_carries_options(self):
        request = _reschedule_request(options=_options())
        payload = json.loads(json.dumps(request_to_dict(request)))
        rebuilt = request_from_dict(payload)
        assert rebuilt.reschedule == request.reschedule
        assert rebuilt.kind == "reschedule"

    def test_validation(self):
        with pytest.raises(ValidationError):
            RescheduleOptions(drift_kind="sawtooth")
        with pytest.raises(ValidationError):
            RescheduleOptions(drift_kind="step", drift_magnitude=1.0)
        with pytest.raises(ValidationError):
            RescheduleOptions(drift_kind="ramp", drift_magnitude=0.0)
        with pytest.raises(ValidationError):
            RescheduleOptions(threshold=1.0)
        with pytest.raises(ValidationError):
            RescheduleOptions(window=0)
        with pytest.raises(ValidationError):
            _reschedule_request().__class__(
                kind="reschedule", spec=_spec(), num_nodes=4
            )  # placement is required


class TestExecution:
    def test_execute_request_reports_improvement(self):
        result = execute_request(_reschedule_request(options=_options()))
        assert set(result) >= {
            "static_makespan",
            "rescheduled_makespan",
            "improvement",
            "controller",
        }
        assert result["rescheduled_makespan"] < result["static_makespan"]
        assert result["improvement"] == pytest.approx(
            1.0
            - result["rescheduled_makespan"] / result["static_makespan"]
        )
        assert result["improvement"] > 0.0
        assert result["controller"]["migrations"] >= 1

    def test_execute_request_is_deterministic(self):
        request = _reschedule_request(options=_options())
        first = execute_request(request)
        second = execute_request(request)
        assert first["static_makespan"] == second["static_makespan"]
        assert (
            first["rescheduled_makespan"] == second["rescheduled_makespan"]
        )


class TestOverHttp:
    @pytest.fixture()
    def client(self):
        with (
            make_server(port=0, workers=2) as server,
            PlacementClient(server.url) as client,
        ):
            yield client

    def test_submit_reschedule_end_to_end(self, client):
        job = client.submit(_reschedule_request(options=_options()))
        snapshot = client.wait(job["id"], timeout=60.0)
        assert snapshot["state"] == "done"
        result = snapshot["result"]
        assert result["improvement"] > 0.0
        assert result["controller"]["migrations"] >= 1

    def test_stats_expose_the_reschedule_section(self, client):
        stats = client.stats()
        # one search engine, so no routing section
        assert "search" not in stats and "reschedule" in stats
        assert {
            "runs",
            "replans_triggered",
            "replans_accepted",
            "migrations",
            "components_moved",
        } <= set(stats["reschedule"])
