"""Wire-format round-trips are lossless and digests are content keys.

The serialization contract is exact: a spec / placement / score /
request that travels ``to_dict -> json -> from_dict`` comes back with
the identical floats (json renders via ``repr``, which round-trips
IEEE-754). Digests depend on content only — two independently built
but semantically identical requests share one digest; flipping any
semantic field changes it.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.components.base import ComponentModel
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.objectives import score_placement
from repro.search.engine import find_best_placement
from repro.search.reference import find_best_placement_reference
from repro.service.schemas import (
    SCHEMA_VERSION,
    PlacementRequest,
    RescheduleOptions,
    canonical_digest,
    canonical_json,
    component_to_dict,
    placement_from_dict,
    placement_to_dict,
    request_from_dict,
    request_to_dict,
    robust_score_from_dict,
    score_from_dict,
    score_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.util.errors import PlacementError, ReproError, ValidationError
from tests.strategies import ensemble_stream, search_grids


def _json_round_trip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def _best_or_skip(spec, num_nodes, cores_per_node):
    """The grid's best score, assuming the draw is feasible."""
    try:
        best, _ = find_best_placement(spec, num_nodes, cores_per_node)
    except PlacementError:
        assume(False)
    return best


def _search_request(spec, num_nodes, cores_per_node) -> PlacementRequest:
    return PlacementRequest(
        kind="search",
        spec=spec,
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
    )


class TestSpecRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(grid=search_grids())
    def test_spec_survives_json(self, grid):
        spec, _, _ = grid
        payload = _json_round_trip(spec_to_dict(spec))
        rebuilt = spec_from_dict(payload)
        # ComponentModel has no __eq__; content equality is asserted
        # through the canonical rendering itself
        assert spec_to_dict(rebuilt) == spec_to_dict(spec)
        assert rebuilt.name == spec.name
        assert len(rebuilt.members) == len(spec.members)

    @settings(max_examples=10, deadline=None)
    @given(grid=search_grids())
    def test_rebuilt_spec_scores_identically(self, grid):
        spec, num_nodes, cores_per_node = grid
        best = _best_or_skip(spec, num_nodes, cores_per_node)
        rebuilt = spec_from_dict(_json_round_trip(spec_to_dict(spec)))
        rescored = score_placement(rebuilt, best.placement)
        assert rescored.objective == best.objective
        assert rescored.ensemble_makespan == best.ensemble_makespan
        assert rescored.member_indicators == best.member_indicators

    def test_unknown_component_type_rejected(self):
        class OpaqueModel(ComponentModel):
            def solo_compute_time(self) -> float:  # pragma: no cover
                return 1.0

            def payload_bytes(self) -> int:  # pragma: no cover
                return 1

        member = default_member("em1", num_analyses=1, n_steps=2)
        opaque = OpaqueModel.__new__(OpaqueModel)
        opaque.spec = member.simulation.spec
        opaque.profile = member.simulation.profile
        with pytest.raises(ValidationError, match="non-serializable"):
            component_to_dict(opaque)

    def test_unknown_component_payload_rejected(self):
        member = default_member("em1", num_analyses=1, n_steps=2)
        payload = component_to_dict(member.simulation)
        payload["type"] = "quantum_oracle"
        with pytest.raises(ValidationError, match="unknown component type"):
            spec_from_dict(
                {
                    "name": "x",
                    "members": [
                        {
                            "name": "em1",
                            "n_steps": 2,
                            "simulation": payload,
                            "analyses": [],
                        }
                    ],
                }
            )


class TestPlacementAndScoreRoundTrip:
    def test_placement_round_trip_exact(self):
        placement = EnsemblePlacement(
            3,
            (
                MemberPlacement(0, (1, 2)),
                MemberPlacement(2, (0,)),
            ),
        )
        rebuilt = placement_from_dict(
            _json_round_trip(placement_to_dict(placement))
        )
        assert rebuilt == placement

    @settings(max_examples=10, deadline=None)
    @given(grid=search_grids())
    def test_score_floats_survive_exactly(self, grid):
        spec, num_nodes, cores_per_node = grid
        best = _best_or_skip(spec, num_nodes, cores_per_node)
        rebuilt = score_from_dict(_json_round_trip(score_to_dict(best)))
        assert rebuilt.objective == best.objective
        assert rebuilt.ensemble_makespan == best.ensemble_makespan
        assert rebuilt.member_indicators == best.member_indicators
        assert rebuilt.robust_penalty == best.robust_penalty
        assert rebuilt.placement == best.placement
        assert rebuilt == best  # PlacementScore key equality

    @pytest.mark.parametrize("method", ["surrogate", "des"])
    def test_served_ranking_deserializes_to_the_direct_scores(self, method):
        from repro.faults.recovery import make_policy
        from repro.scheduler.robust import (
            RobustScore,
            crash_straggler_factory,
            rank_placements_robust,
        )
        from repro.service.workers import execute_request

        spec = EnsembleSpec(
            "rank",
            tuple(default_member(f"em{i}", n_steps=6) for i in range(2)),
        )
        candidates = {
            "colocated": EnsemblePlacement(
                2, (MemberPlacement(0, (0,)), MemberPlacement(1, (1,)))
            ),
            "crossed": EnsemblePlacement(
                2, (MemberPlacement(0, (1,)), MemberPlacement(1, (0,)))
            ),
        }
        request = PlacementRequest(
            kind="rank",
            spec=spec,
            num_nodes=2,
            candidates=candidates,
            robust_rate=0.05,
            rank_method=method,
        )
        served = _json_round_trip(execute_request(request))["ranking"]
        direct = rank_placements_robust(
            spec,
            candidates,
            crash_straggler_factory(0.05),
            make_policy("retry"),
            trials=request.trials,
            base_seed=request.base_seed,
            method=method,
        )
        assert len(served) == len(direct) == 2
        for entry, score in zip(served, direct):
            rebuilt = robust_score_from_dict(entry)
            assert isinstance(rebuilt, RobustScore)
            for field in dataclasses.fields(RobustScore):
                assert getattr(rebuilt, field.name) == getattr(
                    score, field.name
                ), field.name


class TestRequestValidation:
    def _spec(self):
        return EnsembleSpec(
            "v", (default_member("em1", num_analyses=1, n_steps=2),)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown request kind"):
            PlacementRequest(kind="optimize", spec=self._spec(), num_nodes=2)

    def test_score_needs_placement(self):
        with pytest.raises(ValidationError, match="needs a placement"):
            PlacementRequest(kind="score", spec=self._spec(), num_nodes=2)

    def test_rank_needs_candidates(self):
        with pytest.raises(ValidationError, match="named candidate"):
            PlacementRequest(kind="rank", spec=self._spec(), num_nodes=2)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="recovery policy"):
            PlacementRequest(
                kind="search",
                spec=self._spec(),
                num_nodes=2,
                policy="wishful",
            )

    def test_unsupported_schema_version_rejected(self):
        request = _search_request(self._spec(), 2, 32)
        payload = request_to_dict(request)
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValidationError, match="schema_version"):
            request_from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            (None, []),
            (None, "x"),
            ("candidates", []),
            ("reschedule", []),
            ("coschedule", "x"),
        ],
    )
    def test_non_object_wire_data_rejected(self, field, value):
        if field is None:
            payload = value
        else:
            payload = request_to_dict(_search_request(self._spec(), 2, 32))
            payload[field] = value
        with pytest.raises(ValidationError, match="must be a JSON object"):
            request_from_dict(payload)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -0.1, 1.5, "0.1"]
    )
    def test_robust_rate_must_be_a_finite_rate(self, value):
        with pytest.raises(ValidationError, match="robust_rate"):
            PlacementRequest(
                kind="search", spec=self._spec(), num_nodes=2,
                robust_rate=value,
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_robust_weight_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValidationError, match="robust_weight"):
            PlacementRequest(
                kind="search", spec=self._spec(), num_nodes=2,
                robust_weight=value,
            )

    @pytest.mark.parametrize("value", [-1, 1.5, True, None])
    def test_base_seed_must_be_a_non_negative_int(self, value):
        payload = request_to_dict(_search_request(self._spec(), 2, 32))
        payload["base_seed"] = value
        with pytest.raises(ValidationError, match="base_seed"):
            request_from_dict(payload)

    def _reschedule_payload(self, **options) -> dict:
        request = PlacementRequest(
            kind="reschedule",
            spec=self._spec(),
            num_nodes=4,
            placement=EnsemblePlacement(4, (MemberPlacement(0, (1,)),)),
            reschedule=RescheduleOptions(),
        )
        payload = request_to_dict(request)
        payload["reschedule"].update(options)
        return payload

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1), ("seed", 1.5), ("seed", True),
            ("drift_node", 1.5), ("drift_node", True),
            ("drift_start", 1.5), ("drift_start", True),
            ("drift_magnitude", float("nan")),
            ("drift_magnitude", float("inf")),
            ("threshold", float("nan")), ("threshold", float("inf")),
            ("min_gain", float("nan")), ("min_gain", -1.0),
        ],
    )
    def test_reschedule_fields_are_checked_on_parse(self, field, value):
        with pytest.raises(ValidationError, match=field):
            request_from_dict(self._reschedule_payload(**{field: value}))

    @pytest.mark.parametrize("drift_node", [4, 99])
    def test_drift_node_must_lie_on_the_placement(self, drift_node):
        payload = self._reschedule_payload(drift_node=drift_node)
        with pytest.raises(ValidationError, match="drift_node"):
            request_from_dict(payload)

    def test_drift_node_on_the_placement_is_accepted(self):
        payload = self._reschedule_payload(drift_node=3, drift_start=0)
        assert request_from_dict(payload).reschedule.drift_node == 3


class TestPlacementFeasibility:
    """Placements a worker could not run are a 400, not a failed job."""

    #: two 16+8-core members; both on node 0 need 48 of its 32 cores
    SPEC = EnsembleSpec(
        "feasible",
        (
            default_member("em1", n_steps=2),
            default_member("em2", n_steps=2),
        ),
    )
    CROWDED = EnsemblePlacement(
        2, (MemberPlacement(0, (0,)), MemberPlacement(0, (0,)))
    )
    SPREAD = EnsemblePlacement(
        2, (MemberPlacement(0, (0,)), MemberPlacement(1, (1,)))
    )

    @pytest.mark.parametrize("kind", ["score", "reschedule"])
    def test_oversubscribed_placement_rejected(self, kind):
        with pytest.raises(PlacementError, match="oversubscribed"):
            PlacementRequest(
                kind=kind,
                spec=self.SPEC,
                num_nodes=2,
                placement=self.CROWDED,
                reschedule=RescheduleOptions() if kind == "reschedule" else None,
            )

    def test_wrong_member_count_rejected(self):
        with pytest.raises(PlacementError, match="members"):
            PlacementRequest(
                kind="score",
                spec=self.SPEC,
                num_nodes=2,
                placement=EnsemblePlacement(2, (MemberPlacement(0, (0,)),)),
            )

    @pytest.mark.parametrize(
        "candidate, match",
        [
            (CROWDED, "oversubscribed"),
            (EnsemblePlacement(1, (MemberPlacement(0, (0,)),)), "members"),
        ],
        ids=["oversubscribed", "member-count"],
    )
    def test_rank_candidate_rejected_by_name(self, candidate, match):
        candidates = {"ok": self.SPREAD, "bad": candidate}
        for method in ("surrogate", "des"):
            with pytest.raises(PlacementError, match=f"'bad'.*{match}"):
                PlacementRequest(
                    kind="rank",
                    spec=self.SPEC,
                    num_nodes=2,
                    candidates=candidates,
                    rank_method=method,
                )

    def test_capacity_is_the_physical_node_not_the_search_budget(self):
        # 24 cores per node fit a 32-core worker node even though the
        # request's search budget is 16 cores per node
        request = PlacementRequest(
            kind="score",
            spec=self.SPEC,
            num_nodes=2,
            cores_per_node=16,
            placement=self.SPREAD,
        )
        assert request_from_dict(request_to_dict(request)) is not None

    def test_rejection_happens_on_parse(self):
        payload = request_to_dict(
            PlacementRequest(
                kind="score",
                spec=self.SPEC,
                num_nodes=2,
                placement=self.SPREAD,
            )
        )
        payload["placement"] = placement_to_dict(self.CROWDED)
        with pytest.raises(PlacementError, match="oversubscribed"):
            request_from_dict(payload)


#: what ``POST /jobs`` maps to a 400 (see ``repro.service.api``)
HANDLER_400 = (ReproError, KeyError, TypeError, ValueError)

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

_REQUEST_FIELDS = (
    "schema_version", "kind", "spec", "num_nodes", "cores_per_node",
    "placement", "candidates", "robust_rate", "robust_weight", "policy",
    "base_seed", "rank_method", "trials", "reschedule", "coschedule",
)


class TestMalformedWireData:
    @settings(max_examples=150, deadline=None)
    @given(
        field=st.sampled_from(_REQUEST_FIELDS),
        value=_JSON,
        kind=st.sampled_from(["search", "score", "rank"]),
    )
    def test_parse_returns_a_request_or_a_400_error(self, field, value, kind):
        spec = EnsembleSpec(
            "fuzz", (default_member("em1", num_analyses=1, n_steps=2),)
        )
        placement = EnsemblePlacement(1, (MemberPlacement(0, (0,)),))
        request = PlacementRequest(
            kind=kind,
            spec=spec,
            num_nodes=1,
            placement=placement,
            candidates={"packed": placement},
        )
        payload = request_to_dict(request)
        payload[field] = value
        try:
            rebuilt = request_from_dict(payload)
        except HANDLER_400:
            return
        assert isinstance(rebuilt, PlacementRequest)


class TestCanonicalDigest:
    @settings(max_examples=20, deadline=None)
    @given(grid=search_grids())
    def test_round_trip_preserves_digest(self, grid):
        try:
            request = _search_request(*grid)
        except PlacementError:
            # refused at construction exactly when the search would fail
            with pytest.raises(PlacementError):
                find_best_placement_reference(*grid)
            return
        rebuilt = request_from_dict(
            _json_round_trip(request_to_dict(request))
        )
        assert canonical_digest(rebuilt) == canonical_digest(request)

    def test_independent_identical_requests_share_digest(self):
        def build():
            spec = EnsembleSpec(
                "twin", (default_member("em1", num_analyses=2, n_steps=3),)
            )
            return _search_request(spec, 3, 32)

        assert canonical_digest(build()) == canonical_digest(build())

    def test_every_semantic_field_enters_digest(self):
        spec = EnsembleSpec(
            "base", (default_member("em1", num_analyses=1, n_steps=3),)
        )
        base = _search_request(spec, 3, 32)
        variants = [
            _search_request(spec, 4, 32),  # num_nodes
            _search_request(spec, 3, 48),  # cores_per_node
            PlacementRequest(
                kind="search", spec=spec, num_nodes=3, robust_rate=0.01
            ),
            PlacementRequest(
                kind="search",
                spec=spec,
                num_nodes=3,
                robust_rate=0.01,
                policy="restart",
            ),
            _search_request(
                EnsembleSpec(
                    "base",
                    (default_member("em1", num_analyses=1, n_steps=4),),
                ),
                3,
                32,
            ),
        ]
        digests = [canonical_digest(v) for v in variants]
        assert canonical_digest(base) not in digests
        assert len(set(digests)) == len(digests)

    def test_canonical_json_is_key_order_independent(self):
        a = canonical_json({"b": 1, "a": {"y": 2.5, "x": [1, 2]}})
        b = canonical_json({"a": {"x": [1, 2], "y": 2.5}, "b": 1})
        assert a == b


class TestDesRankFields:
    """The rank_method/trials fields added for batched DES ranking."""

    def _spec(self):
        return EnsembleSpec(
            "des", (default_member("em1", num_analyses=1, n_steps=3),)
        )

    def _rank_request(self, **overrides):
        from repro.configs.generator import enumerate_placements

        spec = self._spec()
        placement = next(iter(enumerate_placements(spec, 2, 32)))
        fields = dict(
            kind="rank",
            spec=spec,
            num_nodes=2,
            candidates={"c0": placement},
        )
        fields.update(overrides)
        return PlacementRequest(**fields)

    def test_unknown_rank_method_rejected(self):
        with pytest.raises(ValidationError, match="rank_method"):
            self._rank_request(rank_method="oracle")

    def test_non_positive_trials_rejected(self):
        with pytest.raises(ValidationError, match="trials"):
            self._rank_request(trials=0)

    def test_default_values_stay_off_the_wire(self):
        """Requests predating the fields must keep their digests: the
        defaults are never serialized, so the canonical payload (and
        therefore the cache key) is byte-identical to the old format."""
        payload = request_to_dict(self._rank_request())
        assert "rank_method" not in payload
        assert "trials" not in payload

    def test_non_default_values_round_trip(self):
        request = self._rank_request(rank_method="des", trials=7)
        payload = _json_round_trip(request_to_dict(request))
        assert payload["rank_method"] == "des"
        assert payload["trials"] == 7
        rebuilt = request_from_dict(payload)
        assert rebuilt.rank_method == "des"
        assert rebuilt.trials == 7
        assert canonical_digest(rebuilt) == canonical_digest(request)

    def test_rank_method_and_trials_enter_digest(self):
        base = self._rank_request()
        variants = [
            self._rank_request(rank_method="des"),
            self._rank_request(rank_method="des", trials=7),
        ]
        digests = [canonical_digest(v) for v in variants]
        assert canonical_digest(base) not in digests
        assert len(set(digests)) == len(digests)


class TestCoscheduleFields:
    """The coschedule options field added for cluster co-scheduling."""

    def _coschedule_request(self, stream, **overrides):
        from repro.service.schemas import CoscheduleOptions

        fields = dict(
            kind="coschedule",
            spec=stream[0].spec,
            num_nodes=4,
            coschedule=CoscheduleOptions(requests=tuple(stream)),
        )
        fields.update(overrides)
        return PlacementRequest(**fields)

    @given(stream=ensemble_stream())
    @settings(max_examples=25, deadline=None)
    def test_stream_round_trips_losslessly(self, stream):
        from repro.service.schemas import coschedule_options_to_dict

        request = self._coschedule_request(stream)
        payload = _json_round_trip(request_to_dict(request))
        rebuilt = request_from_dict(payload)
        assert coschedule_options_to_dict(
            rebuilt.coschedule
        ) == coschedule_options_to_dict(request.coschedule)
        assert canonical_digest(rebuilt) == canonical_digest(request)

    @given(stream=ensemble_stream(max_requests=2))
    @settings(max_examples=10, deadline=None)
    def test_objective_weights_enter_digest(self, stream):
        from repro.service.schemas import CoscheduleOptions

        base = self._coschedule_request(stream)
        variant = self._coschedule_request(
            stream,
            coschedule=CoscheduleOptions(
                requests=tuple(stream), fairness_weight=1.0
            ),
        )
        assert canonical_digest(base) != canonical_digest(variant)

    def test_coschedule_needs_a_stream(self):
        spec = EnsembleSpec(
            "co", (default_member("em1", num_analyses=1, n_steps=3),)
        )
        with pytest.raises(ValidationError, match="stream"):
            PlacementRequest(kind="coschedule", spec=spec, num_nodes=4)

    def test_spec_must_match_first_stream_entry(self):
        from repro.coschedule.requests import EnsembleRequest
        from repro.service.schemas import CoscheduleOptions

        stream_spec = EnsembleSpec(
            "co", (default_member("em1", num_analyses=1, n_steps=3),)
        )
        other_spec = EnsembleSpec(
            "other", (default_member("em1", num_analyses=1, n_steps=5),)
        )
        options = CoscheduleOptions(
            requests=(EnsembleRequest(name="co", spec=stream_spec),)
        )
        with pytest.raises(ValidationError, match="first"):
            PlacementRequest(
                kind="coschedule",
                spec=other_spec,
                num_nodes=4,
                coschedule=options,
            )

    def test_membership_events_round_trip(self):
        from repro.coschedule.requests import EnsembleRequest, MembershipEvent
        from repro.service.schemas import CoscheduleOptions

        spec = EnsembleSpec(
            "ela", (default_member("ela-m0", num_analyses=1, n_steps=3),)
        )
        joiner = default_member("late", num_analyses=1, n_steps=3)
        stream = (
            EnsembleRequest(
                name="ela",
                spec=spec,
                membership=(
                    MembershipEvent(5.0, "join", "late", member=joiner),
                    MembershipEvent(9.0, "leave", "ela-m0"),
                ),
            ),
        )
        from repro.service.schemas import membership_event_to_dict

        request = self._coschedule_request(stream)
        payload = _json_round_trip(request_to_dict(request))
        rebuilt = request_from_dict(payload)
        rebuilt_events = rebuilt.coschedule.requests[0].membership
        assert [membership_event_to_dict(e) for e in rebuilt_events] == [
            membership_event_to_dict(e) for e in stream[0].membership
        ]

    def test_empty_stream_rejected(self):
        from repro.service.schemas import CoscheduleOptions

        with pytest.raises(ValidationError, match="at least one"):
            CoscheduleOptions(requests=())
