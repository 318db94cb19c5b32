"""Tests for the end-to-end indicator pipeline API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indicators import (
    IndicatorStage,
    MemberMeasurement,
    PlacementSets,
    apply_stages,
)
from repro.core.pipeline import (
    STAGE_PATHS,
    ensemble_objective_paths,
    member_indicator_paths,
)
from repro.core.objective import objective_function
from repro.core.stages import AnalysisStages, MemberStages, SimulationStages
from repro.util.errors import ValidationError
from tests.strategies import member_stages, placement_sets


def measurement(name, sim_nodes, ana_nodes, sim=14.0, ana=12.0):
    stages = MemberStages(
        SimulationStages(sim, 0.3), (AnalysisStages(0.1, ana),)
    )
    return MemberMeasurement(
        name,
        stages,
        24,
        PlacementSets(frozenset(sim_nodes), (frozenset(ana_nodes),)),
    )


class TestStagePaths:
    def test_covers_both_section52_paths(self):
        assert list(STAGE_PATHS) == ["U", "U,P", "U,A", "U,P,A", "U,A,P"]

    def test_every_path_starts_with_usage(self):
        for stages in STAGE_PATHS.values():
            assert stages[0] is IndicatorStage.USAGE


class TestMemberIndicatorPaths:
    def test_matches_apply_stages(self):
        m = measurement("em1", {0}, {0})
        paths = member_indicator_paths(m, total_nodes=2)
        for label, stages in STAGE_PATHS.items():
            assert paths[label] == pytest.approx(
                apply_stages(m, stages, 2)
            )

    def test_final_values_agree(self):
        m = measurement("em1", {0}, {1})
        paths = member_indicator_paths(m, total_nodes=3)
        assert paths["U,A,P"] == pytest.approx(paths["U,P,A"])


class TestEnsembleObjectivePaths:
    def test_matches_manual_objective(self):
        members = [
            measurement("em1", {0}, {0}),
            measurement("em2", {1}, {1}, ana=11.0),
        ]
        table = ensemble_objective_paths(members, total_nodes=2)
        manual = objective_function(
            [member_indicator_paths(m, 2)["U,A,P"] for m in members]
        )
        assert table["U,A,P"] == pytest.approx(manual)

    def test_c14_vs_c15_reproduced_through_api(self):
        """The paper's Figure 8 discriminations, straight through the
        public API with synthetic measurements."""
        c15 = ensemble_objective_paths(
            [measurement("em1", {0}, {0}), measurement("em2", {1}, {1})],
            total_nodes=2,
        )
        c14 = ensemble_objective_paths(
            [measurement("em1", {0}, {1}), measurement("em2", {0}, {1})],
            total_nodes=2,
        )
        # same efficiency and node count: U and U,P identical...
        assert c14["U"] == pytest.approx(c15["U"])
        assert c14["U,P"] == pytest.approx(c15["U,P"])
        # ...but the placement layer separates them 2x
        assert c15["U,A"] == pytest.approx(2 * c14["U,A"])
        assert c15["U,A,P"] == pytest.approx(2 * c14["U,A,P"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ensemble_objective_paths([], total_nodes=2)


@st.composite
def ensemble_measurements(draw, min_members=1, max_members=12):
    """Members with K of 1-4 each and a node count ``M``; one case in
    ten gives a member zero-duration stages (Eq. 3 rejects them) and
    one in ten an ``M`` that is too small or not a positive int."""
    n = draw(st.integers(min_value=min_members, max_value=max_members))
    case = draw(st.integers(min_value=0, max_value=9))
    idle = draw(st.integers(min_value=0, max_value=n - 1)) if case == 0 else -1
    members = []
    for i in range(n):
        stages = draw(member_stages(max_analyses=4))
        if i == idle:
            stages = MemberStages(
                SimulationStages(0.0, 0.0),
                (AnalysisStages(0.0, 0.0),) * stages.num_couplings,
            )
        members.append(
            MemberMeasurement(
                f"em{i}",
                stages,
                draw(st.integers(min_value=1, max_value=64)),
                draw(placement_sets(k=stages.num_couplings)),
            )
        )
    spans = max(m.placement.num_nodes for m in members)
    if case == 1:
        total_nodes = draw(st.sampled_from([spans - 1, 0, -1, True, 2.0]))
    else:
        total_nodes = spans + draw(st.integers(min_value=0, max_value=3))
    return members, total_nodes


def per_label_objectives(members, total_nodes):
    """Eq. 9 of each label's values, one scalar call per label."""
    return {
        label: objective_function(
            [apply_stages(m, stages, total_nodes) for m in members]
        )
        for label, stages in STAGE_PATHS.items()
    }


def outcome(function, members, total_nodes):
    """The function's table as ``(label, F)`` pairs, or its error."""
    try:
        return list(function(members, total_nodes).items())
    except ValidationError as exc:
        return ("raises", str(exc))


def per_label_values(member, total_nodes):
    """Each label's value from its own ``apply_stages`` call."""
    return {
        label: apply_stages(member, stages, total_nodes)
        for label, stages in STAGE_PATHS.items()
    }


class TestMemberPathsEqualApplyStages:
    @settings(max_examples=150, deadline=None)
    @given(case=ensemble_measurements(max_members=3))
    def test_every_label_bit_for_bit(self, case):
        members, total_nodes = case
        for member in members:
            assert outcome(member_indicator_paths, member, total_nodes) == (
                outcome(per_label_values, member, total_nodes)
            )


class TestOneReductionPerTable:
    """One Eq. 9 row reduction per table equals the per-label scalar
    path bit for bit, and raises what it raises."""

    @settings(max_examples=150, deadline=None)
    @given(case=ensemble_measurements())
    def test_equals_the_scalar_path(self, case):
        members, total_nodes = case
        assert outcome(ensemble_objective_paths, members, total_nodes) == (
            outcome(per_label_objectives, members, total_nodes)
        )

    @settings(max_examples=60, deadline=None)
    @given(case=ensemble_measurements(min_members=8))
    def test_equals_the_scalar_path_at_eight_members_and_more(self, case):
        # numpy sums eight or more values pairwise, in blocks
        members, total_nodes = case
        assert outcome(ensemble_objective_paths, members, total_nodes) == (
            outcome(per_label_objectives, members, total_nodes)
        )
