"""The placement-space walker vs the seed product-then-dedup stream.

The walker's contract is exact: same placements, same order, same
counts as the reference implementation, on every (N, K, M, node)
combination — property-tested over the grid the paper's evaluation
actually spans, for the canonical space (no node opened) and the
labelled space (every node opened).
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.configs.generator import (
    count_feasible_placements,
    enumerate_placements,
)
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.policies import RandomPolicy
from repro.search.canonical import (
    CompletionCounter,
    assignment_to_placement,
    component_core_demands,
    count_canonical_assignments,
    iter_assignment_chunks,
    iter_canonical_assignments,
    node_core_demands,
    placement_to_assignment,
)
from repro.search.reference import (
    canonical_signature,
    count_feasible_placements_reference,
    enumerate_placements_reference,
)
from repro.util.errors import PlacementError, ValidationError
from tests.strategies import search_grids


class TestFlatAssignmentFormat:
    @settings(max_examples=40, deadline=None)
    @given(grid=search_grids(), seed=st.integers(0, 2**31 - 1))
    def test_round_trip_and_node_demands(self, grid, seed):
        spec, num_nodes, cores_per_node = grid
        try:
            placement = RandomPolicy(seed=seed).place(
                spec, num_nodes, cores_per_node
            )
        except PlacementError:
            assume(False)
        assignment = placement_to_assignment(placement)
        assert (
            assignment_to_placement(spec, assignment, placement.num_nodes)
            == placement
        )
        expected = {}
        for member, mp in zip(spec.members, placement.members):
            nodes = (mp.simulation_node,) + mp.analysis_nodes
            models = (member.simulation,) + tuple(member.analyses)
            for node, model in zip(nodes, models):
                expected[node] = expected.get(node, 0) + model.cores
        demand = node_core_demands(component_core_demands(spec), assignment)
        assert demand == expected
        assert max(demand.values()) <= cores_per_node


class TestCanonicalMatchesReference:
    @settings(max_examples=30, deadline=None)
    @given(grid=search_grids())
    def test_same_stream_same_order(self, grid):
        spec, num_nodes, cores_per_node = grid
        fast = list(enumerate_placements(spec, num_nodes, cores_per_node))
        seed = list(
            enumerate_placements_reference(spec, num_nodes, cores_per_node)
        )
        assert fast == seed

    @settings(max_examples=30, deadline=None)
    @given(grid=search_grids())
    def test_counts_match_reference(self, grid):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        assert count_canonical_assignments(
            cores, num_nodes, cores_per_node
        ) == count_feasible_placements_reference(
            spec, num_nodes, cores_per_node
        )

    def test_every_yielded_assignment_is_rgs(self):
        # labels open in first-use order: prefix max rule
        for assignment in iter_canonical_assignments([16, 8, 16, 8], 3, 32):
            seen_max = -1
            for label in assignment:
                assert label <= seen_max + 1
                seen_max = max(seen_max, label)
            assert assignment == canonical_signature(assignment)

    def test_capacity_respected(self):
        for assignment in iter_canonical_assignments([16, 8, 16, 8], 2, 24):
            demand = {}
            for label, cores in zip(assignment, [16, 8, 16, 8]):
                demand[label] = demand.get(label, 0) + cores
            assert all(d <= 24 for d in demand.values())

    def test_infeasible_space_is_empty(self):
        assert list(iter_canonical_assignments([40], 2, 32)) == []
        assert count_canonical_assignments([40], 2, 32) == 0
        labelled = iter_canonical_assignments([40], 2, 32, opened=(32, 32))
        assert list(labelled) == []
        assert CompletionCounter([40], 2, 32).count(0, (32, 32)) == 0


class TestGeneratorDelegation:
    """The public generator API now runs on the canonical engine."""

    def test_dedup_stream_unchanged(self, two_member_spec):
        fast = list(enumerate_placements(two_member_spec, 3, 32))
        seed = list(
            enumerate_placements_reference(two_member_spec, 3, 32)
        )
        assert fast == seed

    def test_count_without_materializing(self, two_member_spec):
        # the count comes from the closed-form recursion, and agrees
        # with brute-force enumeration
        assert count_feasible_placements(
            two_member_spec, 3, 32
        ) == count_feasible_placements_reference(two_member_spec, 3, 32)

    def test_count_scales_past_enumeration(self):
        # a space big enough that materializing it would be absurd —
        # the DP sizes it instantly (raw space here is 64^10)
        spec = EnsembleSpec(
            "big",
            tuple(
                default_member(f"em{i}", n_steps=4) for i in range(5)
            ),
        )
        count = count_feasible_placements(spec, 64, 32)
        assert count > 0

    def test_invalid_inputs_raise(self, two_member_spec):
        with pytest.raises(ValidationError):
            count_feasible_placements(two_member_spec, 0, 32)
        with pytest.raises(ValidationError):
            list(enumerate_placements(two_member_spec, 2, 0))


def _rows(placements):
    return [tuple(placement_to_assignment(p)) for p in placements]


class TestPlacementSpaces:
    """Each space of the walker equals its seed stream, and the
    closed-form counter sizes it exactly (the greedy's member space is
    gated in ``tests/scheduler/test_policies.py``)."""

    @settings(max_examples=40, deadline=None)
    @given(grid=search_grids())
    def test_no_node_opened_is_the_canonical_stream(self, grid):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        rows = list(iter_canonical_assignments(cores, num_nodes, cores_per_node))
        assert rows == _rows(
            enumerate_placements_reference(spec, num_nodes, cores_per_node)
        )
        counter = CompletionCounter(cores, num_nodes, cores_per_node)
        assert counter.count(0, ()) == len(rows)

    @settings(max_examples=40, deadline=None)
    @given(grid=search_grids())
    def test_every_node_opened_is_the_labelled_product_walk(self, grid):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        opened = (cores_per_node,) * num_nodes
        rows = list(
            iter_canonical_assignments(
                cores, num_nodes, cores_per_node, opened=opened
            )
        )
        assert rows == _rows(
            enumerate_placements_reference(
                spec, num_nodes, cores_per_node, dedup_symmetric=False
            )
        )
        counter = CompletionCounter(cores, num_nodes, cores_per_node)
        assert counter.count(0, opened) == len(rows)

    def test_no_component_means_an_empty_stream_and_a_zero_count(self):
        assert list(iter_canonical_assignments([], 2, 32)) == []
        assert CompletionCounter([], 2, 32).count(0, ()) == 0
        assert CompletionCounter([], 2, 32).total() == 0


class TestArgumentChecks:
    """Bad arguments raise ValidationError at the call, before any
    iteration."""

    def test_walkers_check_at_the_call(self, two_member_spec):
        cores = component_core_demands(two_member_spec)
        with pytest.raises(ValidationError):
            iter_canonical_assignments(cores, 0, 32)
        with pytest.raises(ValidationError):
            iter_canonical_assignments(cores, 2, 32, opened=(32, 32, 32))
        with pytest.raises(ValidationError):
            iter_assignment_chunks(cores, 2, 0)
        with pytest.raises(ValidationError):
            iter_assignment_chunks(cores, 2, 32, chunk_size=0)

    @pytest.mark.parametrize(
        "opened",
        [(32, 32, 32), (33,), (-1,), (True,), (8.0,), ("8",)],
        ids=["too-many", "above-capacity", "negative", "bool", "float", "str"],
    )
    def test_bad_opened_capacities_are_refused(self, opened):
        with pytest.raises(ValidationError):
            iter_assignment_chunks([16, 8], 2, 32, opened=opened)
        with pytest.raises(ValidationError):
            CompletionCounter([16, 8], 2, 32).count(0, opened)

    @pytest.mark.parametrize("index", [-1, 3, True, 1.0])
    def test_counter_refuses_a_bad_component_index(self, index):
        with pytest.raises(ValidationError):
            CompletionCounter([16, 8], 2, 32).count(index, ())

    def test_boundary_capacities_are_accepted(self):
        # a full opened node is valid input and is never chosen
        rows = list(iter_canonical_assignments([16, 8], 2, 32, opened=(0,)))
        assert rows == [(1, 1)]
        assert CompletionCounter([16, 8], 2, 32).count(0, (0,)) == 1
