"""Boundary conformance: the engine and the reference loop agree at the edges.

Degenerate budgets are where a fast path most easily diverges from the
loop it replaced — a closed-form refusal that fires too early or too
late, a table sized for the wrong label range, an off-by-one at a
capacity limit. For each boundary below,
:func:`~repro.search.engine.find_best_placement` and
:func:`~repro.search.reference.find_best_placement_reference` must
return the same winner, floats and ``evaluated``, or raise the same
:class:`~repro.util.errors.PlacementError` class (with the same message
when the space is empty).
"""

import pytest

from repro.runtime.spec import EnsembleSpec, default_member
from repro.search.engine import find_best_placement
from repro.search.reference import find_best_placement_reference
from repro.util.errors import PlacementError


def _spec(*analyses: int, n_steps: int = 4) -> EnsembleSpec:
    """Default 16-core simulations with 8-core analyses."""
    return EnsembleSpec(
        "edge",
        tuple(
            default_member(f"em{i}", num_analyses=k, n_steps=n_steps)
            for i, k in enumerate(analyses)
        ),
    )


def _assert_same(spec, num_nodes, cores_per_node):
    best, evaluated = find_best_placement(spec, num_nodes, cores_per_node)
    ref, ref_evaluated = find_best_placement_reference(
        spec, num_nodes, cores_per_node
    )
    assert evaluated == ref_evaluated
    assert best.placement == ref.placement
    assert best.objective == ref.objective
    assert best.ensemble_makespan == ref.ensemble_makespan
    assert best.member_indicators == ref.member_indicators
    assert best.robust_penalty == ref.robust_penalty
    return best, evaluated


def _assert_both_raise(spec, num_nodes, cores_per_node):
    with pytest.raises(PlacementError) as ref:
        find_best_placement_reference(spec, num_nodes, cores_per_node)
    with pytest.raises(PlacementError) as fast:
        find_best_placement(spec, num_nodes, cores_per_node)
    assert type(fast.value) is type(ref.value)
    return str(fast.value), str(ref.value)


class TestBoundaries:
    def test_one_node(self):
        _, evaluated = _assert_same(_spec(1, n_steps=1), 1, 32)
        assert evaluated == 1

    def test_budget_exactly_at_a_members_demand(self):
        # 16 + 8 cores: the member fits a 24-core budget only packed
        _, evaluated = _assert_same(_spec(1), 2, 24)
        assert evaluated == 2

    def test_budget_one_core_below_a_members_demand(self):
        # the simulation still fits 23 cores, so only co-location is
        # lost: the member spreads over two nodes
        best, _ = _assert_same(_spec(1), 2, 23)
        assert best.placement.members[0].analysis_nodes == (1,)
        # one node of 23 cores cannot hold both components
        fast, ref = _assert_both_raise(_spec(1), 1, 23)
        assert fast == ref

    def test_budget_above_the_physical_node(self):
        # 48 cores let two 24-core members share a node the physical
        # 32 cores cannot hold: both paths refuse the budget
        _assert_both_raise(_spec(1, 1), 2, 48)

    def test_budget_above_the_physical_node_without_oversubscription(self):
        # one 24-core member never exceeds 32 cores, whatever the budget
        _assert_same(_spec(1), 2, 48)

    def test_million_node_budget(self):
        # canonical labels stop at the component count, so a huge
        # budget costs what a small one does; M enters the indicators
        best, evaluated = _assert_same(_spec(1, 2), 10**6, 32)
        assert best.num_nodes == 10**6
        # the space of a five-node budget: one node per component
        assert evaluated == find_best_placement(_spec(1, 2), 5, 32)[1] == 40

    def test_empty_space(self):
        fast, ref = _assert_both_raise(_spec(1, 1), 1, 32)
        assert fast == ref == "no feasible placement over 1 nodes of 32 cores"
