"""Tests for the scheduling policies."""

import itertools
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.placement import MemberPlacement
from repro.runtime.spec import EnsembleSpec, MemberSpec, default_member
from repro.scheduler.objectives import score_placement
from repro.scheduler.policies import (
    ExhaustiveSearchPolicy,
    GreedyIndicatorPolicy,
    RandomPolicy,
    RoundRobinPolicy,
)
from repro.search.canonical import CompletionCounter
from repro.util.errors import PlacementError
from tests.strategies import search_grids


@pytest.fixture
def k1_spec(two_member_spec):
    return two_member_spec


@pytest.fixture
def k2_spec():
    return EnsembleSpec(
        "k2",
        (
            default_member("em1", num_analyses=2, n_steps=5),
            default_member("em2", num_analyses=2, n_steps=5),
        ),
    )


def _feasible(spec, placement, cores_per_node=32):
    demand = placement.validate_against(spec, cores_per_node)
    return max(demand.values()) <= cores_per_node


class TestFeasibility:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            GreedyIndicatorPolicy,
            ExhaustiveSearchPolicy,
            RoundRobinPolicy,
            lambda: RandomPolicy(seed=0),
        ],
    )
    def test_placements_always_feasible(self, k2_spec, policy_factory):
        for nodes in (2, 3, 4):
            placement = policy_factory().place(k2_spec, nodes, 32)
            assert _feasible(k2_spec, placement)

    @pytest.mark.parametrize(
        "policy_factory",
        [
            GreedyIndicatorPolicy,
            ExhaustiveSearchPolicy,
            RoundRobinPolicy,
            lambda: RandomPolicy(seed=0),
        ],
    )
    def test_impossible_budget_rejected(self, k2_spec, policy_factory):
        with pytest.raises(PlacementError):
            policy_factory().place(k2_spec, 1, 32)  # 96 cores demanded


class TestOptimality:
    def test_exhaustive_finds_colocated_optimum(self, k1_spec):
        placement = ExhaustiveSearchPolicy().place(k1_spec, 2, 32)
        # the optimum is the C1.5 pattern: each member co-located
        for mp in placement.members:
            assert all(n == mp.simulation_node for n in mp.analysis_nodes)

    def test_greedy_matches_exhaustive_k1(self, k1_spec):
        greedy = GreedyIndicatorPolicy()
        exhaustive = ExhaustiveSearchPolicy()
        for nodes in (2, 3):
            g = score_placement(k1_spec, greedy.place(k1_spec, nodes, 32))
            e = score_placement(
                k1_spec, exhaustive.place(k1_spec, nodes, 32)
            )
            assert g.objective == pytest.approx(e.objective, rel=1e-9)

    def test_greedy_matches_exhaustive_k2(self, k2_spec):
        g = score_placement(
            k2_spec, GreedyIndicatorPolicy().place(k2_spec, 3, 32)
        )
        e = score_placement(
            k2_spec, ExhaustiveSearchPolicy().place(k2_spec, 3, 32)
        )
        assert g.objective == pytest.approx(e.objective, rel=1e-9)

    def test_greedy_evaluates_far_fewer_candidates(self, k2_spec):
        greedy = GreedyIndicatorPolicy()
        exhaustive = ExhaustiveSearchPolicy()
        greedy.place(k2_spec, 3, 32)
        exhaustive.place(k2_spec, 3, 32)
        assert greedy.evaluated < exhaustive.evaluated / 3

    def test_greedy_beats_baselines(self, k2_spec):
        g = score_placement(
            k2_spec, GreedyIndicatorPolicy().place(k2_spec, 3, 32)
        )
        rr = score_placement(
            k2_spec, RoundRobinPolicy().place(k2_spec, 3, 32)
        )
        rnd = score_placement(
            k2_spec, RandomPolicy(seed=7).place(k2_spec, 3, 32)
        )
        assert g.objective > rr.objective
        assert g.objective > rnd.objective


class TestBaselines:
    def test_round_robin_spreads(self, k1_spec):
        placement = RoundRobinPolicy().place(k1_spec, 4, 32)
        # with ample nodes, round robin splits sim from analysis
        for mp in placement.members:
            assert mp.analysis_nodes[0] != mp.simulation_node

    def test_random_is_seeded(self, k2_spec):
        a = RandomPolicy(seed=3).place(k2_spec, 3, 32)
        b = RandomPolicy(seed=3).place(k2_spec, 3, 32)
        assert a == b

    def test_random_seeds_differ(self, k2_spec):
        results = {
            tuple(
                (m.simulation_node, m.analysis_nodes)
                for m in RandomPolicy(seed=s).place(k2_spec, 3, 32).members
            )
            for s in range(6)
        }
        assert len(results) > 1


def _seed_member_candidates(
    self,
    member: MemberSpec,
    free: Dict[int, int],
    cores_per_node: int,
) -> List[MemberPlacement]:
    """The greedy's original member walk, verbatim: every node tuple of
    the whole budget, deduplicated by relabeling the empty nodes."""
    cores = self._component_cores(member)
    nodes = sorted(free)
    candidates: List[MemberPlacement] = []
    seen: set = set()
    for assignment in itertools.product(nodes, repeat=len(cores)):
        demand: Dict[int, int] = {}
        ok = True
        for node, c in zip(assignment, cores):
            demand[node] = demand.get(node, 0) + c
            if demand[node] > free[node]:
                ok = False
                break
        if not ok:
            continue
        # dedup: untouched empty nodes are interchangeable — relabel
        # fresh (currently empty) nodes by order of first use
        fresh = {n for n in nodes if free[n] == cores_per_node}
        relabel: Dict[int, int] = {}
        sig = []
        counter = 0
        for node in assignment:
            if node in fresh:
                if node not in relabel:
                    relabel[node] = counter
                    counter += 1
                sig.append(("fresh", relabel[node]))
            else:
                sig.append(("used", node))
        key = tuple(sig)
        if key in seen:
            continue
        seen.add(key)
        candidates.append(
            MemberPlacement(assignment[0], tuple(assignment[1:]))
        )
    return candidates


class TestGreedyMemberSpace:
    @settings(max_examples=60, deadline=None)
    @given(grid=search_grids(), data=st.data())
    def test_member_space_equals_the_seed_walk(self, grid, data):
        # members open nodes in first-use order, so the nodes in use
        # are always a prefix, each with fewer free cores than an
        # empty node
        spec, num_nodes, cores_per_node = grid
        member = data.draw(st.sampled_from(spec.members))
        opened = tuple(
            data.draw(
                st.lists(
                    st.integers(0, cores_per_node - 1),
                    max_size=num_nodes,
                )
            )
        )
        free = {
            n: opened[n] if n < len(opened) else cores_per_node
            for n in range(num_nodes)
        }
        policy = GreedyIndicatorPolicy()
        candidates = policy._member_candidates(
            member, opened, num_nodes, cores_per_node
        )
        assert candidates == _seed_member_candidates(
            policy, member, free, cores_per_node
        )
        counter = CompletionCounter(
            policy._component_cores(member), num_nodes, cores_per_node
        )
        assert counter.count(0, opened) == len(candidates)

    def test_candidates_do_not_grow_with_the_budget(self):
        # 3 members of K=2 fill at most 9 nodes, so 96 nodes offer the
        # same member spaces: a walk over every node tuple of the
        # budget would visit 96^3 per member to find them. At 50 000
        # nodes, scoring and the look-ahead must not touch every node
        spec = EnsembleSpec(
            "k2x3",
            tuple(
                default_member(f"em{i}", num_analyses=2, n_steps=5)
                for i in range(3)
            ),
        )
        small, large, huge = (GreedyIndicatorPolicy() for _ in range(3))
        on_nine = small.place(spec, 9, 32)
        on_ninety_six = large.place(spec, 96, 32)
        on_fifty_thousand = huge.place(spec, 50_000, 32)
        assert on_ninety_six.members == on_nine.members
        assert on_fifty_thousand.members == on_nine.members
        assert small.evaluated == large.evaluated == huge.evaluated == 15


def _seed_residual_feasible(
    self,
    member: MemberSpec,
    candidate: MemberPlacement,
    free: Dict[int, int],
    remaining,
) -> bool:
    """The greedy's original look-ahead, verbatim: best-fit over a free
    map of every node of the budget, sorting all of them per component."""
    residual = dict(free)
    residual[candidate.simulation_node] -= member.simulation.cores
    for ana, node in zip(member.analyses, candidate.analysis_nodes):
        residual[node] -= ana.cores
    if any(v < 0 for v in residual.values()):
        return False
    components = sorted(
        (
            cores
            for m in remaining
            for cores in self._component_cores(m)
        ),
        reverse=True,
    )
    for cores in components:
        target = None
        for node in sorted(residual, key=lambda n: residual[n]):
            if residual[node] >= cores:
                target = node  # best-fit: tightest node that fits
                break
        if target is None:
            return False
        residual[target] -= cores
    return True


@st.composite
def _members(draw, name: str, cores_per_node: int) -> MemberSpec:
    # demands around the node size, so exact fits and misfits are common
    cores = st.integers(1, cores_per_node + 1)
    return default_member(
        name,
        num_analyses=draw(st.integers(1, 3)),
        n_steps=2,
        sim_cores=draw(cores),
        ana_cores=draw(cores),
    )


class TestGreedyBudgetIndependence:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_residual_check_equals_the_seed_check(self, data):
        cores_per_node = data.draw(st.integers(1, 8))
        num_nodes = data.draw(st.integers(1, 8))
        free = data.draw(
            st.lists(
                st.integers(0, cores_per_node),
                max_size=num_nodes,
            )
        )
        member = data.draw(_members("m", cores_per_node))
        nodes = data.draw(
            st.lists(
                st.integers(0, num_nodes - 1),
                min_size=1 + len(member.analyses),
                max_size=1 + len(member.analyses),
            )
        )
        candidate = MemberPlacement(nodes[0], tuple(nodes[1:]))
        remaining = [
            data.draw(_members(f"r{i}", cores_per_node))
            for i in range(data.draw(st.integers(0, 3)))
        ]
        free_map = {
            n: free[n] if n < len(free) else cores_per_node
            for n in range(num_nodes)
        }
        policy = GreedyIndicatorPolicy()
        before = list(free)
        assert policy._residual_feasible(
            member, candidate, free, num_nodes, cores_per_node, remaining
        ) == _seed_residual_feasible(
            policy, member, candidate, free_map, remaining
        )
        assert free == before

    def test_place_never_builds_the_budget_cluster(
        self, monkeypatch, k2_spec
    ):
        import repro.platform.specs
        import repro.runtime.analytic

        built = []

        def spy(*args, **kwargs):
            built.append(args)
            raise AssertionError("the greedy built a Cori-like cluster")

        for module in (repro.platform.specs, repro.runtime.analytic):
            monkeypatch.setattr(module, "make_cori_like_cluster", spy)
        GreedyIndicatorPolicy().place(k2_spec, 3, 32)
        assert built == []
