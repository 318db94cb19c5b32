"""StageCache bit-identity: cached paths return the predictor's floats.

The cache's contract is exact equality with
:func:`repro.runtime.analytic.predict_member_stages` and the uncached
:func:`repro.search.reference.score_placement_reference` — asserted
here with ``==``, never ``approx``, across full enumerations, warm
re-use, delta (incremental) evaluation, and robustness-weighted
scoring.
"""

from __future__ import annotations

import pytest

from repro.configs.generator import enumerate_placements
from repro.dtl.pfs import ParallelFilesystemDTL
from repro.faults.analytic import RobustnessTerm
from repro.faults.models import RandomFailureModel
from repro.faults.recovery import RetryBackoffPolicy
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.search.cache import StageCache
from repro.search.canonical import component_core_demands
from repro.search.reference import score_placement_reference
from repro.util.errors import PlacementError


class TestPredictBitIdentity:
    def test_predict_matches_predictor_on_full_enumeration(
        self, two_member_spec
    ):
        cache = StageCache()
        for placement in enumerate_placements(two_member_spec, 3, 32):
            assert cache.predict(
                two_member_spec, placement
            ) == predict_member_stages(two_member_spec, placement)

    def test_warm_cache_returns_identical_stages(self, two_member_spec):
        cache = StageCache()
        placements = list(enumerate_placements(two_member_spec, 3, 32))
        cold = [cache.predict(two_member_spec, p) for p in placements]
        misses_after_cold = cache.stage_misses
        warm = [cache.predict(two_member_spec, p) for p in placements]
        assert warm == cold
        # the second pass is all hits — nothing was recomputed
        assert cache.stage_misses == misses_after_cold
        assert cache.stage_hits > 0

    def test_explicit_context_matches_predictor(self, two_member_spec):
        cluster = make_cori_like_cluster(2)
        dtl = ParallelFilesystemDTL()
        cache = StageCache(cluster=cluster, dtl=dtl)
        placement = EnsemblePlacement(
            2, (MemberPlacement(0, (1,)), MemberPlacement(1, (0,)))
        )
        assert cache.predict(
            two_member_spec, placement
        ) == predict_member_stages(
            two_member_spec, placement, cluster=cluster, dtl=dtl
        )

    def test_oversubscription_raises(self, two_member_spec):
        cache = StageCache()
        everything_on_one_node = EnsemblePlacement(
            1, (MemberPlacement(0, (0,)), MemberPlacement(0, (0,)))
        )
        with pytest.raises(PlacementError):
            cache.predict(two_member_spec, everything_on_one_node)


class TestScorePlacementCachedPath:
    def test_cached_score_is_exact(self, two_member_spec):
        context = PlanningContext(cache=StageCache())
        for placement in enumerate_placements(two_member_spec, 3, 32):
            cached = score_placement(
                two_member_spec, placement, context=context
            )
            plain = score_placement_reference(two_member_spec, placement)
            assert cached.objective == plain.objective
            assert cached.ensemble_makespan == plain.ensemble_makespan
            assert cached.member_indicators == plain.member_indicators
            assert cached.robust_penalty == plain.robust_penalty

    def test_cached_score_with_robustness_is_exact(
        self, two_member_spec, colocated_placement
    ):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(),
            model=RandomFailureModel(rate=0.01, seed=0),
        )
        robust = PlanningContext(robustness=term)
        cached = score_placement(
            two_member_spec, colocated_placement,
            context=robust.evolve(cache=StageCache()),
        )
        plain = score_placement_reference(
            two_member_spec, colocated_placement, robustness=term
        )
        assert cached.robust_penalty == plain.robust_penalty
        assert cached.utility == plain.utility


class TestDeltaEvaluation:
    def _flats(self, spec, num_nodes, cores_per_node):
        from repro.search.canonical import iter_canonical_assignments

        cores = component_core_demands(spec)
        return [
            list(a)
            for a in iter_canonical_assignments(
                cores, num_nodes, cores_per_node
            )
        ]

    def test_single_move_delta_equals_fresh(self, two_member_spec):
        cache = StageCache()
        flats = self._flats(two_member_spec, 3, 32)
        # walk consecutive canonical assignments; when they differ by
        # relocating components between exactly two nodes, delta-update
        for prev_flat, next_flat in zip(flats, flats[1:]):
            changed = frozenset(
                {a for a, b in zip(prev_flat, next_flat) if a != b}
                | {b for a, b in zip(prev_flat, next_flat) if a != b}
            )
            if not changed or len(changed) > 2:
                continue
            previous = cache.evaluate_flat(two_member_spec, prev_flat, 3)
            delta = cache.evaluate_flat(
                two_member_spec, next_flat, 3,
                changed_nodes=changed, previous=previous,
            )
            # non-delta evaluation on the same cache: signatures use
            # the same interning, so everything must agree exactly
            fresh = cache.evaluate_flat(two_member_spec, next_flat, 3)
            assert delta.indicators == fresh.indicators
            assert delta.makespans == fresh.makespans
            assert delta.sigs == fresh.sigs
            assert delta.worst_makespan == fresh.worst_makespan
            # and against a cold cache, the numeric terms still match
            cold = StageCache().evaluate_flat(
                two_member_spec, next_flat, 3
            )
            assert delta.indicators == cold.indicators
            assert delta.makespans == cold.makespans

    def test_untouched_member_carries_over_without_recompute(
        self, two_member_spec
    ):
        cache = StageCache()
        prev_flat = [0, 0, 1, 1]  # em1 on node 0, em2 on node 1
        next_flat = [0, 0, 2, 2]  # em2 relocated wholesale to node 2
        previous = cache.evaluate_flat(two_member_spec, prev_flat, 3)
        misses_before = cache.stage_misses
        delta = cache.evaluate_flat(
            two_member_spec, next_flat, 3,
            changed_nodes=frozenset({1, 2}), previous=previous,
        )
        # em1 never touched nodes 1 or 2: its terms are the same
        # objects, carried over, not recomputed
        assert delta.stages[0] is previous.stages[0]
        assert delta.indicators[0] == previous.indicators[0]
        # em2's new neighborhood (alone on a node) is the same local
        # signature as before, so even its re-signing hits the cache
        assert cache.stage_misses == misses_before


class TestClear:
    FLATS = ([0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 2])

    def test_clear_empties_the_tables_and_keeps_the_counters(
        self, two_member_spec
    ):
        cache = StageCache()
        before = [
            cache.evaluate_flat(two_member_spec, f, 3) for f in self.FLATS
        ]
        stats = cache.stats()
        assert cache.entries() > 0
        cache.clear()
        assert cache.entries() == 0
        assert cache.stats() == stats
        after = [
            cache.evaluate_flat(two_member_spec, f, 3) for f in self.FLATS
        ]
        assert [e.indicators for e in after] == [e.indicators for e in before]
        assert [e.makespans for e in after] == [e.makespans for e in before]
        # the lookups after the clear missed, and counted on
        assert cache.stage_misses > stats["stage_misses"]

    def test_ids_are_not_reused_after_a_clear(self, two_member_spec):
        # a search still running across the clear keeps its old ids;
        # they must never name an entry made after it
        cache = StageCache()

        def interned():
            cache.evaluate_flat(two_member_spec, self.FLATS[0], 3)
            return set(cache._class_ids.values()) | set(
                cache._node_sig_ids.values()
            )

        old = interned()
        cache.clear()
        new = interned()
        assert old and new and not old & new
