"""The column kernel returns exactly what the scalar paths do.

Covers :mod:`repro.search.vectorized` — the one exhaustive engine —
against the scalar scorer and the scalar search loop kept in
:func:`~repro.search.reference.find_best_placement_reference`:

- **stream identity** — chunked array enumeration concatenates to the
  exact canonical assignment stream, for any chunk size, and the
  closed-form :class:`CompletionCounter` sizes it without enumerating;
- **score identity** — every row of :meth:`VectorizedScorer
  .score_chunk` equals the uncached :func:`~repro.search.reference
  .score_placement_reference` bit for bit (the oracle's ``vectorized``
  tier is 0.0), including members of 3-4 analyses and non-default
  networks and staging tiers;
- **search identity** — branch-and-bound never prunes the true
  optimum: :func:`find_best_placement` returns the reference loop's
  winner, floats, robust penalty and ``evaluated`` on plan-mix-shaped
  grids of up to 4 analyses per member, on robust contexts and on
  parallel-FS, burst-buffer, contention-off and subclassed-dragonfly
  platforms, and the batch argmax helpers reproduce the serial loop's
  strict ``>`` tie-breaking on tie-heavy grids;
- **one population memo** — the kernel assesses node populations
  through the :class:`~repro.search.cache.StageCache` node memo, and a
  cache handed to a planning call is that call's platform.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.search.vectorized as vectorized_mod
from repro.core.columns import co_location_indicator
from repro.dtl.burstbuffer import BurstBufferDTL
from repro.dtl.dimes import InMemoryStagingDTL
from repro.dtl.pfs import ParallelFilesystemDTL
from repro.faults.analytic import RobustnessTerm, node_crash_builder
from repro.faults.recovery import make_policy
from repro.platform.cluster import Cluster
from repro.platform.contention import ContentionModel
from repro.platform.network import DragonflyNetwork
from repro.platform.specs import cori_like_node, make_cori_like_cluster
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.scheduler.annealing import SimulatedAnnealingPolicy
from repro.scheduler.objectives import score_placement
from repro.scheduler.policies import ExhaustiveSearchPolicy
from repro.search import find_best_placement
from repro.search.cache import StageCache
from repro.search.canonical import (
    CompletionCounter,
    assignment_to_placement,
    component_core_demands,
    count_canonical_assignments,
    iter_assignment_chunks,
    iter_canonical_assignments,
    placement_to_assignment,
)
from repro.search.reference import (
    anneal_reference,
    enumerate_placements_reference,
    find_best_placement_reference,
    score_placement_reference,
)
from repro.search.vectorized import (
    VectorizedScorer,
    argmax_batch,
    find_best_placement_vectorized,
)
from repro.util.errors import PlacementError, ValidationError
from tests.strategies import plan_mix_grids, search_grids

# the oracle's ``vectorized`` tier tolerance (see DEFAULT_TOLERANCES)
VECTORIZED_TOL = 0.0

CHUNK_SIZES = st.sampled_from([1, 3, 17, 8192])


class _SubclassedNetwork(DragonflyNetwork):
    """A dragonfly whose hop counts depend on the labels' parity.

    Nothing like the Cori topology, so only the model's own methods
    can fill the kernel's staging columns correctly.
    """

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        return 1 + (src + dst) % 3


def _contexts() -> dict:
    """The non-default platforms every exactness check runs on, each a
    fresh :class:`StageCache` in its own context."""
    caches = {
        "parallel-fs": StageCache(dtl=ParallelFilesystemDTL()),
        "burst-buffer": StageCache(dtl=BurstBufferDTL()),
        "contention-off": StageCache(
            make_cori_like_cluster(16, contention_enabled=False),
            InMemoryStagingDTL(producer_progress_tax=0.03),
        ),
        "subclassed-dragonfly": StageCache(
            Cluster(
                node_spec=cori_like_node(),
                num_nodes=16,
                network=_SubclassedNetwork(),
            )
        ),
    }
    return {name: PlanningContext(cache=c) for name, c in caches.items()}


def _platform(context: PlanningContext) -> dict:
    """The ``cluster``/``dtl`` of a context's cache, for the uncached
    reference scorer (the Cori-like defaults when it has none)."""
    cache = context.cache or StageCache()
    return dict(cluster=cache.cluster, dtl=cache.dtl)


def _robust_context() -> PlanningContext:
    return PlanningContext(
        robustness=RobustnessTerm(
            policy=make_policy("retry"),
            model_builder=node_crash_builder(0.05),
            weight=2.0,
        )
    )


def _tie_heavy_spec(num_members: int = 3) -> EnsembleSpec:
    """Identical members: many placements score exactly the same."""
    return EnsembleSpec(
        "ties",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=4)
            for i in range(num_members)
        ),
    )


def _mixed_spec() -> EnsembleSpec:
    """Plan-mix-like: members of different sizes and shapes."""
    return EnsembleSpec(
        "mixed",
        tuple(
            default_member(
                f"em{i}", num_analyses=k, n_steps=8, natoms=natoms
            )
            for i, (k, natoms) in enumerate(
                ((1, 150_000), (2, 250_000), (2, 350_000))
            )
        ),
    )


def _scalar_bound(spec, prefix, suffix, num_nodes) -> float:
    """The branch-and-bound cap of a prefix of whole members, summed one
    member at a time."""
    placed = 0.0
    start = m = 0
    while start < len(prefix):
        member = spec.members[m]
        k = member.num_couplings
        analyses = prefix[start + 1 : start + 1 + k]
        remote = sum(1 for node in analyses if node != prefix[start])
        placed += co_location_indicator(k, remote) / member.total_cores
        start += 1 + k
        m += 1
    return ((placed + suffix[m]) / (len(spec.members) * num_nodes)) * (
        1.0 + vectorized_mod.BOUND_SAFETY
    )


def _assert_same_search(fast, scalar) -> None:
    """Same winner, same floats, same penalty, same ``evaluated``."""
    (best, evaluated), (ref, ref_evaluated) = fast, scalar
    assert evaluated == ref_evaluated
    assert best.placement == ref.placement
    assert best.objective == ref.objective
    assert best.ensemble_makespan == ref.ensemble_makespan
    assert best.member_indicators == ref.member_indicators
    assert best.robust_penalty == ref.robust_penalty


def _assert_matches_reference(spec, num_nodes, cores_per_node, context):
    """The engine equals the reference loop, or both raise alike.

    The loop runs on a fresh cache of the same platform, so the two
    engines share no memo entry.
    """
    try:
        reference = find_best_placement_reference(
            spec,
            num_nodes,
            cores_per_node,
            context=context.evolve(cache=StageCache(**_platform(context))),
        )
    except PlacementError:
        with pytest.raises(PlacementError):
            find_best_placement(
                spec, num_nodes, cores_per_node, context=context
            )
        return
    _assert_same_search(
        find_best_placement(spec, num_nodes, cores_per_node, context=context),
        reference,
    )


def _assert_rows_exact(spec, num_nodes, rows, context=None) -> None:
    """Every kernel row equals the uncached scorer bit for bit."""
    context = context or PlanningContext()
    scorer = VectorizedScorer(spec, num_nodes, cache=context.cache)
    batch = scorer.score_chunk(np.asarray(rows, dtype=np.int64))
    for i, assignment in enumerate(rows):
        scalar = score_placement_reference(
            spec,
            assignment_to_placement(spec, assignment, num_nodes),
            **_platform(context),
        )
        assert float(batch.objectives[i]) == scalar.objective
        assert float(batch.makespans[i]) == scalar.ensemble_makespan
        assert tuple(batch.indicators[i].tolist()) == (
            scalar.member_indicators
        )


class TestChunkedEnumeration:
    @given(grid=search_grids(), chunk_size=CHUNK_SIZES)
    @settings(max_examples=30, deadline=None)
    def test_chunks_concatenate_to_canonical_stream(self, grid, chunk_size):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        reference = [
            tuple(placement_to_assignment(p))
            for p in enumerate_placements_reference(
                spec, num_nodes, cores_per_node
            )
        ]
        chunks = list(
            iter_assignment_chunks(
                cores, num_nodes, cores_per_node, chunk_size=chunk_size
            )
        )
        assert all(c.shape[0] <= chunk_size for c in chunks)
        if not reference:
            assert chunks == []
            return
        stacked = np.concatenate(chunks, axis=0)
        assert stacked.shape == (len(reference), len(cores))
        assert [tuple(row) for row in stacked.tolist()] == reference

    @given(grid=search_grids())
    @settings(max_examples=30, deadline=None)
    def test_completion_counter_totals_the_space(self, grid):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        counter = CompletionCounter(cores, num_nodes, cores_per_node)
        assert counter.total() == sum(
            len(chunk)
            for chunk in iter_assignment_chunks(
                cores, num_nodes, cores_per_node
            )
        )


class TestScoreAgreement:
    @given(grid=search_grids())
    @settings(max_examples=15, deadline=None)
    def test_chunk_scores_match_scalar_scorer(self, grid):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        assignments = list(
            iter_canonical_assignments(cores, num_nodes, cores_per_node)
        )[:200]
        if not assignments:
            return
        # a search budget above the physical node capacity (cori: 32
        # cores) can enumerate candidates both paths refuse to score
        overloaded = any(
            max(
                sum(c for c, n in zip(cores, row) if n == node)
                for node in set(row)
            )
            > 32
            for row in assignments
        )
        if overloaded:
            scorer = VectorizedScorer(spec, num_nodes)
            with pytest.raises(PlacementError):
                scorer.score_chunk(np.asarray(assignments, dtype=np.int64))
            return
        _assert_rows_exact(spec, num_nodes, assignments)

    @given(grid=plan_mix_grids(max_analyses=4))
    @settings(max_examples=20, deadline=None)
    def test_rows_with_three_or_four_analyses_are_exact(self, grid):
        # a member's analysis times are summed left to right, as the
        # scalar ``sum()`` adds them; a segment reduction would not be
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        rows = list(
            iter_canonical_assignments(cores, num_nodes, cores_per_node)
        )[:300]
        if rows:
            _assert_rows_exact(spec, num_nodes, rows)

    @pytest.mark.parametrize("name", sorted(_contexts()))
    def test_rows_on_non_default_platforms_are_exact(self, name):
        spec = _mixed_spec()
        cores = component_core_demands(spec)
        rows = list(iter_canonical_assignments(cores, 5, 32))[::4]
        _assert_rows_exact(spec, 5, rows, context=_contexts()[name])

    def test_score_assignments_validates_oversubscription(self):
        spec = _tie_heavy_spec(2)
        scorer = VectorizedScorer(spec, 2)
        # every component on node 0: 2 x (16 + 8) = 48 > 32 cores
        with pytest.raises(PlacementError):
            scorer.score_assignments([[0, 0, 0, 0]])

    def test_score_chunk_rejects_bad_shapes_and_labels(self):
        spec = _tie_heavy_spec(2)
        scorer = VectorizedScorer(spec, 3)
        with pytest.raises(PlacementError):
            scorer.score_chunk(np.zeros((2, 9), dtype=np.int64))
        with pytest.raises(PlacementError):
            scorer.score_assignments([[0, 1, 2, 3]])  # label 3 >= 3

    def test_signature_code_overflow_is_a_validation_error(self):
        # 20 identical members: 40 components of two classes, and
        # 3^40 >= 2^62 — the kernel's one typed limit
        with pytest.raises(ValidationError, match="int64"):
            VectorizedScorer(_tie_heavy_spec(20), 40)
        VectorizedScorer(_tie_heavy_spec(19), 38)  # 3^38 < 2^62

    @given(
        couplings=st.lists(st.integers(1, 2), min_size=8, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_eight_or_more_members_are_exact(self, couplings, seed):
        # numpy sums 8 or more elements in unrolled blocks, so the
        # member-axis means of Eq. 9 change scheme here; identical
        # component models keep two classes, so the int64 signature
        # code of up to 36 components cannot overflow; with two nodes
        # per member a random greedy row always finds room
        spec = EnsembleSpec(
            "wide",
            tuple(
                default_member(f"em{i}", num_analyses=k, n_steps=4 + i)
                for i, k in enumerate(couplings)
            ),
        )
        num_nodes = 2 * len(couplings)
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(40):
            free = [32] * num_nodes
            row = []
            for cores in component_core_demands(spec):
                fits = [n for n in range(num_nodes) if free[n] >= cores]
                node = fits[int(rng.integers(len(fits)))]
                free[node] -= cores
                row.append(node)
            rows.append(row)
        batch = VectorizedScorer(spec, num_nodes).score_assignments(rows)
        for i, row in enumerate(rows):
            scalar = score_placement_reference(
                spec, assignment_to_placement(spec, row, num_nodes)
            )
            assert float(batch.objectives[i]) == scalar.objective
            assert float(batch.makespans[i]) == scalar.ensemble_makespan
            assert tuple(batch.indicators[i].tolist()) == (
                scalar.member_indicators
            )

    def test_labels_beyond_the_canonical_range_are_exact(self):
        # explicit placements may use any label below the budget; the
        # staging tables grow to cover them
        spec = _mixed_spec()
        _assert_rows_exact(
            spec,
            9,
            [[8, 8, 3, 3, 5, 0, 7, 2], [0, 0, 1, 1, 1, 2, 2, 2]],
            context=_contexts()["subclassed-dragonfly"],
        )


class TestNonDefaultContexts:
    def test_subclassed_network_is_exact(self):
        _assert_matches_reference(
            _mixed_spec(), 5, 32, _contexts()["subclassed-dragonfly"]
        )

    def test_non_default_dtl_is_exact(self):
        for name in ("parallel-fs", "burst-buffer", "contention-off"):
            _assert_matches_reference(_mixed_spec(), 5, 32, _contexts()[name])

    @given(grid=plan_mix_grids(max_analyses=4), name=st.sampled_from(
        sorted(_contexts())
    ))
    @settings(max_examples=16, deadline=None)
    def test_engine_matches_reference(self, grid, name):
        _assert_matches_reference(*grid, _contexts()[name])


class TestRobustSearch:
    @given(grid=plan_mix_grids(max_components=6, max_analyses=4))
    @settings(max_examples=8, deadline=None)
    def test_engine_matches_reference(self, grid):
        _assert_matches_reference(*grid, _robust_context())

    def test_pinned_robust_grid(self):
        # the (1, 2, 2) spec on 5 nodes: 1 815 candidates, no pruning
        # (the penalty dwarfs every objective gap)
        spec = EnsembleSpec(
            "robust",
            tuple(
                default_member(f"em{i}", num_analyses=k, n_steps=4)
                for i, k in enumerate((1, 2, 2))
            ),
        )
        _assert_matches_reference(spec, 5, 32, _robust_context())

    @given(grid=plan_mix_grids(max_analyses=4))
    @settings(max_examples=10, deadline=None)
    def test_penalties_are_never_negative(self, grid):
        # E[inflation] >= 1, so F bounds the utility F - penalty from
        # above and branch-and-bound may prune against the utility
        spec, num_nodes, cores_per_node = grid
        term = _robust_context().robustness
        cache = StageCache()
        rows = list(
            iter_canonical_assignments(
                component_core_demands(spec), num_nodes, cores_per_node
            )
        )[:50]
        for row in rows:
            evaluation = cache.evaluate_flat(spec, row, num_nodes)
            assert term.penalty(
                spec,
                assignment_to_placement(spec, row, num_nodes),
                stages=evaluation.stages_by_name(spec),
            ) >= 0.0


class TestBranchAndBound:
    @given(grid=search_grids(), chunk_size=CHUNK_SIZES)
    @settings(max_examples=15, deadline=None)
    def test_never_prunes_the_optimum(self, grid, chunk_size):
        spec, num_nodes, cores_per_node = grid
        try:
            reference, evaluated = find_best_placement_reference(
                spec, num_nodes, cores_per_node
            )
        except PlacementError:
            # an empty space, or a search budget above physical
            # capacity: the reference refuses the grid, and the kernel
            # must refuse it too
            with pytest.raises(PlacementError):
                find_best_placement_vectorized(
                    spec, num_nodes, cores_per_node, chunk_size=chunk_size
                )
            return
        result = find_best_placement_vectorized(
            spec, num_nodes, cores_per_node, chunk_size=chunk_size
        )
        total = count_canonical_assignments(
            component_core_demands(spec), num_nodes, cores_per_node
        )
        assert result.scored + result.pruned == total == evaluated
        _assert_same_search((result.best, result.candidates), (
            reference, evaluated
        ))

    def test_tie_heavy_grid_keeps_first_optimum(self):
        # identical members make the objective landscape massively
        # degenerate; the B&B winner must still be the serial loop's
        # first strict optimum (pruning is strict-< only)
        spec = _tie_heavy_spec(3)
        result = find_best_placement_vectorized(spec, 4, 32, chunk_size=64)
        reference, evaluated = find_best_placement_reference(spec, 4, 32)
        assert result.scored + result.pruned == evaluated
        assert result.best.placement == reference.placement
        assert result.best.objective == reference.objective

    def test_pruning_disabled_scores_everything(self):
        spec = _tie_heavy_spec(3)
        unpruned = find_best_placement_vectorized(spec, 4, 32, prune=False)
        pruned = find_best_placement_vectorized(spec, 4, 32)
        assert unpruned.pruned == 0
        assert unpruned.scored == pruned.scored + pruned.pruned
        assert unpruned.best.placement == pruned.best.placement
        assert unpruned.best.objective == pruned.best.objective

    @given(grid=plan_mix_grids(max_analyses=4))
    @settings(max_examples=20, deadline=None)
    def test_upper_bounds_are_the_scalar_bound_and_admissible(self, grid):
        # the column bound equals the per-prefix scalar bound bit for
        # bit, and caps F of every completion of every prefix
        spec, num_nodes, cores_per_node = grid
        chunks = list(
            iter_assignment_chunks(
                component_core_demands(spec), num_nodes, cores_per_node
            )
        )
        if not chunks:
            return
        rows = np.concatenate(chunks)
        scorer = VectorizedScorer(spec, num_nodes)
        objectives = scorer.score_chunk(rows).objectives
        suffix = vectorized_mod._member_bounds(spec, cores_per_node)
        for m in range(1, len(spec.members)):
            prefixes = rows[:, : int(scorer._offsets[m])]
            bounds = scorer.upper_bounds(prefixes, suffix)
            assert bounds.tolist() == [
                _scalar_bound(spec, prefix, suffix, num_nodes)
                for prefix in prefixes.tolist()
            ]
            assert (objectives <= bounds).all()

    def test_blocks_prune_as_finely_as_a_per_prefix_walk(self):
        # the benchmark's 4-member x K=2 scaling cell on 8 nodes: 1 139 124
        # canonical rows, of which a prefix-by-prefix walk scores 28 572;
        # blocks bounded once for many chunks score 821 164 and still
        # find the optimum, so only the count tells them apart. The
        # reference loop scores the 1.1M rows one by one (~50 s on a
        # 2-vCPU x86 host), so the unpruned kernel search, property-
        # tested equal to it, stands in for it.
        spec = EnsembleSpec(
            "bench-scaling-4",
            tuple(
                default_member(f"em{i}", num_analyses=2, n_steps=6)
                for i in range(4)
            ),
        )
        result = find_best_placement_vectorized(spec, 8, 32)
        exhaustive = find_best_placement_vectorized(spec, 8, 32, prune=False)
        assert result.scored < 1.15 * 28_572
        assert result.scored + result.pruned == exhaustive.scored == 1_139_124
        assert result.best == exhaustive.best

    def test_engine_routes_large_spaces_through_the_kernel(self, monkeypatch):
        # ~10k canonical candidates through the batch path, which
        # must return the reference loop's exact result
        spec = EnsembleSpec(
            "routed",
            tuple(
                default_member(f"em{i}", num_analyses=2, n_steps=4)
                for i in range(3)
            ),
        )
        reference = find_best_placement_reference(spec, 8, 32)
        rows: list = []
        score_chunk = VectorizedScorer.score_chunk

        def counted(self, chunk, validate=False):
            rows.append(chunk.shape[0])
            return score_chunk(self, chunk, validate)

        monkeypatch.setattr(VectorizedScorer, "score_chunk", counted)
        fast = find_best_placement(spec, 8, 32)
        assert sum(rows) > 0
        _assert_same_search(fast, reference)

    def test_exhaustive_policy_vectorized_same_placement(self):
        spec = _tie_heavy_spec(3)
        policy = ExhaustiveSearchPolicy()
        reference, evaluated = find_best_placement_reference(spec, 4, 32)
        assert policy.place(spec, 4, 32) == reference.placement
        assert policy.evaluated == evaluated


#: one cache for every example of the route property: the kernel must
#: stay exact however warm the memo is and whichever specs filled it
_SHARED_CACHE = StageCache()


#: a 1 + 3-analysis search whose winner flipped when the kernel summed
#: a member's analysis times with a segment reduction instead of left
#: to right (F ...537 against the reference loop's ...539)
_THREE_ANALYSES = (
    EnsembleSpec(
        "mix-13",
        (
            default_member("m0", num_analyses=1, n_steps=4, natoms=150_000),
            default_member("m1", num_analyses=3, n_steps=5, natoms=250_000),
        ),
    ),
    3,
    32,
)


class TestKernelRoute:
    @given(grid=plan_mix_grids(max_analyses=4))
    @example(grid=_THREE_ANALYSES)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scalar_engine_on_plan_mix_shapes(self, grid):
        spec, num_nodes, cores_per_node = grid
        context = PlanningContext(cache=_SHARED_CACHE)
        try:
            reference = find_best_placement_reference(
                spec, num_nodes, cores_per_node
            )
        except PlacementError as exc:
            with pytest.raises(PlacementError, match=re.escape(str(exc))):
                find_best_placement(
                    spec, num_nodes, cores_per_node, context=context
                )
            return
        fast = find_best_placement(
            spec, num_nodes, cores_per_node, context=context
        )
        _assert_same_search(fast, reference)

    def test_empty_space_raises_before_building_a_scorer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scorer built for an empty space")

        monkeypatch.setattr(VectorizedScorer, "__init__", refuse)
        spec = _tie_heavy_spec(2)  # 2 x (16 + 8) cores never fit one node
        with pytest.raises(PlacementError) as reference:
            find_best_placement_reference(spec, 1, 32)
        with pytest.raises(PlacementError) as fast:
            find_best_placement(spec, 1, 32)
        assert str(fast.value) == str(reference.value)


class TestPopulationMemo:
    @staticmethod
    def _count_assessments(monkeypatch) -> list:
        calls: list = []
        assess = ContentionModel.assess

        def counted(self, node_spec, residents):
            calls.append(len(residents))
            return assess(self, node_spec, residents)

        monkeypatch.setattr(ContentionModel, "assess", counted)
        return calls

    def test_second_search_on_the_same_cache_assesses_nothing(
        self, monkeypatch
    ):
        spec = _mixed_spec()
        context = PlanningContext(cache=StageCache())
        first = find_best_placement(spec, 6, 32, context=context)
        calls = self._count_assessments(monkeypatch)
        second = find_best_placement(spec, 6, 32, context=context)
        assert calls == []
        _assert_same_search(second, first)

    def test_winner_rescore_adds_no_node_miss(self, monkeypatch):
        # identical members: each kernel class is one content
        # fingerprint, so the residents a code stands for carry the
        # winner's own node signatures
        cache = StageCache()
        misses: list = []
        rescore = vectorized_mod.score_placement

        def counted(spec, placement, *, context):
            before = context.cache.node_misses
            score = rescore(spec, placement, context=context)
            misses.append(context.cache.node_misses - before)
            return score

        monkeypatch.setattr(vectorized_mod, "score_placement", counted)
        find_best_placement_vectorized(
            _tie_heavy_spec(3), 4, 32, cache=cache
        )
        assert misses == [0]
        assert cache.node_misses > 0  # the kernel filled the memo

    @pytest.mark.parametrize("name", sorted(_contexts()))
    def test_a_cache_handed_to_a_planning_call_is_its_platform(self, name):
        spec = _tie_heavy_spec(2)
        exhaustive, annealing, search = (
            _contexts()[name].cache for _ in range(3)
        )
        ExhaustiveSearchPolicy(cache=exhaustive).place(spec, 4, 32)
        policy = dict(seed=3, plateau=4, min_temperature_ratio=1e-2)
        winner = SimulatedAnnealingPolicy(cache=annealing, **policy).place(
            spec, 4, 32
        )
        fast = find_best_placement(
            spec, 4, 32, context=PlanningContext(cache=search)
        )
        assert exhaustive.stage_misses > 0
        assert annealing.stage_misses > 0
        assert search.stage_misses > 0
        _assert_same_search(
            fast,
            find_best_placement_reference(
                spec, 4, 32, context=_contexts()[name]
            ),
        )
        # the annealer walked the seed annealer's trajectory on this
        # platform, and its winner scores as the uncached scorer does
        seed = SimulatedAnnealingPolicy(
            cache=_contexts()[name].cache, **policy
        )
        assert anneal_reference(seed, spec, 4, 32) == winner
        scored = score_placement(
            spec, winner, context=PlanningContext(cache=annealing)
        )
        reference = score_placement_reference(
            spec, winner, cluster=annealing.cluster, dtl=annealing.dtl
        )
        assert scored.objective == reference.objective
        assert scored.ensemble_makespan == reference.ensemble_makespan
        assert scored.member_indicators == reference.member_indicators


class TestBatchArgmax:
    def test_argmax_batch_matches_serial_loop_on_ties(self):
        rng = np.random.default_rng(7)
        objectives = rng.choice([0.25, 0.5, 0.75], size=200)
        makespans = rng.choice([1.0, 2.0, 3.0], size=200)
        best = None
        best_index = -1
        for i, key in enumerate(zip(objectives, -makespans)):
            if best is None or key > best:
                best = key
                best_index = i
        assert argmax_batch(objectives, makespans) == best_index

    def test_argmax_batch_on_real_tie_heavy_scores(self):
        spec = _tie_heavy_spec(3)
        cores = component_core_demands(spec)
        rows = np.asarray(
            list(iter_canonical_assignments(cores, 4, 32)), dtype=np.int64
        )
        batch = VectorizedScorer(spec, 4).score_chunk(rows)
        # the landscape really is degenerate, else the test is vacuous
        assert len(np.unique(batch.objectives)) < rows.shape[0]
        serial_best = None
        serial_index = -1
        for i in range(rows.shape[0]):
            key = (batch.objectives[i], -batch.makespans[i])
            if serial_best is None or key > serial_best:
                serial_best = key
                serial_index = i
        assert (
            argmax_batch(batch.objectives, batch.makespans) == serial_index
        )

    def test_argmax_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            argmax_batch(np.empty(0), np.empty(0))


class TestOracleTier:
    def test_oracle_runs_the_vectorized_tier(self):
        from repro.configs.base import build_spec
        from repro.configs.table2 import TABLE2_CONFIGS
        from repro.verify.oracles import run_differential_oracle

        config = TABLE2_CONFIGS["C1.2"]
        report = run_differential_oracle(
            build_spec(config, n_steps=4),
            config.placement(),
            scenario="vectorized-tier",
        )
        vectorized = [
            c for c in report.checks if c.paths == "score-vs-vectorized"
        ]
        assert len(vectorized) >= 3  # objective, makespan, indicators
        assert all(c.tolerance == VECTORIZED_TOL for c in vectorized)
        assert all(c.ok for c in vectorized)
        assert report.passed
