""":class:`PlanningContext` is the one way to pass planning options.

The four planning entry points and every policy's ``place`` take the
robustness term and the stage cache, which is the platform, only
through ``context=``; the old per-call and per-policy keywords raise
``TypeError``. ``context=None`` maps to the
shared :data:`DEFAULT_CONTEXT`, and an explicit context spelling out
the default platform produces bit-identical floats. One context gives
one answer: a search's winner scores as the search scored it, whatever
the size of the cluster in the cache, and a plan or a re-plan prices
every stage on one cache. The differential oracle scores
through the same spelling; the mutant test here proves its exact tier
has teeth.
"""

import dataclasses
import warnings

import pytest

from repro.dtl.dimes import InMemoryStagingDTL
from repro.dtl.pfs import ParallelFilesystemDTL
from repro.faults.recovery import RetryBackoffPolicy
from repro.platform.specs import make_cori_like_cluster
from repro.reschedule.replanner import Replanner
from repro.scheduler import PlanningContext
from repro.scheduler.annealing import SimulatedAnnealingPolicy
from repro.scheduler.context import DEFAULT_CONTEXT
from repro.scheduler.objectives import score_placement
from repro.scheduler.planner import ResourceConstrainedPlanner
from repro.scheduler.policies import ExhaustiveSearchPolicy
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
)
from repro.search.cache import StageCache
from repro.search.engine import find_best_placement
from repro.search.reference import (
    find_best_placement_reference,
    score_placement_reference,
)
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.verify.oracles import run_differential_oracle


def _spec(n_members: int = 2, n_steps: int = 4) -> EnsembleSpec:
    return EnsembleSpec(
        "ctx",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=n_steps)
            for i in range(n_members)
        ),
    )


def _placement(n_members: int = 2) -> EnsemblePlacement:
    return EnsemblePlacement(
        2, tuple(MemberPlacement(i % 2, (i % 2,)) for i in range(n_members))
    )


class TestContextObject:
    def test_defaults(self):
        ctx = PlanningContext()
        assert [f.name for f in dataclasses.fields(ctx)] == [
            "robustness", "cache",
        ]
        assert ctx.robustness is None and ctx.cache is None
        assert DEFAULT_CONTEXT == ctx

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PlanningContext().cache = StageCache()

    def test_evolve_returns_modified_copy(self):
        base = PlanningContext()
        cache = StageCache()
        derived = base.evolve(cache=cache)
        assert derived.cache is cache
        assert base.cache is None


class TestOneSpelling:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: find_best_placement(
                _spec(), 2, 32, cluster=make_cori_like_cluster(2)
            ),
            lambda: score_placement(_spec(), _placement(), cache=None),
            lambda: rank_placements_robust(
                _spec(),
                {"packed": _placement()},
                crash_straggler_factory(0.05),
                RetryBackoffPolicy(),
                parallel=True,
            ),
            lambda: ResourceConstrainedPlanner(robustness=None),
            lambda: ExhaustiveSearchPolicy(cache=StageCache()),
            lambda: SimulatedAnnealingPolicy(cache=StageCache()),
            lambda: SimulatedAnnealingPolicy(robustness=None),
        ],
        ids=[
            "search", "score", "rank", "planner", "exhaustive",
            "annealer-cache", "annealer-robustness",
        ],
    )
    def test_legacy_keywords_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_removed_fields_are_not_accepted(self):
        for field in (
            "parallel", "processes", "chunk_size", "vectorized",
            "cluster", "dtl",
        ):
            with pytest.raises(TypeError):
                PlanningContext(**{field: 1})

    def test_no_deprecation_warnings(self):
        spec, placement = _spec(), _placement()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            score_placement(spec, placement, context=PlanningContext())
            find_best_placement(spec, 2, 32, context=PlanningContext())


class TestFloatExactEquivalence:
    """``context=None``, an explicit default context and a context
    naming the default Cori-like platform agree bit for bit, and with
    the uncached reference scorer and search loop."""

    def test_score_placement(self):
        spec, placement = _spec(), _placement()
        reference = score_placement_reference(spec, placement)
        default = score_placement(spec, placement)
        via_context = score_placement(
            spec,
            placement,
            context=PlanningContext(
                cache=StageCache(make_cori_like_cluster(2))
            ),
        )
        for score in (default, via_context):
            assert score.objective == reference.objective
            assert score.ensemble_makespan == reference.ensemble_makespan
            assert score.member_indicators == reference.member_indicators

    def test_find_best_placement(self):
        spec = _spec()
        default_best, default_n = find_best_placement(spec, 2, 32)
        ctx_best, ctx_n = find_best_placement(
            spec, 2, 32, context=PlanningContext()
        )
        assert ctx_best == default_best
        assert ctx_best.objective == default_best.objective
        assert ctx_n == default_n

    def test_find_best_placement_with_shared_cache(self):
        spec = _spec()
        reference, _ = find_best_placement_reference(spec, 2, 32)
        ctx_best, _ = find_best_placement(
            spec, 2, 32, context=PlanningContext(cache=StageCache(None, None))
        )
        assert ctx_best.placement == reference.placement
        assert ctx_best.objective == reference.objective

    def test_planner(self):
        spec = _spec()
        default = ResourceConstrainedPlanner().plan(spec, num_nodes=2)
        via_context = ResourceConstrainedPlanner(
            context=PlanningContext()
        ).plan(spec, num_nodes=2)
        assert via_context.placement == default.placement
        assert via_context.score.objective == default.score.objective

    def test_rank_placements_robust_surrogate(self):
        spec = _spec()
        candidates = {
            "packed": _placement(),
            "spread": EnsemblePlacement(
                2,
                (MemberPlacement(0, (1,)), MemberPlacement(1, (0,))),
            ),
        }
        kwargs = dict(
            model_factory=crash_straggler_factory(0.05),
            policy=RetryBackoffPolicy(),
            method="surrogate",
        )
        default = rank_placements_robust(spec, candidates, **kwargs)
        via_context = rank_placements_robust(
            spec, candidates, context=PlanningContext(), **kwargs
        )
        assert [s.name for s in via_context] == [s.name for s in default]
        assert [s.objective for s in via_context] == [
            s.objective for s in default
        ]


class TestOnePlatform:
    """A planning platform prices nodes, not an allocation: the cache
    never reads its cluster's node count, so a context whose cache
    holds a 2-node cluster searches and scores 3-node placements alike,
    as the Cori-like platform sized per placement prices them."""

    def test_a_two_node_cluster_prices_three_node_placements(self):
        spec = _spec(n_steps=3)
        context = PlanningContext(cache=StageCache(make_cori_like_cluster(2)))
        best, _ = find_best_placement(spec, 3, 32, context=context)
        scored = score_placement(spec, best.placement, context=context)
        assert best.num_nodes == 3
        assert scored.objective == best.objective
        assert scored.ensemble_makespan == best.ensemble_makespan
        assert scored.member_indicators == best.member_indicators
        wide = EnsemblePlacement(
            3, (MemberPlacement(0, (0,)), MemberPlacement(1, (2,)))
        )
        priced = score_placement(spec, wide, context=context).objective
        assert priced == 0.00554579136505981
        assert priced == score_placement_reference(spec, wide).objective


@pytest.fixture
def built_caches(monkeypatch):
    """Every :class:`StageCache` constructed while the test runs."""
    built = []
    init = StageCache.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StageCache, "__init__", counted)
    return built


class TestOnePlatformPerDecision:
    """A plan prices its §3.4 probe, its policy's candidates and its
    final score on the context's cache, and builds no other; a
    re-planner builds one cache for its run, on the run's cluster and
    DTL, and its anneal and its hill-climb both price on it."""

    def test_the_planner_prices_every_stage_on_the_context_cache(
        self, built_caches, monkeypatch
    ):
        def uncached(*args, **kwargs):
            raise AssertionError("a plan priced stages off its cache")

        monkeypatch.setattr(
            "repro.runtime.analytic.compute_effective_stages", uncached
        )
        spec = EnsembleSpec(
            "ctx",
            (
                default_member("em1", num_analyses=1, n_steps=4),
                default_member("em2", num_analyses=2, n_steps=4),
            ),
        )
        cache = StageCache(dtl=ParallelFilesystemDTL())
        planner = ResourceConstrainedPlanner(
            context=PlanningContext(cache=cache)
        )
        plan = planner.plan(spec, num_nodes=3)
        assert built_caches == [cache]
        # 6 probe core counts, the greedy's 10 candidates, the score
        assert (cache.stage_misses, cache.stage_hits) == (16, 10)
        assert plan.analysis_cores == 8

    def test_the_replanner_prices_a_run_on_one_cache(
        self, built_caches, monkeypatch
    ):
        annealed_on, climbed_on = [], []
        place, predict = SimulatedAnnealingPolicy.place, StageCache.predict

        def spy_place(self, *args, context=None, **kwargs):
            annealed_on.append(context.cache)
            return place(self, *args, context=context, **kwargs)

        def spy_predict(self, spec, placement):
            climbed_on.append(self)
            return predict(self, spec, placement)

        monkeypatch.setattr(SimulatedAnnealingPolicy, "place", spy_place)
        monkeypatch.setattr(StageCache, "predict", spy_predict)
        spec = EnsembleSpec(
            "ctx",
            tuple(default_member(f"em{i}", n_steps=16) for i in range(3)),
        )
        cluster = make_cori_like_cluster(4)
        dtl = InMemoryStagingDTL(
            network=cluster.network,
            memory_bandwidth=cluster.node_spec.memory_bandwidth,
        )
        replanner = Replanner(spec, cluster, dtl, cores_per_node=32)
        packed = EnsemblePlacement(
            4, tuple(MemberPlacement(i, (i,)) for i in range(3))
        )
        steps = {m.name: 10 for m in spec.members}
        for slowdown in ({0: 2.5}, {1: 2.0, 2: 1.5}):
            replanner.replan(packed, slowdown, steps)
        (cache,) = built_caches
        assert cache.cluster is cluster and cache.dtl is dtl
        assert len(annealed_on) == 2 and climbed_on
        assert all(c is cache for c in annealed_on + climbed_on)


class TestOracleContextTier:
    """The differential oracle calls its ``score_fn`` hook with the
    ``context=`` spelling; the exact ``score-vs-candidate`` tier
    compares that call with the reference scorer."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_differential_oracle(
            _spec(n_members=1), _placement(n_members=1), scenario="ctx"
        )

    def test_tier_present_and_exact(self, report):
        checks = [c for c in report.checks if c.paths == "score-vs-candidate"]
        assert checks  # objective + makespan + per-member indicators
        assert all(c.tolerance == 0.0 for c in checks)
        assert all(c.reference == c.candidate for c in checks)
        assert not any("legacy" in c.paths for c in report.checks)
        assert report.passed, report.to_text(verbose=True)

    def test_mutant_context_scorer_is_caught(self):
        """A context scorer that drifts by one ulp-scale factor must
        fail the report — tolerance 0.0 admits only identity."""

        def mutant(spec, placement, context=None):
            score = score_placement(spec, placement, context=context)
            return dataclasses.replace(
                score, objective=score.objective * (1.0 + 1e-12)
            )

        report = run_differential_oracle(
            _spec(n_members=1),
            _placement(n_members=1),
            scenario="ctx-mutant",
            score_fn=mutant,
        )
        assert not report.passed
        failed = [c for c in report.checks if not c.ok]
        assert failed
        assert all(c.paths == "score-vs-candidate" for c in failed)
