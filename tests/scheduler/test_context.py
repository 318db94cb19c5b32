""":class:`PlanningContext` is the one way to pass planning options.

The four planning entry points take the platform, robustness term,
stage cache and kernel routing only through ``context=``; the old
per-call keywords raise ``TypeError``. ``context=None`` maps to the
shared :data:`DEFAULT_CONTEXT`, and an explicit context spelling out
the default platform produces bit-identical floats. The differential
oracle scores through the same spelling; the mutant test here proves
its exact tier has teeth.
"""

import dataclasses
import warnings

import pytest

from repro.faults.recovery import RetryBackoffPolicy
from repro.platform.specs import make_cori_like_cluster
from repro.scheduler import PlanningContext
from repro.scheduler.context import DEFAULT_CONTEXT
from repro.scheduler.objectives import score_placement
from repro.scheduler.planner import ResourceConstrainedPlanner
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
)
from repro.search.cache import StageCache
from repro.search.engine import find_best_placement
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
            "cluster", "dtl", "robustness", "cache",
        ]
        assert ctx.cluster is None and ctx.dtl is None
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
        ],
        ids=["search", "score", "rank", "planner"],
    )
    def test_legacy_keywords_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_removed_fields_are_not_accepted(self):
        for field in ("parallel", "processes", "chunk_size", "vectorized"):
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
    naming the default Cori-like platform agree bit for bit."""

    def test_score_placement(self):
        spec, placement = _spec(), _placement()
        default = score_placement(spec, placement)
        via_context = score_placement(
            spec,
            placement,
            context=PlanningContext(cluster=make_cori_like_cluster(2)),
        )
        assert via_context.objective == default.objective
        assert via_context.ensemble_makespan == default.ensemble_makespan
        assert via_context.member_indicators == default.member_indicators

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
        default_best, _ = find_best_placement(spec, 2, 32)
        ctx_best, _ = find_best_placement(
            spec, 2, 32, context=PlanningContext(cache=StageCache(None, None))
        )
        assert ctx_best.objective == default_best.objective

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
