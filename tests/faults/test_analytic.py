"""Tests for the analytic robustness surrogate (repro.faults.analytic).

Covers the documented accuracy bound of docs/FAULT_MODELS.md
(surrogate-vs-DES inflation over the validation rate grid), the
node-level co-failure semantics, determinism of correlated arrivals,
policy pricing, and the RobustnessTerm wiring into the scheduler.
"""

import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import TABLE2_CONFIGS
from repro.faults.analytic import (
    CrashResponse,
    MemberForecast,
    RobustnessTerm,
    SurrogateReport,
    expected_crash_response,
    node_crash_builder,
    surrogate_resilience,
)
from repro.faults.models import (
    CorrelatedFailureModel,
    FaultEvent,
    FaultKind,
    MarkovModulatedArrivals,
    NodeFailureModel,
    NoFailureModel,
    RandomFailureModel,
    ScheduledFailureModel,
    WeibullBurstArrivals,
)
from repro.faults.recovery import (
    AdaptiveRecoveryPolicy,
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RecoveryAction,
    RecoveryPolicy,
    RetryBackoffPolicy,
)
from repro.dtl.dimes import InMemoryStagingDTL
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.executor import EnsembleExecutor
from repro.runtime.placement import (
    pack_members_per_node,
    spread_components,
)
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.util.errors import ValidationError
from tests.tolerances import (
    MAKESPAN_REL,
    SURROGATE_CELL_REL,
    SURROGATE_GRID_MEAN_REL,
)


@pytest.fixture(scope="module")
def spec():
    return build_spec(TABLE2_CONFIGS["C1.5"], n_steps=6)


@pytest.fixture(scope="module")
def placement():
    return TABLE2_CONFIGS["C1.5"].placement()


@pytest.fixture(scope="module")
def stages(spec, placement):
    return predict_member_stages(spec, placement)


def _small_spec(n_steps=8, num_analyses=2):
    return EnsembleSpec(
        "surrogate-test",
        (
            default_member(
                "em1", num_analyses=num_analyses, n_steps=n_steps
            ),
            default_member(
                "em2", num_analyses=num_analyses, n_steps=n_steps
            ),
        ),
    )


class TestCrashResponse:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            CrashResponse(delay=-0.1, drop_fraction=0.0)

    @pytest.mark.parametrize("frac", [-0.1, 1.1])
    def test_drop_fraction_bounds(self, frac):
        with pytest.raises(ValidationError):
            CrashResponse(delay=0.0, drop_fraction=frac)


class TestExpectedCrashResponse:
    def test_retry_prices_first_attempt(self):
        resp = expected_crash_response(
            RetryBackoffPolicy(base_delay=0.7),
            step_time=2.0,
            n_steps=10,
            is_analysis=False,
        )
        assert resp.delay == pytest.approx(0.7)
        assert resp.drop_fraction == 0.0

    def test_restart_prices_mean_checkpoint_distance(self):
        # steps 0..9 with period 5: mean(step mod 5) = 2.0
        resp = expected_crash_response(
            CheckpointRestartPolicy(period=5, restart_latency=1.0),
            step_time=3.0,
            n_steps=10,
            is_analysis=False,
        )
        assert resp.delay == pytest.approx(1.0 + 2.0 * 3.0)
        assert resp.drop_fraction == 0.0

    def test_degrade_drops_analyses_past_step_zero(self):
        resp = expected_crash_response(
            DropAnalysisPolicy(),
            step_time=2.0,
            n_steps=10,
            is_analysis=True,
        )
        # 9 of 10 steps drop; step 0 falls back to retry
        assert resp.drop_fraction == pytest.approx(0.9)
        assert resp.delay == pytest.approx(
            0.1 * RetryBackoffPolicy().base_delay
        )

    def test_degrade_never_drops_simulations(self):
        resp = expected_crash_response(
            DropAnalysisPolicy(),
            step_time=2.0,
            n_steps=10,
            is_analysis=False,
        )
        assert resp.drop_fraction == 0.0
        assert resp.delay == pytest.approx(
            RetryBackoffPolicy().base_delay
        )

    def test_adaptive_fully_covered_matches_primary(self):
        policy = AdaptiveRecoveryPolicy(budget=100.0)
        resp = expected_crash_response(
            policy,
            step_time=2.0,
            n_steps=10,
            is_analysis=True,
            expected_crashes=1.0,
        )
        primary = expected_crash_response(
            policy.primary, 2.0, 10, True, 1.0
        )
        assert resp.delay == pytest.approx(primary.delay)
        assert resp.drop_fraction == pytest.approx(primary.drop_fraction)

    def test_adaptive_exhausted_budget_blends_toward_degrade(self):
        policy = AdaptiveRecoveryPolicy(budget=0.5)
        # expected spend far above budget -> mostly degraded response
        resp = expected_crash_response(
            policy,
            step_time=2.0,
            n_steps=10,
            is_analysis=True,
            expected_crashes=50.0,
        )
        covered = expected_crash_response(
            policy, 2.0, 10, True, expected_crashes=0.0
        )
        assert resp.drop_fraction > covered.drop_fraction
        assert resp.delay < covered.delay

    def test_unknown_policy_is_probed(self):
        class AlwaysDrop(RecoveryPolicy):
            def on_crash(self, ctx, attempt):
                return RecoveryAction(mode="drop", delay=0.0)

        resp = expected_crash_response(
            AlwaysDrop(), step_time=1.0, n_steps=10, is_analysis=True
        )
        assert resp.drop_fraction == 1.0
        assert resp.delay == 0.0


class TestSurrogateBaseline:
    def test_zero_rate_predicts_exactly_the_baseline(
        self, spec, placement, stages
    ):
        report = surrogate_resilience(
            spec,
            placement,
            NoFailureModel(),
            RetryBackoffPolicy(),
            stages=stages,
        )
        assert report.expected_inflation == pytest.approx(1.0)
        assert report.expected_faults == 0.0
        # the baseline is the DES failure-free makespan
        des = EnsembleExecutor(spec, placement).run()
        assert report.baseline_makespan == pytest.approx(
            des.ensemble_makespan, rel=MAKESPAN_REL
        )

    def test_positive_rate_inflates(self, spec, placement, stages):
        report = surrogate_resilience(
            spec,
            placement,
            RandomFailureModel(rate=0.1),
            RetryBackoffPolicy(),
            stages=stages,
        )
        assert report.expected_inflation > 1.0
        assert report.expected_faults > 0.0
        assert 0.0 < report.effective_efficiency < 1.0

    def test_scheduled_model_has_no_hazard(self, spec, placement, stages):
        model = ScheduledFailureModel(
            [
                FaultEvent(
                    member="em1",
                    component="em1.sim",
                    step=1,
                    kind=FaultKind.CRASH,
                    stage="S",
                    magnitude=0.5,
                )
            ]
        )
        with pytest.raises(ValidationError):
            surrogate_resilience(
                spec, placement, model, RetryBackoffPolicy(), stages=stages
            )

    def test_report_renders(self, spec, placement, stages):
        report = surrogate_resilience(
            spec,
            placement,
            RandomFailureModel(rate=0.05),
            RetryBackoffPolicy(),
            stages=stages,
        )
        text = report.to_text()
        assert "expected makespan" in text
        assert "inflation" in text
        assert isinstance(report, SurrogateReport)
        assert all(isinstance(m, MemberForecast) for m in report.members)

    def test_monotone_in_rate(self, spec, placement, stages):
        inflations = [
            surrogate_resilience(
                spec,
                placement,
                RandomFailureModel(rate=r),
                RetryBackoffPolicy(),
                stages=stages,
            ).expected_inflation
            for r in (0.0, 0.02, 0.05, 0.10)
        ]
        assert inflations == sorted(inflations)


class TestSurrogateVsDES:
    """The documented accuracy bound of docs/FAULT_MODELS.md."""

    def test_relative_error_bound_on_rate_grid(self):
        from repro.experiments.resilience import (
            VALIDATION_CONFIGS,
            VALIDATION_RATES,
            run_surrogate_validation,
        )

        result = run_surrogate_validation()
        errors = [row["rel_error"] for row in result.rows]
        assert len(errors) == len(VALIDATION_CONFIGS) * len(
            VALIDATION_RATES
        )
        # documented bound: every cell within 8%, grid mean within 5%
        assert max(errors) <= SURROGATE_CELL_REL
        assert sum(errors) / len(errors) <= SURROGATE_GRID_MEAN_REL

    def test_restart_policy_within_bound(self):
        from repro.experiments.resilience import run_surrogate_validation

        result = run_surrogate_validation(
            config_names=("C1.4",),
            rates=(0.05,),
            policy="restart",
            trials=3,
        )
        assert result.rows[0]["rel_error"] <= SURROGATE_CELL_REL

    def test_node_level_surrogate_tracks_des(self):
        spec = _small_spec(n_steps=10)
        placement = pack_members_per_node(spec)
        model = NodeFailureModel(placement, rate=0.08)
        policy = RetryBackoffPolicy()
        report = surrogate_resilience(
            spec,
            placement,
            model,
            policy,
            stages=predict_member_stages(spec, placement),
        )
        baseline = EnsembleExecutor(spec, placement).run()
        inflations = []
        for t in range(4):
            result = EnsembleExecutor(
                spec,
                placement,
                failure_model=NodeFailureModel(
                    placement, rate=0.08, seed=100 + t
                ),
                recovery=RetryBackoffPolicy(),
            ).run()
            inflations.append(
                result.ensemble_makespan / baseline.ensemble_makespan
            )
        des_mean = sum(inflations) / len(inflations)
        rel_error = abs(report.expected_inflation - des_mean) / des_mean
        assert rel_error <= SURROGATE_CELL_REL


class TestNodeCoFailure:
    """A node crash faults every co-located component at once."""

    def test_all_colocated_components_fault_together(self):
        spec = _small_spec(n_steps=5)
        placement = pack_members_per_node(spec)
        model = NodeFailureModel(placement, rate=1.0, seed=3)
        schedule = model.build_schedule(spec)

        # which components live on which node
        components_on = {}
        for member, mp in zip(spec.members, placement.members):
            components_on.setdefault(mp.simulation_node, set()).add(
                member.simulation.name
            )
            for ana, node in zip(member.analyses, mp.analysis_nodes):
                components_on.setdefault(node, set()).add(ana.name)
        node_of = {
            comp: node
            for node, comps in components_on.items()
            for comp in comps
        }

        # group events by (node, step): each faulting node must carry
        # every component placed on it
        by_site = {}
        for ev in schedule.events:
            by_site.setdefault(
                (node_of[ev.component], ev.step), set()
            ).add(ev.component)
        assert by_site  # rate 1.0 faults every (node, step)
        for (node, _step), comps in by_site.items():
            assert comps == components_on[node]

    def test_spread_placement_separates_fault_domains(self):
        spec = _small_spec(n_steps=5)
        placement = spread_components(spec)
        model = NodeFailureModel(placement, rate=1.0, seed=3)
        schedule = model.build_schedule(spec)
        # every component still faults (rate 1), but each event group
        # on a node only carries that node's single component
        comps = {ev.component for ev in schedule.events}
        expected = set()
        for member in spec.members:
            expected.add(member.simulation.name)
            expected.update(a.name for a in member.analyses)
        assert comps == expected

    def test_placement_mismatch_rejected(self):
        spec = _small_spec()
        other = _small_spec(num_analyses=1)
        model = NodeFailureModel(
            pack_members_per_node(other), rate=0.5
        )
        with pytest.raises(ValidationError):
            model.build_schedule(spec)


class TestCorrelatedDeterminism:
    """Fixed seed => identical schedule, for both arrival processes."""

    @pytest.fixture(scope="class")
    def cspec(self):
        return _small_spec(n_steps=20)

    def _markov(self, seed):
        return CorrelatedFailureModel(
            MarkovModulatedArrivals(
                quiet_rate=0.02,
                burst_rate=0.6,
                p_enter=0.2,
                p_exit=0.4,
            ),
            seed=seed,
        )

    def _weibull(self, seed):
        return CorrelatedFailureModel(
            WeibullBurstArrivals(mean_gap=4.0, burst_rate=0.8),
            seed=seed,
        )

    @pytest.mark.parametrize("factory", ["_markov", "_weibull"])
    def test_same_seed_same_schedule(self, cspec, factory):
        build = getattr(self, factory)
        a = build(11).build_schedule(cspec)
        b = build(11).build_schedule(cspec)
        assert a.events == b.events

    @pytest.mark.parametrize("factory", ["_markov", "_weibull"])
    def test_rebuild_on_same_instance_is_stable(self, cspec, factory):
        model = getattr(self, factory)(7)
        assert (
            model.build_schedule(cspec).events
            == model.build_schedule(cspec).events
        )

    def test_different_seeds_differ(self, cspec):
        a = self._markov(1).build_schedule(cspec)
        b = self._markov(2).build_schedule(cspec)
        assert a.events != b.events

    def test_node_model_with_process_is_deterministic(self, cspec):
        placement = pack_members_per_node(cspec)
        process = MarkovModulatedArrivals(
            quiet_rate=0.05, burst_rate=0.9, p_enter=0.3, p_exit=0.3
        )
        a = NodeFailureModel(
            placement, process=process, seed=5
        ).build_schedule(cspec)
        b = NodeFailureModel(
            placement, process=process, seed=5
        ).build_schedule(cspec)
        assert a.events == b.events

    def test_hazard_uses_stationary_mean_rate(self):
        process = MarkovModulatedArrivals(
            quiet_rate=0.0, burst_rate=0.5, p_enter=0.1, p_exit=0.4
        )
        model = CorrelatedFailureModel(process)
        assert model.hazard().site_rate == pytest.approx(
            process.mean_rate
        )


class TestRobustnessTerm:
    def test_exactly_one_model_source_required(self):
        with pytest.raises(ValidationError):
            RobustnessTerm(policy=RetryBackoffPolicy())
        with pytest.raises(ValidationError):
            RobustnessTerm(
                policy=RetryBackoffPolicy(),
                model=RandomFailureModel(rate=0.1),
                model_builder=node_crash_builder(0.1),
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            RobustnessTerm(
                policy=RetryBackoffPolicy(),
                model=RandomFailureModel(rate=0.1),
                weight=-1.0,
            )

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValidationError, match="weight"):
            RobustnessTerm(
                policy=RetryBackoffPolicy(),
                model=RandomFailureModel(rate=0.1),
                weight=weight,
            )

    def test_penalty_zero_without_failures(self, spec, placement):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(), model=NoFailureModel()
        )
        stages = predict_member_stages(spec, placement)
        assert term.penalty(
            spec, placement, stages=stages
        ) == pytest.approx(0.0)

    def test_penalty_scales_with_weight(self, spec, placement):
        kwargs = dict(
            policy=RetryBackoffPolicy(),
            model=RandomFailureModel(rate=0.1),
        )
        stages = predict_member_stages(spec, placement)
        p1 = RobustnessTerm(weight=1.0, **kwargs).penalty(
            spec, placement, stages=stages
        )
        p2 = RobustnessTerm(weight=2.0, **kwargs).penalty(
            spec, placement, stages=stages
        )
        assert p1 > 0
        assert p2 == pytest.approx(2 * p1)

    def test_penalty_prices_the_given_stages(self, spec, placement):
        # the scorers price penalties from the stages they already hold
        # on their platform: the penalty is a function of those stages
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(),
            model=RandomFailureModel(rate=0.1),
        )
        stages = predict_member_stages(spec, placement)
        priced = term.penalty(spec, placement, stages=stages)
        assert priced > 0
        assert term.penalty(spec, placement, stages=stages) == priced
        # another platform predicts other stages, so the equality
        # above is not vacuous
        other = predict_member_stages(
            spec,
            placement,
            cluster=make_cori_like_cluster(
                placement.num_nodes, contention_enabled=False
            ),
            dtl=InMemoryStagingDTL(producer_progress_tax=0.03),
        )
        assert term.penalty(spec, placement, stages=other) != priced

    def test_builder_gets_the_candidate_placement(self):
        seen = []

        def builder(placement):
            seen.append(placement)
            return NoFailureModel()

        term = RobustnessTerm(
            policy=RetryBackoffPolicy(), model_builder=builder
        )
        spec = _small_spec()
        placement = pack_members_per_node(spec)
        term.penalty(
            spec, placement, stages=predict_member_stages(spec, placement)
        )
        assert seen == [placement]

    def test_node_crash_builder_builds_node_models(self):
        spec = _small_spec()
        placement = pack_members_per_node(spec)
        model = node_crash_builder(rate=0.07, seed=2)(placement)
        assert isinstance(model, NodeFailureModel)
        assert model.rate == pytest.approx(0.07)
        assert model.placement is placement

    def test_planner_pays_the_penalty(self):
        from repro.scheduler.planner import ResourceConstrainedPlanner

        spec = _small_spec()
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(),
            model_builder=node_crash_builder(0.05),
        )
        ideal = ResourceConstrainedPlanner().plan(spec, num_nodes=3)
        robust = ResourceConstrainedPlanner(
            context=PlanningContext(robustness=term)
        ).plan(spec, num_nodes=3)
        assert ideal.score.robust_penalty == 0.0
        assert robust.score.robust_penalty > 0.0
        assert robust.score.utility == pytest.approx(
            robust.score.objective - robust.score.robust_penalty
        )

    def test_annealer_accepts_the_term(self):
        from repro.scheduler.annealing import SimulatedAnnealingPolicy
        from repro.scheduler.objectives import score_placement

        spec = _small_spec()
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(),
            model_builder=node_crash_builder(0.05),
        )
        annealer = SimulatedAnnealingPolicy(
            seed=4, plateau=40, cooling=0.85, min_temperature_ratio=1e-2
        )
        context = PlanningContext(robustness=term)
        placement = annealer.place(spec, 3, 32, context=context)
        score = score_placement(spec, placement, context=context)
        assert score.robust_penalty > 0.0
        assert score.utility == pytest.approx(
            score.objective - score.robust_penalty
        )
