"""The differential oracle harness: agreement, teeth, and reporting.

The important test here is the *mutant* one: a scorer with a subtle
off-by-one in the makespan step count must be caught by the oracle —
a harness that never fails is not an oracle.
"""

import json

import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import TABLE2_CONFIGS
from repro.core.indicators import (
    FINAL_STAGE_ORDER,
    MemberMeasurement,
    apply_stages,
)
from repro.core.insitu import member_makespan
from repro.core.objective import objective_function
from repro.faults.models import RandomFailureModel
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.analytic import predict_member_stages
from repro.scheduler.objectives import PlacementScore
from repro.util.errors import ValidationError
from repro.verify.oracles import (
    DivergenceReport,
    MetricCheck,
    run_differential_oracle,
    verify_scenarios,
)
from tests.tolerances import ORACLE_TOLERANCES


@pytest.fixture(scope="module")
def c15_report():
    config = TABLE2_CONFIGS["C1.5"]
    spec = build_spec(config, n_steps=6)
    return run_differential_oracle(
        spec,
        config.placement(),
        tolerances=ORACLE_TOLERANCES,
        scenario="C1.5",
    )


class TestMetricCheck:
    def test_exact_tolerance_requires_identity(self):
        ok = MetricCheck("m", "x", "a-vs-b", 1.0, 1.0, 0.0)
        near = MetricCheck("m", "x", "a-vs-b", 1.0, 1.0 + 1e-15, 0.0)
        assert ok.ok
        assert not near.ok

    def test_relative_error_uses_max_denominator(self):
        check = MetricCheck("m", "x", "a-vs-b", 100.0, 90.0, 0.2)
        assert check.error == pytest.approx(10.0 / 100.0)
        assert check.ok

    def test_nan_never_passes_banded(self):
        check = MetricCheck("m", "x", "a-vs-b", float("nan"), 1.0, 0.5)
        assert not check.ok

    def test_to_dict_round_trips_json(self):
        check = MetricCheck("m", "x", "a-vs-b", 1.0, 2.0, 0.1)
        payload = json.loads(json.dumps(check.to_dict()))
        assert payload["ok"] is False
        assert payload["paths"] == "a-vs-b"


class TestOracleAgreement:
    def test_all_paths_agree_on_c15(self, c15_report):
        assert c15_report.passed, c15_report.to_text(verbose=True)

    def test_report_covers_all_tiers(self, c15_report):
        paths = {c.paths for c in c15_report.checks}
        assert {
            "analytic-vs-cache",
            "score-vs-cache",
            "score-vs-candidate",
            "analytic-vs-des",
            "analytic-vs-surrogate",
        } <= paths

    def test_exact_tier_is_literally_exact(self, c15_report):
        cache_checks = [
            c for c in c15_report.checks if c.paths == "analytic-vs-cache"
        ]
        assert cache_checks
        assert all(c.tolerance == 0.0 for c in cache_checks)
        assert all(c.reference == c.candidate for c in cache_checks)

    def test_fault_tier_present_when_model_given(self):
        config = TABLE2_CONFIGS["Cf"]
        spec = build_spec(config, n_steps=4)
        report = run_differential_oracle(
            spec,
            config.placement(),
            failure_model=RandomFailureModel(rate=0.08, seed=11),
            fault_trials=2,
            scenario="Cf-faulted",
        )
        assert any(c.paths == "surrogate-vs-des" for c in report.checks)
        assert report.passed, report.to_text(verbose=True)

    def test_to_dict_is_machine_readable(self, c15_report):
        payload = json.loads(json.dumps(c15_report.to_dict()))
        assert payload["scenario"] == "C1.5"
        assert payload["passed"] is True
        assert payload["num_checks"] == len(c15_report.checks)
        assert payload["failures"] == []


class TestOracleHasTeeth:
    def test_mutated_scorer_is_caught(self):
        """An off-by-one in the makespan step count must diverge."""

        def mutant_score(spec, placement, context):
            cluster = context.cache.cluster
            if cluster is None:
                cluster = make_cori_like_cluster(placement.num_nodes)
            stages = predict_member_stages(
                spec, placement, cluster=cluster, dtl=context.cache.dtl
            )
            indicators, worst = [], 0.0
            for m, mp in zip(spec.members, placement.members):
                ms = stages[m.name]
                meas = MemberMeasurement(
                    m.name, ms, m.total_cores, mp.to_placement_sets()
                )
                indicators.append(
                    apply_stages(meas, FINAL_STAGE_ORDER, placement.num_nodes)
                )
                # the mutation: one extra in situ step
                worst = max(worst, member_makespan(ms, m.n_steps + 1))
            return PlacementScore(
                placement,
                objective_function(indicators),
                worst,
                placement.num_nodes,
                tuple(indicators),
            )

        config = TABLE2_CONFIGS["C1.5"]
        spec = build_spec(config, n_steps=6)
        report = run_differential_oracle(
            spec, config.placement(), score_fn=mutant_score
        )
        assert not report.passed
        failing = report.failures
        assert all(c.paths == "score-vs-candidate" for c in failing)
        assert {c.metric for c in failing} == {"makespan"}

    def test_mutated_predictor_is_caught(self):
        """A predictor that inflates the write stage must diverge."""

        def mutant_predict(spec, placement, cluster=None, dtl=None):
            from repro.core.stages import MemberStages, SimulationStages

            stages = predict_member_stages(
                spec, placement, cluster=cluster, dtl=dtl
            )
            return {
                name: MemberStages(
                    SimulationStages(
                        ms.simulation.compute, ms.simulation.write * 1.01
                    ),
                    ms.analyses,
                )
                for name, ms in stages.items()
            }

        config = TABLE2_CONFIGS["Cc"]
        spec = build_spec(config, n_steps=4)
        report = run_differential_oracle(
            spec, config.placement(), predictor=mutant_predict
        )
        assert not report.passed
        assert any("sim.write" in c.metric for c in report.failures)

    def test_divergence_text_names_the_metric(self):
        report = DivergenceReport(
            scenario="s",
            checks=(MetricCheck("em1", "makespan", "a-vs-b", 1.0, 2.0, 0.0),),
        )
        text = report.to_text()
        assert "DIVERGED" in text
        assert "em1/makespan" in text


class TestVerifyScenarios:
    def test_selected_names_run(self):
        reports = verify_scenarios(names=["Cf", "Cc"], n_steps=4)
        assert [r.scenario for r in reports] == ["Cf", "Cc"]
        assert all(r.passed for r in reports)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            verify_scenarios(names=["C9.9"])

    def test_fault_trials_validated(self):
        config = TABLE2_CONFIGS["Cf"]
        spec = build_spec(config, n_steps=4)
        with pytest.raises(ValidationError):
            run_differential_oracle(
                spec, config.placement(), fault_trials=0
            )
