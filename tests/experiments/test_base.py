"""Tests for the experiment harness machinery."""

import pytest

from repro.configs.table2 import get_config
from repro.experiments.base import (
    ExperimentResult,
    run_configuration,
    run_configuration_trials,
    trial_mean,
)
from repro.monitoring.traceio import tracer_to_dict
from repro.util.errors import ValidationError


class TestExperimentResult:
    def test_column_access(self):
        r = ExperimentResult(
            "x",
            "title",
            ["a", "b"],
            [{"a": 1, "b": 2.0}, {"a": 3, "b": 4.0}],
        )
        assert r.column("a") == [1, 3]
        with pytest.raises(ValidationError):
            r.column("missing")

    def test_row_lookup(self):
        r = ExperimentResult(
            "x", "t", ["name", "v"], [{"name": "p", "v": 1}]
        )
        assert r.row_for("name", "p") == {"name": "p", "v": 1}
        with pytest.raises(ValidationError):
            r.row_for("name", "missing")

    def test_missing_column_in_row_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentResult("x", "t", ["a", "b"], [{"a": 1}])

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentResult("x", "t", ["a"], [])

    def test_to_text_renders_all_rows(self):
        r = ExperimentResult(
            "exp1",
            "demo",
            ["cfg", "val"],
            [{"cfg": "a", "val": 1.5}, {"cfg": "b", "val": 2.5}],
            notes="note here",
        )
        text = r.to_text()
        assert "exp1" in text
        assert "a" in text and "b" in text
        assert "1.5" in text and "2.5" in text
        assert "note here" in text


class TestTrialRunning:
    def test_trials_use_distinct_seeds(self):
        config = get_config("Cc")
        results = run_configuration_trials(
            config, trials=3, n_steps=4, timing_noise=0.05
        )
        makespans = {r.ensemble_makespan for r in results}
        assert len(makespans) == 3  # noise + distinct seeds -> all differ

    def test_zero_noise_trials_identical(self):
        config = get_config("Cc")
        results = run_configuration_trials(
            config, trials=3, n_steps=4, timing_noise=0.0
        )
        makespans = {r.ensemble_makespan for r in results}
        assert len(makespans) == 1

    def test_single_run(self):
        result = run_configuration(get_config("Cf"), n_steps=4)
        assert result.ensemble_name == "Cf"
        assert result.total_nodes == 2

    def test_trial_mean(self):
        assert trial_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        with pytest.raises(ValidationError):
            trial_mean([])

    def test_invalid_trials(self):
        with pytest.raises(ValidationError):
            run_configuration_trials(get_config("Cc"), trials=0)


class TestOnePricingPerTrialSet:
    @pytest.mark.parametrize("name", ["C1.3", "C1.5", "Cf"])
    def test_trials_price_once_and_equal_separate_runs(self, pricings, name):
        config = get_config(name)
        trials = run_configuration_trials(
            config, trials=3, n_steps=5, base_seed=4, timing_noise=0.05
        )
        assert pricings == [name]
        separate = [
            run_configuration(config, n_steps=5, seed=4 + t, timing_noise=0.05)
            for t in range(3)
        ]
        assert len(pricings) == 1 + 3
        for shared, alone in zip(trials, separate):
            assert tracer_to_dict(shared.tracer) == tracer_to_dict(alone.tracer)
            assert shared.members == alone.members
            assert shared.counters == alone.counters
            assert shared.component_metrics == alone.component_metrics
            assert shared.ensemble == alone.ensemble
