"""Tests for robust placement scoring under failure models."""

import time

import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import TABLE2_CONFIGS
from repro.faults.models import FaultKind, NoFailureModel
from repro.faults.recovery import RetryBackoffPolicy
from repro.scheduler.robust import (
    RANK_METHODS,
    RobustScore,
    crash_straggler_factory,
    rank_placements_robust,
    robust_score_placement,
    surrogate_score_placement,
)
from repro.util.errors import ValidationError


def _serial_des_ranking(spec, candidates, factory, policy, trials):
    """Serial DES trials per candidate, best first: the DES reference."""
    return sorted(
        (
            robust_score_placement(
                spec, placement, factory, policy, trials=trials, name=name
            )
            for name, placement in candidates.items()
        ),
        reverse=True,
    )


@pytest.fixture(scope="module")
def spec():
    return build_spec(TABLE2_CONFIGS["C1.5"], n_steps=4)


class TestRobustScorePlacement:
    def test_no_failures_matches_ideal(self, spec):
        score = robust_score_placement(
            spec,
            TABLE2_CONFIGS["C1.5"].placement(),
            lambda seed: NoFailureModel(),
            RetryBackoffPolicy(),
            trials=2,
            name="C1.5",
        )
        assert score.objective == pytest.approx(score.ideal_objective)
        assert score.degradation == pytest.approx(0.0)
        assert score.mean_inflation == pytest.approx(1.0)
        assert score.trials == 2
        assert score.name == "C1.5"

    def test_failures_erode_the_objective(self, spec):
        score = robust_score_placement(
            spec,
            TABLE2_CONFIGS["C1.5"].placement(),
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=2,
        )
        assert score.objective < score.ideal_objective
        assert score.degradation > 0
        assert score.mean_inflation > 1.0

    def test_trials_validated(self, spec):
        with pytest.raises(ValidationError):
            robust_score_placement(
                spec,
                TABLE2_CONFIGS["C1.5"].placement(),
                lambda seed: NoFailureModel(),
                RetryBackoffPolicy(),
                trials=0,
            )


class TestRanking:
    def test_orders_best_first(self, spec):
        candidates = {
            name: TABLE2_CONFIGS[name].placement()
            for name in ("C1.1", "C1.4", "C1.5")
        }
        scores = rank_placements_robust(
            spec,
            candidates,
            crash_straggler_factory(0.05),
            RetryBackoffPolicy(),
            trials=1,
        )
        assert [type(s) for s in scores] == [RobustScore] * 3
        objectives = [s.objective for s in scores]
        assert objectives == sorted(objectives, reverse=True)
        # co-location stays the robust winner at a low rate
        assert scores[0].name == "C1.5"


class TestRobustScoreOrdering:
    def _score(self, objective, num_nodes=2, inflation=1.0):
        return RobustScore(
            name="x",
            placement=TABLE2_CONFIGS["C1.5"].placement(),
            objective=objective,
            ideal_objective=objective,
            mean_inflation=inflation,
            mean_goodput=0.1,
            num_nodes=num_nodes,
            trials=1,
        )

    def test_higher_objective_wins(self):
        assert self._score(0.2) > self._score(0.1)

    def test_fewer_nodes_break_ties(self):
        assert self._score(0.1, num_nodes=2) > self._score(0.1, num_nodes=3)

    def test_lower_inflation_breaks_remaining_ties(self):
        assert self._score(0.1, inflation=1.1) > self._score(
            0.1, inflation=1.5
        )


class TestFactory:
    def test_factory_seeds_models_independently(self):
        factory = crash_straggler_factory(0.2, (FaultKind.CRASH,))
        a, b = factory(1), factory(2)
        assert a.rate == b.rate == 0.2
        assert a.seed != b.seed


class TestSurrogateMethod:
    """The acceptance criterion: surrogate ranking reproduces the DES
    ranking of the paper's C1/C2 candidates at a >= 10x speedup."""

    CANDIDATES = ("C1.1", "C1.4", "C1.5", "C2.1", "C2.8")

    def test_unknown_method_rejected(self, spec):
        with pytest.raises(ValidationError, match="surrogate"):
            rank_placements_robust(
                spec,
                {"C1.5": TABLE2_CONFIGS["C1.5"].placement()},
                crash_straggler_factory(0.05),
                RetryBackoffPolicy(),
                method="bogus",
            )
        assert RANK_METHODS == ("des", "surrogate")

    def test_surrogate_scores_carry_zero_trials(self, spec):
        score = surrogate_score_placement(
            spec,
            TABLE2_CONFIGS["C1.5"].placement(),
            crash_straggler_factory(0.05, (FaultKind.CRASH,))(0),
            RetryBackoffPolicy(),
            name="C1.5",
        )
        assert score.trials == 0
        assert score.objective < score.ideal_objective
        assert score.mean_inflation > 1.0

    def test_zero_rate_surrogate_matches_analytic_ideal(self, spec):
        score = surrogate_score_placement(
            spec,
            TABLE2_CONFIGS["C1.5"].placement(),
            NoFailureModel(),
            RetryBackoffPolicy(),
        )
        assert score.objective == pytest.approx(score.ideal_objective)
        assert score.mean_inflation == pytest.approx(1.0)

    def test_surrogate_reproduces_des_ranking_10x_faster(self):
        from repro.configs.table4 import TABLE4_CONFIGS

        all_configs = {**TABLE2_CONFIGS, **TABLE4_CONFIGS}
        # candidate families share their spec's coupling shape: the
        # one-analysis C1 set and the two-analysis C2 book-ends
        families = {
            "C1.5": ("C1.1", "C1.4", "C1.5"),
            "C2.1": ("C2.1", "C2.8"),
        }
        factory = crash_straggler_factory(0.05, (FaultKind.CRASH,))
        policy = RetryBackoffPolicy()

        t_des = t_sur = 0.0
        for spec_name, names in families.items():
            spec = build_spec(all_configs[spec_name], n_steps=10)
            candidates = {
                name: all_configs[name].placement() for name in names
            }
            # warm both paths (imports, stage-prediction caches) so
            # the timing compares steady-state costs
            warm = {spec_name: candidates[spec_name]}
            _serial_des_ranking(spec, warm, factory, policy, trials=1)
            rank_placements_robust(
                spec, warm, factory, policy, method="surrogate"
            )

            t0 = time.perf_counter()
            des = _serial_des_ranking(
                spec, candidates, factory, policy, trials=2
            )
            t_des += time.perf_counter() - t0

            t0 = time.perf_counter()
            surrogate = rank_placements_robust(
                spec, candidates, factory, policy, method="surrogate"
            )
            t_sur += time.perf_counter() - t0

            assert [s.name for s in surrogate] == [s.name for s in des]

        assert t_des / t_sur >= 10.0
