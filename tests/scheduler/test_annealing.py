"""Tests for the simulated-annealing placement policy."""

import pytest

from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.annealing import SimulatedAnnealingPolicy
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.scheduler.policies import ExhaustiveSearchPolicy
from repro.search.cache import StageCache
from repro.util.errors import PlacementError, ValidationError
from repro.util.rng import RandomSource


@pytest.fixture
def k1_spec(two_member_spec):
    return two_member_spec


def fast_annealer(seed=0):
    """Small schedule for unit tests (paper-sized spaces are tiny)."""
    return SimulatedAnnealingPolicy(
        seed=seed, plateau=40, cooling=0.85, min_temperature_ratio=1e-2
    )


class TestAnnealing:
    def test_feasible_output(self, k1_spec):
        placement = fast_annealer().place(k1_spec, 3, 32)
        demand = placement.validate_against(k1_spec, 32)
        assert max(demand.values()) <= 32

    def test_matches_exhaustive_on_paper_size(self, k1_spec):
        sa = fast_annealer(seed=2)
        best_sa = score_placement(k1_spec, sa.place(k1_spec, 2, 32))
        best_ex = score_placement(
            k1_spec, ExhaustiveSearchPolicy().place(k1_spec, 2, 32)
        )
        assert best_sa.objective == pytest.approx(
            best_ex.objective, rel=1e-9
        )

    def test_deterministic_given_seed(self, k1_spec):
        a = fast_annealer(seed=5).place(k1_spec, 3, 32)
        b = fast_annealer(seed=5).place(k1_spec, 3, 32)
        assert a == b

    def test_stats_populated(self, k1_spec):
        sa = fast_annealer()
        sa.place(k1_spec, 3, 32)
        assert sa.stats.evaluations > 0
        assert sa.stats.accepted <= sa.stats.evaluations

    def test_impossible_budget_rejected(self, k1_spec):
        with pytest.raises(PlacementError):
            fast_annealer().place(k1_spec, 1, 32)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            SimulatedAnnealingPolicy(cooling=1.0)
        with pytest.raises(ValidationError):
            SimulatedAnnealingPolicy(cooling=0.0)
        with pytest.raises(ValidationError):
            SimulatedAnnealingPolicy(plateau=0)
        with pytest.raises(ValidationError):
            SimulatedAnnealingPolicy(initial_temperature=0)

    @pytest.mark.slow
    def test_finds_colocated_optimum_on_larger_problem(self):
        """Six members over six nodes: the fully co-located placement
        (F = greedy's optimum) must be found with the default schedule."""
        spec = EnsembleSpec(
            "big",
            tuple(default_member(f"em{i}", n_steps=5) for i in range(1, 7)),
        )
        sa = SimulatedAnnealingPolicy(seed=0)
        placement = sa.place(spec, 6, 32)
        score = score_placement(spec, placement)
        from repro.scheduler.policies import GreedyIndicatorPolicy

        greedy_score = score_placement(
            spec, GreedyIndicatorPolicy().place(spec, 6, 32)
        )
        assert score.objective >= greedy_score.objective * 0.999


class TestMoveDraw:
    """The annealer draws a move target as ``options[integers(0, n)]``.

    That is the draw ``int(gen.choice(options))`` makes, minus its
    array conversion. If a numpy release changes ``Generator.choice``,
    this fails instead of the annealer's trajectory drifting silently
    away from the recorded goldens.
    """

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**31 - 1])
    def test_index_draw_matches_choice(self, seed):
        by_index = RandomSource(seed, name="annealer").generator
        by_choice = RandomSource(seed, name="annealer").generator
        for length in range(1, 65):
            options = [(7 * k + length) % 101 for k in range(length)]
            for _ in range(5):
                picked = options[int(by_index.integers(0, len(options)))]
                assert picked == int(by_choice.choice(options))
        # both streams consumed the same state
        assert by_index.random() == by_choice.random()


class CountingStageCache(StageCache):
    """A default-context cache that counts ``evaluate_flat`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.evaluate_flat_calls = 0

    def evaluate_flat(self, *args, **kwargs):
        self.evaluate_flat_calls += 1
        return super().evaluate_flat(*args, **kwargs)


class TestTranspositionTable:
    def test_revisited_states_are_not_rescored(self):
        # the re-planner's warm-start shape: ~2 000 moves over a few
        # hundred distinct states
        spec = EnsembleSpec(
            "warm",
            tuple(default_member(f"em{i}", n_steps=16) for i in range(3)),
        )
        packed = EnsemblePlacement(
            4, tuple(MemberPlacement(i, (i,)) for i in range(3))
        )
        cache = CountingStageCache()
        sa = SimulatedAnnealingPolicy(seed=0, plateau=30)
        sa.place(
            spec,
            4,
            32,
            initial_placement=packed,
            context=PlanningContext(cache=cache),
        )
        assert cache.evaluate_flat_calls < sa.stats.evaluations
