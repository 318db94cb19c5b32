"""Benchmark: the fast placement-search engine vs the seed paths.

Times canonical enumeration, the cached exhaustive engine, scoring
through a shared cache, the vectorized branch-and-bound search (against
the scalar reference loop it replaced), and incremental annealing
(against the seed annealer) against the preserved seed implementations —
asserting bit-identical results (same winners, same floats to 1e-12,
same candidate counts) alongside the speedups.
``scripts/bench_search.py`` records the same comparison to
``BENCH_search.json`` with hard regression floors.
"""

import time

from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.annealing import SimulatedAnnealingPolicy
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.search import find_best_placement
from repro.search.cache import StageCache
from repro.search.reference import (
    anneal_reference,
    enumerate_placements_reference,
    find_best_placement_reference,
    score_placement_reference,
)

NUM_NODES = 6
CORES = 32


def _spec():
    return EnsembleSpec(
        "search-bench",
        (
            default_member("em1", num_analyses=2, n_steps=6),
            default_member("em2", num_analyses=1, n_steps=6),
            default_member("em3", num_analyses=1, n_steps=6),
        ),
    )


def test_bench_canonical_enumeration(benchmark):
    from repro.configs.generator import enumerate_placements

    spec = _spec()
    fast = benchmark(
        lambda: list(enumerate_placements(spec, NUM_NODES, CORES))
    )
    seed = list(
        enumerate_placements_reference(spec, NUM_NODES, CORES)
    )
    assert fast == seed  # same placements, same order
    print(f"\ncanonical space: {len(fast)} placements")


def test_bench_exhaustive_engine(benchmark):
    spec = _spec()
    find_best_placement(spec, NUM_NODES, CORES)  # warm imports

    best, evaluated = benchmark(
        lambda: find_best_placement(spec, NUM_NODES, CORES)
    )

    t0 = time.perf_counter()
    seed_best = None
    seed_evaluated = 0
    for placement in enumerate_placements_reference(
        spec, NUM_NODES, CORES
    ):
        score = score_placement_reference(spec, placement)
        seed_evaluated += 1
        if seed_best is None or score > seed_best:
            seed_best = score
    t_seed = time.perf_counter() - t0

    assert evaluated == seed_evaluated
    assert best.placement == seed_best.placement
    assert abs(best.objective - seed_best.objective) < 1e-12
    assert (
        abs(best.ensemble_makespan - seed_best.ensemble_makespan) < 1e-12
    )
    print(
        f"\nengine == seed loop over {evaluated} candidates "
        f"(seed loop alone: {t_seed:.2f}s)"
    )


def test_bench_batch_scoring(benchmark):
    from repro.configs.generator import enumerate_placements

    spec = _spec()
    placements = list(enumerate_placements(spec, NUM_NODES, CORES))
    context = PlanningContext(cache=StageCache())

    scores = benchmark(
        lambda: [
            score_placement(spec, placement, context=context)
            for placement in placements
        ]
    )

    sample = scores[:: max(1, len(scores) // 16)]
    for got in sample:
        want = score_placement_reference(spec, got.placement)
        assert got.objective == want.objective
        assert got.ensemble_makespan == want.ensemble_makespan
    print(f"\nscored {len(scores)} candidates through one cache")


def test_bench_vectorized_search(benchmark):
    from repro.search import find_best_placement_vectorized

    spec = _spec()
    find_best_placement_vectorized(spec, NUM_NODES, CORES)  # warm

    result = benchmark(
        lambda: find_best_placement_vectorized(spec, NUM_NODES, CORES)
    )

    scalar, evaluated = find_best_placement_reference(
        spec, NUM_NODES, CORES
    )
    assert result.scored + result.pruned == evaluated
    assert result.best.placement == scalar.placement
    assert result.best.objective == scalar.objective
    assert result.best.ensemble_makespan == scalar.ensemble_makespan
    print(
        f"\nbranch-and-bound: scored {result.scored}, pruned "
        f"{result.pruned} of {evaluated} (winner == reference loop)"
    )


def test_bench_incremental_annealing(benchmark):
    spec = EnsembleSpec(
        "anneal-bench",
        tuple(
            default_member(
                f"em{i}", num_analyses=2 if i % 2 else 1, n_steps=6
            )
            for i in range(5)
        ),
    )
    kwargs = dict(
        seed=0, plateau=30, cooling=0.9, min_temperature_ratio=1e-3
    )

    def run_incremental():
        policy = SimulatedAnnealingPolicy(**kwargs)
        return policy.place(spec, NUM_NODES, CORES), policy.stats

    placement, stats = benchmark(run_incremental)

    t0 = time.perf_counter()
    full = SimulatedAnnealingPolicy(**kwargs)
    full_placement = anneal_reference(full, spec, NUM_NODES, CORES)
    t_full = time.perf_counter() - t0

    assert placement == full_placement
    assert stats.evaluations == full.stats.evaluations
    assert stats.accepted == full.stats.accepted
    assert stats.improved == full.stats.improved
    print(
        f"\nincremental == full over {stats.evaluations} evaluations "
        f"(full path alone: {t_full:.2f}s)"
    )
