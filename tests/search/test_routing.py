"""The engine's vectorized/scalar routing is observable, not silent.

``find_best_placement`` with a ``vectorized=True`` context runs the
column kernel at every canonical size, and may legitimately run the
scalar path for two reasons only — a robustness term, or an
unvectorizable context. Each of those decisions is recorded:
:func:`last_search_routing` carries the structured reason for the most
recent search and :func:`search_counters` tallies requests, uses, and
fallbacks process-wide. These tests pin the exact reason strings the
service stats and the benchmarks surface.
"""

import pytest

import repro.search.vectorized as vectorized_mod
from repro.faults.analytic import RobustnessTerm
from repro.faults.models import RandomFailureModel
from repro.faults.recovery import RetryBackoffPolicy
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.search.engine import (
    find_best_placement,
    last_search_routing,
    reset_search_counters,
    search_counters,
)
from repro.search.vectorized import VectorizedUnsupported

VECTORIZED = PlanningContext(vectorized=True)


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_search_counters()
    yield
    reset_search_counters()


def _spec(n_members: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        "route",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=4)
            for i in range(n_members)
        ),
    )


class TestScalarOnly:
    def test_unrequested_search_records_nothing_vectorized(self):
        find_best_placement(_spec(), 2, 32)
        routing = last_search_routing()
        assert routing == {
            "vectorized_requested": False,
            "vectorized_used": False,
            "fallback_reason": None,
        }
        counters = search_counters()
        assert counters["searches"] == 1
        assert counters["vectorized_requested"] == 0
        assert counters["vectorized_fallbacks"] == 0


class TestFallbackReasons:
    def test_below_threshold(self):
        # a space below MIN_VECTORIZED_CANDIDATES is no longer a reason
        # to fall back: the 5-candidate space runs the kernel and
        # returns exactly what the scalar engine does
        scalar_best, scalar_n = find_best_placement(_spec(), 2, 32)
        best, n = find_best_placement(_spec(), 2, 32, context=VECTORIZED)
        assert n == scalar_n == 5
        routing = last_search_routing()
        assert routing["vectorized_requested"]
        assert routing["vectorized_used"]
        assert routing["fallback_reason"] is None
        assert best.placement == scalar_best.placement
        assert best.objective == scalar_best.objective
        assert best.ensemble_makespan == scalar_best.ensemble_makespan
        assert best.member_indicators == scalar_best.member_indicators
        counters = search_counters()
        assert counters["vectorized_requested"] == 1
        assert counters["vectorized_used"] == 1
        assert counters["vectorized_fallbacks"] == 0

    def test_robustness_term_present(self):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(), model=RandomFailureModel(rate=0.05)
        )
        find_best_placement(
            _spec(), 2, 32, context=VECTORIZED.evolve(robustness=term)
        )
        assert (
            last_search_routing()["fallback_reason"]
            == "robustness term present"
        )

    def test_unvectorizable_context(self, monkeypatch):
        def raise_unsupported(*args, **kwargs):
            raise VectorizedUnsupported("custom component model")

        monkeypatch.setattr(
            vectorized_mod,
            "find_best_placement_vectorized",
            raise_unsupported,
        )
        find_best_placement(_spec(), 2, 32, context=VECTORIZED)
        assert (
            last_search_routing()["fallback_reason"]
            == "context not vectorizable: custom component model"
        )
        assert search_counters()["vectorized_fallbacks"] == 1


class TestVectorizedUsed:
    def test_success_path_recorded(self):
        scalar_best, scalar_n = find_best_placement(_spec(), 2, 32)
        best, n = find_best_placement(_spec(), 2, 32, context=VECTORIZED)
        routing = last_search_routing()
        assert routing["vectorized_used"]
        assert routing["fallback_reason"] is None
        assert best.objective == scalar_best.objective
        assert n == scalar_n
        counters = search_counters()
        assert counters["vectorized_used"] == 1
        assert counters["vectorized_fallbacks"] == 0

    def test_counters_reset(self):
        find_best_placement(_spec(), 2, 32)
        assert search_counters()["searches"] == 1
        reset_search_counters()
        counters = search_counters()
        assert all(value == 0 for value in counters.values())
