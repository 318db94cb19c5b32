"""Searches that used to fall back to the scalar engine are exact now.

``find_best_placement`` once ran the scalar loop for three reasons: a
space below the kernel's size threshold, a robustness term, and a
network or DTL model the kernel did not replicate. There is no routing
any more — the column kernel is the one engine — so each former reason
is now a case where the kernel must return exactly what the scalar
loop (:func:`~repro.search.reference.find_best_placement_reference`)
returns: winner, floats, robust penalty and ``evaluated``.
"""

from repro.dtl.pfs import ParallelFilesystemDTL
from repro.faults.analytic import RobustnessTerm
from repro.faults.models import RandomFailureModel
from repro.faults.recovery import RetryBackoffPolicy
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.search.engine import find_best_placement
from repro.search.reference import find_best_placement_reference
from repro.search.vectorized import MIN_VECTORIZED_CANDIDATES


def _spec(n_members: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        "route",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=4)
            for i in range(n_members)
        ),
    )


def _assert_exact(spec, num_nodes, context=None):
    best, n = find_best_placement(spec, num_nodes, 32, context=context)
    ref, ref_n = find_best_placement_reference(
        spec, num_nodes, 32, context=context
    )
    assert n == ref_n
    assert best.placement == ref.placement
    assert best.objective == ref.objective
    assert best.ensemble_makespan == ref.ensemble_makespan
    assert best.member_indicators == ref.member_indicators
    assert best.robust_penalty == ref.robust_penalty
    return best, n


class TestFallbackReasons:
    def test_below_threshold(self):
        # the 5-candidate space is far below the benchmark's large-search
        # label and runs the kernel like any other
        _, n = _assert_exact(_spec(), 2)
        assert n == 5 < MIN_VECTORIZED_CANDIDATES

    def test_robustness_term_present(self):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(), model=RandomFailureModel(rate=0.05)
        )
        best, _ = _assert_exact(
            _spec(3), 3, context=PlanningContext(robustness=term)
        )
        assert best.robust_penalty > 0.0

    def test_unvectorizable_context(self):
        # the parallel filesystem was outside the kernel's copied cost
        # formulas; its own read/write costs now fill the columns
        _assert_exact(
            _spec(3), 3, context=PlanningContext(dtl=ParallelFilesystemDTL())
        )
