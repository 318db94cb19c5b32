"""Scoring candidate placements.

A placement's quality is summarized by a :class:`PlacementScore`: the
paper's objective F over the final-stage indicators (primary), plus the
predicted ensemble makespan and node count as diagnostics. Scores are
priced on the planning platform, a :class:`~repro.search.cache
.StageCache`, so evaluating a candidate costs microseconds — cheap
enough for search.

When a :class:`~repro.faults.analytic.RobustnessTerm` is supplied, the
analytic robustness surrogate prices the placement's expected failure
cost and the score's search key becomes
``utility = F(P) - weight * (E[inflation] - 1)`` — still closed-form,
so robustness rides inside the search loop instead of re-ranking a
shortlist afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.indicators import FINAL_STAGE_ORDER
from repro.scheduler.context import PlanningContext, resolve_context
from repro.core.objective import objective_function
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec

# FINAL_STAGE_ORDER lives in repro.core.indicators (so the search
# engine's cache can use it without importing the scheduler); it stays
# re-exported here for existing callers.
__all__ = [
    "FINAL_STAGE_ORDER",
    "PlacementScore",
    "score_placement",
]


@dataclass(frozen=True, eq=False)
class PlacementScore:
    """Quality summary of one candidate placement.

    Ordering: scores compare by :attr:`utility` (the objective minus
    the robustness penalty; higher better), then by fewer nodes, then
    by lower makespan — so ``max(scores)`` is the scheduler's
    preference. Without a robustness term the penalty is 0 and the
    ordering is the classic failure-free one.

    Equality agrees with the ordering (both compare :meth:`_key`), so
    the comparison set is totally ordered: ``a <= b and b <= a``
    implies ``a == b``, as :func:`functools.total_ordering` would
    require. Two placements that tie on (utility, nodes, makespan)
    compare equal even if the placements themselves differ.
    """

    placement: EnsemblePlacement
    objective: float  # F(P^{U,A,P}), higher is better
    ensemble_makespan: float
    num_nodes: int
    member_indicators: Tuple[float, ...]
    #: weight * (E[inflation] - 1) from the robustness surrogate
    #: (0 when scored without a robustness term).
    robust_penalty: float = 0.0

    @property
    def utility(self) -> float:
        """The search target: objective minus the robustness penalty."""
        return self.objective - self.robust_penalty

    def _key(self) -> Tuple[float, int, float]:
        return (self.utility, -self.num_nodes, -self.ensemble_makespan)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementScore):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, PlacementScore):
            return NotImplemented
        return self._key() != other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __lt__(self, other: "PlacementScore") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "PlacementScore") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "PlacementScore") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "PlacementScore") -> bool:
        return self._key() >= other._key()


def score_placement(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    *,
    context: Optional[PlanningContext] = None,
) -> PlacementScore:
    """Score one placement on the context's platform.

    The scoring context — robustness term and stage cache — comes from
    ``context`` (:data:`~repro.scheduler.context.DEFAULT_CONTEXT` when
    ``None``). The placement is priced on ``context.cache``, or on a
    fresh Cori-like :class:`~repro.search.cache.StageCache` when that
    is ``None``: the cache is the platform, and it memoizes stage
    prediction and indicator terms across calls, so members whose
    local co-location pattern repeats between candidates are never
    re-predicted. The floats equal
    :func:`~repro.search.reference.score_placement_reference` on the
    cache's cluster and DTL, bit for bit.

    With a ``robustness`` term the score additionally carries
    ``robust_penalty = weight * (E[inflation] - 1)`` from the analytic
    surrogate, priced on the same cached stages, and the score's
    ordering key becomes ``objective - robust_penalty`` — both terms
    are closed-form, so the combined evaluation still costs
    microseconds.
    """
    context = resolve_context(context)
    evaluation = context.cache.member_terms(spec, placement)
    penalty = 0.0
    if context.robustness is not None:
        penalty = context.robustness.penalty(
            spec, placement, stages=evaluation.stages_by_name(spec)
        )
    return PlacementScore(
        placement=placement,
        objective=objective_function(evaluation.indicators),
        ensemble_makespan=evaluation.worst_makespan,
        num_nodes=placement.num_nodes,
        member_indicators=tuple(evaluation.indicators),
        robust_penalty=penalty,
    )
