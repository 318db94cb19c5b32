"""Exhaustive best-placement search over the canonical space.

:func:`find_best_placement` is the one exhaustive search entry point.
It resolves a :class:`~repro.scheduler.context.PlanningContext` and
runs the column kernel with branch-and-bound
(:func:`~repro.search.vectorized.find_best_placement_vectorized`),
which scores whole chunks of the canonical (RGS) stream through the
:class:`~repro.search.cache.StageCache` memo and materializes only the
winner into an :class:`~repro.runtime.placement.EnsemblePlacement` and
a full :class:`~repro.scheduler.objectives.PlacementScore`.

Tie-breaking matches :class:`~repro.scheduler.policies
.ExhaustiveSearchPolicy` exactly: candidates are visited in the seed
enumerator's order and a new best requires a strictly greater score
key, so the *first* optimum in enumeration order wins. The tests diff
every result — winner, floats and ``evaluated`` — against the scalar
loop kept in :func:`~repro.search.reference.find_best_placement_reference`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import DEFAULT_CONTEXT, PlanningContext
from repro.scheduler.objectives import PlacementScore
from repro.search import vectorized


def find_best_placement(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    *,
    context: Optional[PlanningContext] = None,
) -> Tuple[PlacementScore, int]:
    """Exhaustively search the canonical space; return (best, evaluated).

    Equivalent to scoring every placement of the seed enumerator with
    :func:`~repro.scheduler.objectives.score_placement` and keeping the
    first strict optimum — same winner, same score floats — but through
    the canonical generator, the stage cache and the column kernel.

    Parameters
    ----------
    spec / num_nodes / cores_per_node:
        The ensemble and the node budget to search.
    context:
        A :class:`~repro.scheduler.context.PlanningContext`
        (:data:`~repro.scheduler.context.DEFAULT_CONTEXT` when
        ``None``). Its ``cache`` is the platform and is shared (a fresh
        Cori-like one is created when omitted); its ``robustness`` is
        the scoring term, as for ``score_placement``. ``evaluated``
        counts the whole canonical space (scored + pruned).

    Raises
    ------
    PlacementError
        If no feasible placement exists within the budget, or the
        budget lets a candidate oversubscribe the physical node.
    """
    if context is None:
        context = DEFAULT_CONTEXT
    result = vectorized.find_best_placement_vectorized(
        spec,
        num_nodes,
        cores_per_node,
        cache=context.cache,
        robustness=context.robustness,
    )
    return result.best, result.candidates
