"""Streaming best-placement search over the canonical space.

:func:`find_best_placement` fuses the three fast layers: canonical
(RGS) enumeration feeds flat assignments straight into the
:class:`~repro.search.cache.StageCache` — no intermediate placement
objects, no per-candidate predictor runs — and only an *improving*
candidate is materialized into an
:class:`~repro.runtime.placement.EnsemblePlacement` and a full
:class:`~repro.scheduler.objectives.PlacementScore`.

Tie-breaking matches :class:`~repro.scheduler.policies
.ExhaustiveSearchPolicy` exactly: candidates are visited in the seed
enumerator's order and a new best requires a strictly greater score
key, so the *first* optimum in enumeration order wins — the fast path
returns the same placement the seed search would, asserted
bit-identical in the tests.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.core.objective import objective_function
from repro.platform.cluster import Cluster
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import DEFAULT_CONTEXT, PlanningContext
from repro.scheduler.objectives import PlacementScore
from repro.search.canonical import (
    assignment_to_placement,
    component_core_demands,
    iter_canonical_assignments,
)
from repro.search.cache import StageCache
from repro.util.errors import PlacementError
from repro.util.validation import require_positive_int

# -- vectorized-routing observability ----------------------------------------
# The vectorized gate used to fall back to the scalar path silently
# (``except VectorizedUnsupported: pass``), leaving callers who asked
# for the kernel no way to tell whether it actually ran. Mirroring the
# batched fault engine's counters, every search records how it was
# routed; the service surfaces these through ``/stats``.
_SEARCH_LOCK = threading.Lock()
_SEARCH_COUNTERS: Dict[str, int] = {
    "searches": 0,
    "vectorized_requested": 0,
    "vectorized_used": 0,
    "vectorized_fallbacks": 0,
}
_LAST_ROUTING: Dict[str, object] = {
    "vectorized_requested": False,
    "vectorized_used": False,
    "fallback_reason": None,
}


def search_counters() -> Dict[str, int]:
    """Snapshot of the engine-routing counters (process-wide)."""
    with _SEARCH_LOCK:
        return dict(_SEARCH_COUNTERS)


def reset_search_counters() -> None:
    """Zero the routing counters and clear the last-routing record."""
    with _SEARCH_LOCK:
        for key in _SEARCH_COUNTERS:
            _SEARCH_COUNTERS[key] = 0
        _LAST_ROUTING.update(
            {
                "vectorized_requested": False,
                "vectorized_used": False,
                "fallback_reason": None,
            }
        )


def last_search_routing() -> Dict[str, object]:
    """How the most recent :func:`find_best_placement` call was routed.

    ``fallback_reason`` is a human-readable sentence set only when the
    caller requested ``vectorized=True`` but the scalar path ran —
    the structured replacement for the old silent fallback.
    """
    with _SEARCH_LOCK:
        return dict(_LAST_ROUTING)


def _note_routing(
    requested: bool, used: bool, reason: Optional[str]
) -> None:
    with _SEARCH_LOCK:
        _SEARCH_COUNTERS["searches"] += 1
        if requested:
            _SEARCH_COUNTERS["vectorized_requested"] += 1
            if used:
                _SEARCH_COUNTERS["vectorized_used"] += 1
            else:
                _SEARCH_COUNTERS["vectorized_fallbacks"] += 1
        _LAST_ROUTING.update(
            {
                "vectorized_requested": requested,
                "vectorized_used": used,
                "fallback_reason": reason if requested and not used else None,
            }
        )


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
    the canonical generator and the stage cache.

    Parameters
    ----------
    spec / num_nodes / cores_per_node:
        The ensemble and the node budget to search.
    context:
        A :class:`~repro.scheduler.context.PlanningContext`
        (:data:`~repro.scheduler.context.DEFAULT_CONTEXT` when
        ``None``). Its ``cluster``/``dtl``/``robustness`` are the
        scoring context, as for ``score_placement``; its ``cache`` is
        shared (one is created when omitted or incompatible with
        ``(cluster, dtl)``). ``vectorized=True`` opts in to the batch
        column kernel with branch-and-bound
        (:func:`~repro.search.vectorized
        .find_best_placement_vectorized`) at every canonical size. It
        applies whenever the context is vectorizable and no robustness
        term is present; otherwise the scalar path runs unchanged. The
        kernel assesses node populations through the same cache and
        re-derives the returned score through it, and ``evaluated``
        counts the whole canonical space (scored + pruned), so callers
        observe identical results. When the scalar path runs despite
        ``vectorized=True``, the reason is recorded —
        :func:`last_search_routing` returns it and
        :func:`search_counters` tallies it (nothing falls back
        silently).

    Raises
    ------
    PlacementError
        If no feasible placement exists within the budget.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    if context is None:
        context = DEFAULT_CONTEXT
    cluster = context.cluster
    dtl = context.dtl
    robustness = context.robustness
    vectorized = context.vectorized
    cache = context.cache
    if cache is None or not cache.matches(cluster, dtl):
        cache = StageCache(cluster, dtl)

    fallback_reason: Optional[str] = None
    component_cores = component_core_demands(spec)
    if vectorized and robustness is None:
        from repro.search.canonical import count_canonical_assignments
        from repro.search.vectorized import (
            VectorizedUnsupported,
            find_best_placement_vectorized,
        )

        total = count_canonical_assignments(
            component_cores, num_nodes, cores_per_node
        )
        if total == 0:
            raise PlacementError(
                f"no feasible placement over {num_nodes} nodes of "
                f"{cores_per_node} cores"
            )
        try:
            result = find_best_placement_vectorized(
                spec,
                num_nodes,
                cores_per_node,
                cluster=cluster,
                dtl=dtl,
                cache=cache,
                chunk_size=min(total, 8192),
            )
        except VectorizedUnsupported as exc:
            fallback_reason = f"context not vectorizable: {exc}"
        else:
            _note_routing(True, True, None)
            return result.best, result.candidates
    elif vectorized:
        fallback_reason = "robustness term present"
    _note_routing(vectorized, False, fallback_reason)

    evaluated = 0
    best = None
    best_key: Optional[Tuple[float, float]] = None
    robust_cluster: Optional[Cluster] = None
    # candidates frequently repeat the exact indicator tuple (different
    # node labels, same local patterns) — memoize F over it, which
    # reuses the identical float rather than re-aggregating
    objective_memo: dict = {}
    for assignment in iter_canonical_assignments(
        component_cores, num_nodes, cores_per_node
    ):
        evaluation = cache.evaluate_flat(spec, assignment, num_nodes)
        evaluated += 1
        indicator_key = tuple(evaluation.indicators)
        objective = objective_memo.get(indicator_key)
        if objective is None:
            objective = objective_function(evaluation.indicators)
            objective_memo[indicator_key] = objective
        penalty = 0.0
        if robustness is not None:
            placement = assignment_to_placement(spec, assignment, num_nodes)
            if cluster is None:
                if robust_cluster is None:
                    robust_cluster = make_cori_like_cluster(num_nodes)
                penalty_cluster = robust_cluster
            else:
                penalty_cluster = cluster
            penalty = robustness.penalty(
                spec,
                placement,
                cluster=penalty_cluster,
                dtl=dtl,
                stages=evaluation.stages_by_name(spec),
            )
        # PlacementScore._key with num_nodes fixed across candidates:
        # (utility, -makespan), strictly greater keeps the first optimum
        key = (objective - penalty, -evaluation.worst_makespan)
        if best_key is None or key > best_key:
            best_key = key
            best = PlacementScore(
                placement=assignment_to_placement(
                    spec, assignment, num_nodes
                ),
                objective=objective,
                ensemble_makespan=evaluation.worst_makespan,
                num_nodes=num_nodes,
                member_indicators=tuple(evaluation.indicators),
                robust_penalty=penalty,
            )
    if best is None:
        raise PlacementError(
            f"no feasible placement over {num_nodes} nodes of "
            f"{cores_per_node} cores"
        )
    return best, evaluated
