"""Fast placement-search engine (canonical + memoized + vectorized).

The seed search stack is the naive reference: enumerate
``nodes^components`` raw assignments, dedup after the fact, re-run the
full analytic predictor per candidate, re-score every member per
annealing move. This package replaces the *work*, not the *answers* —
every fast path is asserted bit-identical to the seed implementation
it supersedes (same placements, same score floats):

- :mod:`~repro.search.canonical` — restricted-growth-string
  enumeration: one representative per node-relabeling class, capacity
  pruning inside the recursion, closed-form counting over capacity
  multisets, and :func:`search_space_size`, the closed-form
  feasibility check every search (and the service) makes first;
- :mod:`~repro.search.cache` — :class:`StageCache`, memoized stage
  prediction keyed by each member's local co-location signature, with
  delta (changed-nodes-only) re-evaluation for move-based search, plus
  the memoized node assessments and staging costs the kernel reads;
- :mod:`~repro.search.vectorized` — :class:`VectorizedScorer`, numpy
  column kernels that score whole assignment chunks per dispatch, and
  :func:`find_best_placement_vectorized`, branch-and-bound over the
  chunked canonical stream with an optional robustness term. Every
  scored row equals the :class:`StageCache` scalar scores bit for bit;
- :mod:`~repro.search.engine` — :func:`find_best_placement`, the one
  exhaustive search entry point, a thin front end that runs the kernel
  for any :class:`~repro.scheduler.context.PlanningContext`;
- :mod:`~repro.search.reference` — the seed enumerator and the scalar
  search loop (:func:`find_best_placement_reference`), kept as the
  baselines the benchmarks and property tests diff against.

See ``docs/PERFORMANCE.md`` for the architecture and the determinism
guarantees.
"""

from repro.search.cache import FlatEvaluation, StageCache
from repro.search.canonical import (
    CompletionCounter,
    assignment_to_placement,
    component_core_demands,
    count_canonical_assignments,
    count_raw_assignments,
    enumerate_canonical_placements,
    iter_assignment_chunks,
    iter_canonical_assignments,
    member_shapes,
    search_space_size,
)
from repro.search.reference import (
    canonical_signature,
    count_feasible_placements_reference,
    enumerate_placements_reference,
    find_best_placement_reference,
)

# engine and vectorized score through repro.scheduler.objectives, which
# (via repro.scheduler.policies) enumerates through
# repro.configs.generator, which uses repro.search.canonical — loading
# them eagerly here would close that cycle. PEP 562 lazy loading keeps
# the public surface flat while the canonical/cache layers stay
# importable from anywhere in the scheduler stack.
_LAZY_EXPORTS = {
    "MIN_VECTORIZED_CANDIDATES": "repro.search.vectorized",
    "VectorizedScorer": "repro.search.vectorized",
    "VectorizedSearchResult": "repro.search.vectorized",
    "argmax_batch": "repro.search.vectorized",
    "find_best_placement": "repro.search.engine",
    "find_best_placement_vectorized": "repro.search.vectorized",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value

__all__ = [
    "CompletionCounter",
    "FlatEvaluation",
    "MIN_VECTORIZED_CANDIDATES",
    "StageCache",
    "VectorizedScorer",
    "VectorizedSearchResult",
    "argmax_batch",
    "assignment_to_placement",
    "canonical_signature",
    "component_core_demands",
    "count_canonical_assignments",
    "count_feasible_placements_reference",
    "count_raw_assignments",
    "enumerate_canonical_placements",
    "enumerate_placements_reference",
    "find_best_placement",
    "find_best_placement_reference",
    "find_best_placement_vectorized",
    "iter_assignment_chunks",
    "iter_canonical_assignments",
    "member_shapes",
    "search_space_size",
]
