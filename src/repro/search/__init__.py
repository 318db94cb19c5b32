"""Fast placement-search engine (canonical + memoized + vectorized).

The seed search stack is the naive reference: enumerate
``nodes^components`` raw assignments, dedup after the fact, re-run the
full analytic predictor per candidate, re-score every member per
annealing move. This package replaces the *work*, not the *answers* —
every fast path is asserted bit-identical to the seed implementation
it supersedes (same placements, same score floats):

- :mod:`~repro.search.canonical` — the one placement-space walker
  (:func:`iter_assignment_chunks`): restricted growth strings over a
  pool of interchangeable empty nodes beside any already-occupied
  (``opened``) ones, so one block walk, grown a component at a time
  in numpy, covers the canonical, the labelled and the greedy's
  member spaces, with capacity pruning inside it;
  :class:`CompletionCounter`, closed-form counting over capacity
  multisets; and :func:`search_space_size`, the closed-form
  feasibility check every search (and the service) makes first. It
  owns the flat component-to-node assignment format too
  (:func:`placement_to_assignment` and its inverse
  :func:`assignment_to_placement`);
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
  for any :class:`~repro.scheduler.context.PlanningContext`.

:mod:`repro.search.reference` keeps the seed enumerator, the scalar
search loop and the seed annealer as the baselines the benchmarks and
property tests diff against. Nothing at runtime imports it, and this
package does not re-export it: import it by its module path.

See ``docs/PERFORMANCE.md`` for the architecture and the determinism
guarantees.
"""

from repro.search.cache import FlatEvaluation, StageCache
from repro.search.canonical import (
    CompletionCounter,
    assignment_to_placement,
    component_core_demands,
    count_canonical_assignments,
    iter_assignment_chunks,
    iter_canonical_assignments,
    member_shapes,
    node_core_demands,
    placement_to_assignment,
    search_space_size,
)
from repro.search.engine import find_best_placement
from repro.search.vectorized import (
    MIN_VECTORIZED_CANDIDATES,
    VectorizedScorer,
    VectorizedSearchResult,
    argmax_batch,
    find_best_placement_vectorized,
)

__all__ = [
    "CompletionCounter",
    "FlatEvaluation",
    "MIN_VECTORIZED_CANDIDATES",
    "StageCache",
    "VectorizedScorer",
    "VectorizedSearchResult",
    "argmax_batch",
    "assignment_to_placement",
    "component_core_demands",
    "count_canonical_assignments",
    "find_best_placement",
    "find_best_placement_vectorized",
    "iter_assignment_chunks",
    "iter_canonical_assignments",
    "member_shapes",
    "node_core_demands",
    "placement_to_assignment",
    "search_space_size",
]
