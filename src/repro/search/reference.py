"""Seed (pre-optimization) implementations, kept as the baseline.

The fast engine's contract is *bit-identical results, less work* — the
only way to keep that promise honest over time is to keep the slow
implementations around and diff against them. This module preserves
the original product-then-dedup enumerator exactly as it shipped, and
:func:`find_best_placement_reference`, the scalar search loop the
column kernel replaced. The property tests assert the canonical
generator reproduces the enumerator's stream and the engine returns
the loop's winner, floats and candidate count; the benchmarks in
``scripts/bench_search.py`` measure the speedup against both. Only
tests and benchmarks call the search loop; at runtime, only the
labelled (``dedup_symmetric=False``) enumeration reaches this module.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.objective import objective_function
from repro.platform.cluster import Cluster
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec
from repro.search.cache import StageCache
from repro.search.canonical import (
    assignment_to_placement,
    component_core_demands,
    iter_canonical_assignments,
)
from repro.util.errors import PlacementError
from repro.util.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.scheduler.context import PlanningContext
    from repro.scheduler.objectives import PlacementScore


def canonical_signature(flat_assignment: Sequence[int]) -> Tuple[int, ...]:
    """Relabel nodes by first appearance so isomorphic placements match."""
    mapping: Dict[int, int] = {}
    out: List[int] = []
    for node in flat_assignment:
        if node not in mapping:
            mapping[node] = len(mapping)
        out.append(mapping[node])
    return tuple(out)


def enumerate_placements_reference(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    dedup_symmetric: bool = True,
) -> Iterator[EnsemblePlacement]:
    """The seed enumerator: walk ``nodes^components`` raw assignments,
    reject infeasible ones, and (optionally) drop node-relabeling
    duplicates with a ``seen`` set.

    Exponential in the component count regardless of how small the
    canonical space is — superseded by
    :func:`repro.search.canonical.enumerate_canonical_placements`,
    which yields the identical stream.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)

    component_cores: List[int] = []
    member_shapes: List[int] = []  # number of components per member
    for member in spec.members:
        member_shapes.append(1 + member.num_couplings)
        component_cores.append(member.simulation.cores)
        component_cores.extend(a.cores for a in member.analyses)

    total_components = len(component_cores)
    seen: set = set()

    for assignment in itertools.product(
        range(num_nodes), repeat=total_components
    ):
        demand: Dict[int, int] = {}
        feasible = True
        for node, cores in zip(assignment, component_cores):
            demand[node] = demand.get(node, 0) + cores
            if demand[node] > cores_per_node:
                feasible = False
                break
        if not feasible:
            continue
        if dedup_symmetric:
            sig = canonical_signature(assignment)
            if sig in seen:
                continue
            seen.add(sig)

        members: List[MemberPlacement] = []
        cursor = 0
        for shape in member_shapes:
            chunk = assignment[cursor : cursor + shape]
            cursor += shape
            members.append(
                MemberPlacement(
                    simulation_node=chunk[0], analysis_nodes=tuple(chunk[1:])
                )
            )
        yield EnsemblePlacement(num_nodes=num_nodes, members=tuple(members))


def count_feasible_placements_reference(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    dedup_symmetric: bool = True,
) -> int:
    """Seed counting: enumerate everything and count (for diffing)."""
    return sum(
        1
        for _ in enumerate_placements_reference(
            spec, num_nodes, cores_per_node, dedup_symmetric
        )
    )


def find_best_placement_reference(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    *,
    context: Optional["PlanningContext"] = None,
) -> Tuple["PlacementScore", int]:
    """The scalar search loop: one canonical assignment at a time.

    Streams the canonical assignments through
    :meth:`StageCache.evaluate_flat`, prices each with the context's
    robustness term, and keeps the first strict optimum of
    ``(utility, -makespan)``. :func:`~repro.search.engine
    .find_best_placement` must return exactly this (winner, floats,
    ``evaluated``) or raise the same :class:`PlacementError` class.
    """
    # the scheduler enumerates through this module, so import it late
    from repro.scheduler.context import DEFAULT_CONTEXT
    from repro.scheduler.objectives import PlacementScore

    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    if context is None:
        context = DEFAULT_CONTEXT
    cluster = context.cluster
    dtl = context.dtl
    robustness = context.robustness
    cache = context.cache
    if cache is None or not cache.matches(cluster, dtl):
        cache = StageCache(cluster, dtl)
    component_cores = component_core_demands(spec)

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
