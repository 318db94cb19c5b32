"""Seed (pre-optimization) implementations, kept as the baseline.

The fast engine's contract is *bit-identical results, less work* — the
only way to keep that promise honest over time is to keep the slow
implementations around and diff against them. This module preserves
four of them:

- the original product-then-dedup enumerator, exactly as it shipped;
- :func:`score_placement_reference`, the uncached scorer: one full
  :func:`~repro.runtime.analytic.predict_member_stages` call per
  placement, on an explicit cluster and DTL;
- :func:`find_best_placement_reference`, the scalar search loop the
  column kernel replaced;
- :func:`anneal_reference`, the seed annealer, which re-scores every
  candidate in full where :class:`~repro.scheduler.annealing
  .SimulatedAnnealingPolicy` evaluates deltas.

The property tests assert the placement-space walker reproduces the
enumerator's streams (deduplicated with no node opened, labelled with
every node opened), :func:`~repro.scheduler.objectives.score_placement`
returns the uncached scorer's floats, the engine returns the loop's
winner, floats and candidate count, and the annealer walks the seed
annealer's trajectory move for move; the benchmarks in
``scripts/bench_search.py`` measure the speedup against them. Only
tests, benchmarks and the differential oracle (which imports the
scorer inside :func:`~repro.verify.oracles.run_differential_oracle`)
use this module: no planning call reaches it, and :mod:`repro.search`
does not re-export it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.indicators import (
    FINAL_STAGE_ORDER,
    MemberMeasurement,
    apply_stages,
)
from repro.core.insitu import member_makespan
from repro.core.objective import objective_function
from repro.core.stages import MemberStages
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import DEFAULT_CONTEXT, PlanningContext
from repro.scheduler.objectives import PlacementScore
from repro.search.cache import StageCache
from repro.search.canonical import (
    assignment_to_placement,
    component_core_demands,
    iter_canonical_assignments,
    node_core_demands,
)
from repro.util.errors import PlacementError
from repro.util.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.dtl.base import DataTransportLayer
    from repro.faults.analytic import RobustnessTerm
    from repro.platform.cluster import Cluster
    from repro.scheduler.annealing import SimulatedAnnealingPolicy


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
    :func:`repro.search.canonical.iter_assignment_chunks`, which
    yields the identical streams without walking the raw space: the
    deduplicated one with no node opened, the ``dedup_symmetric=False``
    one with every node opened.
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


def score_placement_reference(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    *,
    cluster: Optional["Cluster"] = None,
    dtl: Optional["DataTransportLayer"] = None,
    robustness: Optional["RobustnessTerm"] = None,
    stages: Optional[Dict[str, MemberStages]] = None,
) -> PlacementScore:
    """The uncached scorer: predict every member's stages, then score.

    Runs :func:`~repro.runtime.analytic.predict_member_stages` on
    ``cluster`` (a Cori-like cluster of the placement's size when
    ``None``) and ``dtl``, then applies Eqs. 1-9 member by member.
    :func:`~repro.scheduler.objectives.score_placement` must return
    exactly these floats when its context's cache holds the same
    cluster and DTL. ``stages`` replaces the prediction (the
    differential oracle passes a mutated predictor's stages through
    it); ``robustness`` adds the surrogate penalty on those stages.
    """
    if cluster is None:
        cluster = make_cori_like_cluster(placement.num_nodes)
    if stages is None:
        stages = predict_member_stages(
            spec, placement, cluster=cluster, dtl=dtl
        )

    indicators = []
    worst_makespan = 0.0
    for member_spec, mp in zip(spec.members, placement.members):
        member_stages = stages[member_spec.name]
        measurement = MemberMeasurement(
            name=member_spec.name,
            stages=member_stages,
            total_cores=member_spec.total_cores,
            placement=mp.to_placement_sets(),
        )
        indicators.append(
            apply_stages(measurement, FINAL_STAGE_ORDER, placement.num_nodes)
        )
        worst_makespan = max(
            worst_makespan,
            member_makespan(member_stages, member_spec.n_steps),
        )
    penalty = 0.0
    if robustness is not None:
        penalty = robustness.penalty(spec, placement, stages=stages)
    return PlacementScore(
        placement=placement,
        objective=objective_function(indicators),
        ensemble_makespan=worst_makespan,
        num_nodes=placement.num_nodes,
        member_indicators=tuple(indicators),
        robust_penalty=penalty,
    )


def find_best_placement_reference(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    *,
    context: Optional[PlanningContext] = None,
) -> Tuple[PlacementScore, int]:
    """The scalar search loop: one canonical assignment at a time.

    Streams the canonical assignments through
    :meth:`StageCache.evaluate_flat` on the context's cache (a fresh
    Cori-like one when ``None``), prices each with the context's
    robustness term, and keeps the first strict optimum of
    ``(utility, -makespan)``. :func:`~repro.search.engine
    .find_best_placement` must return exactly this (winner, floats,
    ``evaluated``) or raise the same :class:`PlacementError` class.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    if context is None:
        context = DEFAULT_CONTEXT
    robustness = context.robustness
    cache = context.cache or StageCache()
    component_cores = component_core_demands(spec)

    evaluated = 0
    best = None
    best_key: Optional[Tuple[float, float]] = None
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
            penalty = robustness.penalty(
                spec,
                assignment_to_placement(spec, assignment, num_nodes),
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


def anneal_reference(
    policy: "SimulatedAnnealingPolicy",
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    initial_placement: Optional[EnsemblePlacement] = None,
) -> EnsemblePlacement:
    """The seed annealer: ``policy``'s schedule, every move re-scored.

    Runs :class:`~repro.scheduler.annealing.SimulatedAnnealingPolicy`'s
    schedule — start state, move draws, Metropolis acceptance, cooling
    — from ``policy``'s configuration and RNG stream, but scores every
    candidate in full with :func:`score_placement_reference` on the
    platform of ``policy.cache`` (Cori-like when it has none): no
    cache, no transposition table. It records its move statistics on
    ``policy.stats``. :meth:`SimulatedAnnealingPolicy.place` must
    return the same placement with the same ``stats`` from a fresh
    policy built alike. Returns the anneal's winner; the optional
    robust refinement of ``place`` re-ranks after the anneal and is
    not part of it.
    """
    flat = policy.initial_assignment(
        spec, num_nodes, cores_per_node, initial_placement
    )
    gen = policy.rng.generator
    stats = policy.stats
    component_cores = component_core_demands(spec)

    # the policy's platform, read from its cache and never memoized
    platform = policy.cache or StageCache()

    def score(flat: Sequence[int]) -> PlacementScore:
        return score_placement_reference(
            spec,
            assignment_to_placement(spec, flat, num_nodes),
            cluster=platform.cluster,
            dtl=platform.dtl,
            robustness=policy.robustness,
        )

    current = score(flat)
    stats.evaluations += 1
    best_flat = list(flat)
    best = current

    temperature = policy.initial_temperature * max(
        abs(current.utility), 1e-9
    )
    floor = temperature * policy.min_temperature_ratio

    demand = node_core_demands(component_cores, flat)
    while temperature > floor:
        for _ in range(policy.plateau):
            idx = int(gen.integers(0, len(flat)))
            old_node = flat[idx]
            cores = component_cores[idx]
            options = [
                n
                for n in range(num_nodes)
                if n != old_node
                and demand.get(n, 0) + cores <= cores_per_node
            ]
            if not options:
                continue
            new_node = options[int(gen.integers(0, len(options)))]
            flat[idx] = new_node
            demand[old_node] -= cores
            demand[new_node] = demand.get(new_node, 0) + cores

            candidate = score(flat)
            stats.evaluations += 1
            delta = candidate.utility - current.utility
            if delta >= 0 or gen.random() < math.exp(delta / temperature):
                current = candidate
                stats.accepted += 1
                if candidate.utility > best.utility:
                    best = candidate
                    best_flat = list(flat)
                    stats.improved += 1
            else:
                # revert the move
                flat[idx] = old_node
                demand[new_node] -= cores
                demand[old_node] += cores
        temperature *= policy.cooling

    return assignment_to_placement(spec, best_flat, num_nodes)
