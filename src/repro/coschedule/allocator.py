"""Node partitioning across concurrently-resident ensembles.

The :class:`ClusterAllocator` answers: given the ensembles currently
resident on a ``total_nodes`` cluster, how many nodes does each get?
It searches integer grant vectors (one grant per resident, bounded by
each resident's feasibility minimum and cap, summing to at most the
cluster), scores each vector by running the existing
:func:`~repro.search.engine.find_best_placement` per ensemble at its
grant — the StageCache and column kernel are reused unchanged, and
per-(spec, grant) results are memoized so a re-partition only searches
grants it has never seen — and picks the vector maximizing a
configurable :class:`ClusterObjective`.

The partition is *complete*: grants must sum to the cluster size (or
to the residents' combined cap when that is smaller) — every node is
held by some ensemble, and F(P)'s provisioning indicator charges each
ensemble for nodes it holds but leaves idle, exactly as the paper
charges a single ensemble for its whole allocation. Without this rule
the allocator would shrink grants to inflate per-ensemble F
(provisioning improves as the allocation shrinks) while cluster nodes
idled unaccounted. Grants are enumerated *cap-first* (descending per
resident) and ties keep the first optimum, so a single resident always
holds the whole cluster and the one-ensemble stream degenerates
*exactly* to ``find_best_placement(spec, total_nodes, ...)`` —
float-identical, asserted at tolerance 0.0 by the differential
oracle's coschedule tier.

When the grant lattice is too large to enumerate (``max_partitions``),
a deterministic greedy water-filling fallback runs instead: every
resident starts at its minimum and spare nodes go one at a time to the
resident whose grant increase raises the cluster objective most (first
resident wins ties) until the partition is complete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext, resolve_context
from repro.scheduler.objectives import PlacementScore
from repro.search.cache import StageCache
from repro.search.canonical import component_core_demands, search_space_size
from repro.search.engine import find_best_placement
from repro.util.errors import PlacementError, ValidationError
from repro.util.validation import require_non_negative, require_positive_int


def grant_space(
    spec: EnsembleSpec, nodes: int, cores_per_node: int, node_cores: int
) -> int:
    """Placements ``find_best_placement`` searches over a ``nodes`` grant.

    The engine's own closed-form refusal (:func:`~repro.search
    .canonical.search_space_size`), read as 0: a grant is infeasible
    when it admits no canonical placement, or when ``cores_per_node``
    exceeds the physical ``node_cores`` and some candidate would
    oversubscribe a node.
    """
    demands = tuple(component_core_demands(spec))
    try:
        return search_space_size(demands, nodes, cores_per_node, node_cores)
    except PlacementError:
        return 0


def min_feasible_grant(
    spec: EnsembleSpec,
    lo: int,
    hi: int,
    cores_per_node: int,
    node_cores: int,
) -> Optional[int]:
    """Smallest grant in ``[lo, hi]`` the search engine accepts, else None.

    Admission and allocation share this one feasibility test
    (:func:`grant_space`), so an admitted ensemble always has a grant
    the allocator can search.
    """
    for nodes in range(lo, hi + 1):
        if grant_space(spec, nodes, cores_per_node, node_cores):
            return nodes
    return None


@dataclass(frozen=True)
class ClusterObjective:
    """The cluster-level value of one allocation.

    ``value = utility_weight * sum_e(w_e * U_e)
            + fairness_weight * min_e(U_e)
            - deadline_weight * sum_e(max(0, finish_e - deadline_e))``

    where ``U_e`` is ensemble *e*'s placement utility (F(P) minus its
    robustness penalty), ``w_e`` its priority weight, and the deadline
    sum runs over deadlined residents only. The default is the pure
    weighted sum; fairness (max-min) and deadline-miss pressure are
    opt-in.
    """

    utility_weight: float = 1.0
    fairness_weight: float = 0.0
    deadline_weight: float = 0.0

    def __post_init__(self) -> None:
        for name in ("utility_weight", "fairness_weight", "deadline_weight"):
            require_non_negative(name, getattr(self, name))
        if (
            self.utility_weight == 0.0
            and self.fairness_weight == 0.0
            and self.deadline_weight == 0.0
        ):
            raise ValidationError(
                "at least one objective weight must be positive"
            )

    def evaluate(
        self, entries: Sequence["EnsembleAllocation"]
    ) -> float:
        """The cluster value of one complete allocation."""
        if not entries:
            return 0.0
        weighted = sum(e.weight * e.score.utility for e in entries)
        fairness = min(e.score.utility for e in entries)
        lateness = sum(
            max(0.0, e.predicted_finish - e.deadline_at)
            for e in entries
            if e.deadline_at is not None
        )
        return (
            self.utility_weight * weighted
            + self.fairness_weight * fairness
            - self.deadline_weight * lateness
        )

    def to_dict(self) -> dict:
        return {
            "utility_weight": self.utility_weight,
            "fairness_weight": self.fairness_weight,
            "deadline_weight": self.deadline_weight,
        }


@dataclass(frozen=True)
class ResidentWorkload:
    """Allocator-facing view of one resident ensemble.

    ``remaining`` is the fraction of the ensemble's work left (1.0 for
    a fresh admission); ``deadline_at`` the absolute deadline, if any.
    """

    name: str
    spec: EnsembleSpec
    weight: float = 1.0
    remaining: float = 1.0
    deadline_at: Optional[float] = None
    min_nodes: int = 1
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise ValidationError(
                f"weight must be > 0, got {self.weight!r}"
            )
        if not 0.0 <= self.remaining <= 1.0:
            raise ValidationError(
                f"remaining must be within [0, 1], got {self.remaining!r}"
            )
        require_positive_int("min_nodes", self.min_nodes)


@dataclass(frozen=True)
class EnsembleAllocation:
    """One resident's share of the cluster under an allocation.

    ``score`` is the best placement over a *grant-local* allocation of
    ``num_nodes`` nodes (indices ``0..num_nodes-1``); the physical
    node block is ``[node_offset, node_offset + num_nodes)``.
    """

    name: str
    node_offset: int
    num_nodes: int
    score: PlacementScore
    weight: float
    predicted_finish: float
    deadline_at: Optional[float] = None

    def physical_placement(self, total_nodes: int) -> EnsemblePlacement:
        """The grant-local placement shifted onto cluster node indices."""
        return EnsemblePlacement(
            num_nodes=total_nodes,
            members=tuple(
                MemberPlacement(
                    simulation_node=mp.simulation_node + self.node_offset,
                    analysis_nodes=tuple(
                        n + self.node_offset for n in mp.analysis_nodes
                    ),
                )
                for mp in self.score.placement.members
            ),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "node_offset": self.node_offset,
            "num_nodes": self.num_nodes,
            "weight": self.weight,
            "utility": self.score.utility,
            "objective": self.score.objective,
            "makespan": self.score.ensemble_makespan,
            "predicted_finish": self.predicted_finish,
            "deadline_at": self.deadline_at,
        }


@dataclass(frozen=True)
class ClusterAllocation:
    """A complete partition of the cluster across residents."""

    total_nodes: int
    entries: Tuple[EnsembleAllocation, ...] = field(default_factory=tuple)
    value: float = 0.0
    exhaustive: bool = True

    @property
    def nodes_used(self) -> int:
        return sum(e.num_nodes for e in self.entries)

    def entry(self, name: str) -> EnsembleAllocation:
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        raise PlacementError(f"no allocation entry for {name!r}")

    def to_dict(self) -> dict:
        return {
            "total_nodes": self.total_nodes,
            "nodes_used": self.nodes_used,
            "value": self.value,
            "exhaustive": self.exhaustive,
            "entries": [e.to_dict() for e in self.entries],
        }


class ClusterAllocator:
    """Grant-vector search over resident ensembles.

    Parameters
    ----------
    total_nodes / cores_per_node:
        The shared cluster.
    objective:
        The :class:`ClusterObjective` allocations maximize.
    context:
        Base :class:`~repro.scheduler.context.PlanningContext`; its
        StageCache (a Cori-like one is built if absent) is the
        platform, shared across every per-ensemble search at every
        grant size — cache entries are keyed by content, not node
        budget, so re-partitions reuse all stage work.
    max_partitions:
        Largest grant lattice enumerated exhaustively; beyond it the
        deterministic greedy fallback runs (``exhaustive=False`` on
        the result).
    """

    def __init__(
        self,
        total_nodes: int,
        cores_per_node: int = 32,
        objective: Optional[ClusterObjective] = None,
        context: Optional[PlanningContext] = None,
        max_partitions: int = 20_000,
    ) -> None:
        require_positive_int("total_nodes", total_nodes)
        require_positive_int("cores_per_node", cores_per_node)
        require_positive_int("max_partitions", max_partitions)
        self.total_nodes = total_nodes
        self.cores_per_node = cores_per_node
        self.objective = objective or ClusterObjective()
        self._context = resolve_context(context)
        self._node_cores = self._context.cache.node_spec.cores
        self.max_partitions = max_partitions
        self._best: Dict[
            Tuple[int, int], Tuple[EnsembleSpec, Optional[PlacementScore]]
        ] = {}

    @property
    def stage_cache(self) -> StageCache:
        return self._context.cache

    def best_for(
        self, spec: EnsembleSpec, nodes: int
    ) -> Optional[PlacementScore]:
        """Memoized best placement of ``spec`` over a ``nodes`` grant."""
        key = (id(spec), nodes)
        memo = self._best.get(key)
        if memo is not None:
            return memo[1]
        try:
            best, _ = find_best_placement(
                spec,
                nodes,
                self.cores_per_node,
                context=self._context,
            )
        except PlacementError:
            best = None
        self._best[key] = (spec, best)
        return best

    # -- grant-vector search --------------------------------------------------
    def _grant_bounds(
        self, residents: Sequence[ResidentWorkload]
    ) -> List[Tuple[int, int]]:
        """Per-resident (min, cap) grant bounds; raises when over-committed."""
        bounds: List[Tuple[int, int]] = []
        floor_total = 0
        for resident in residents:
            cap = self.total_nodes
            if resident.max_nodes is not None:
                cap = min(cap, resident.max_nodes)
            lo = min_feasible_grant(
                resident.spec,
                resident.min_nodes,
                cap,
                self.cores_per_node,
                self._node_cores,
            )
            if lo is None:
                raise PlacementError(
                    f"resident {resident.name!r} fits no grant up to "
                    f"{cap} x {self.cores_per_node} cores"
                )
            bounds.append((lo, cap))
            floor_total += lo
        if floor_total > self.total_nodes:
            raise PlacementError(
                f"minimum footprints ({floor_total} nodes) exceed the "
                f"{self.total_nodes}-node cluster"
            )
        return bounds

    def _entries_for(
        self,
        residents: Sequence[ResidentWorkload],
        grants: Sequence[int],
        now: float,
    ) -> Optional[Tuple[EnsembleAllocation, ...]]:
        entries: List[EnsembleAllocation] = []
        offset = 0
        for resident, nodes in zip(residents, grants):
            score = self.best_for(resident.spec, nodes)
            if score is None:
                return None
            entries.append(
                EnsembleAllocation(
                    name=resident.name,
                    node_offset=offset,
                    num_nodes=nodes,
                    score=score,
                    weight=resident.weight,
                    predicted_finish=(
                        now + resident.remaining * score.ensemble_makespan
                    ),
                    deadline_at=resident.deadline_at,
                )
            )
            offset += nodes
        return tuple(entries)

    def allocate(
        self,
        residents: Sequence[ResidentWorkload],
        now: float = 0.0,
    ) -> ClusterAllocation:
        """The cluster-objective-maximizing partition over ``residents``.

        Residents keep their input order; node blocks are handed out
        contiguously in that order, so the result is deterministic in
        (residents, clock) alone. Ties keep the first grant vector in
        cap-first enumeration order.
        """
        if not residents:
            return ClusterAllocation(total_nodes=self.total_nodes)
        bounds = self._grant_bounds(residents)
        # a complete partition hands out every node, up to the
        # residents' combined cap
        target = min(self.total_nodes, sum(cap for _, cap in bounds))
        lattice = 1
        for lo, cap in bounds:
            lattice *= cap - lo + 1
        if lattice > self.max_partitions:
            return self._allocate_greedy(residents, bounds, target, now)
        best_entries: Optional[Tuple[EnsembleAllocation, ...]] = None
        best_value = 0.0
        for grants in itertools.product(
            *(range(cap, lo - 1, -1) for lo, cap in bounds)
        ):
            if sum(grants) != target:
                continue
            entries = self._entries_for(residents, grants, now)
            if entries is None:
                continue
            value = self.objective.evaluate(entries)
            if best_entries is None or value > best_value:
                best_entries = entries
                best_value = value
        if best_entries is None:
            raise PlacementError(
                f"no grant vector fits {len(residents)} residents on "
                f"{self.total_nodes} nodes"
            )
        return ClusterAllocation(
            total_nodes=self.total_nodes,
            entries=best_entries,
            value=best_value,
        )

    def _allocate_greedy(
        self,
        residents: Sequence[ResidentWorkload],
        bounds: Sequence[Tuple[int, int]],
        target: int,
        now: float,
    ) -> ClusterAllocation:
        """Deterministic water-filling when the lattice is too large.

        The partition must still be complete, so every spare node is
        handed to the resident whose grant increase changes the
        cluster value the most (first resident wins ties) even when
        the best available change is negative.
        """
        grants = [lo for lo, _ in bounds]
        free = target - sum(grants)
        while free > 0:
            best_index = None
            best_gain = 0.0
            base_entries = self._entries_for(residents, grants, now)
            if base_entries is None:  # pragma: no cover - defensive
                break
            base_value = self.objective.evaluate(base_entries)
            for index, (_, cap) in enumerate(bounds):
                if grants[index] >= cap:
                    continue
                trial = list(grants)
                trial[index] += 1
                entries = self._entries_for(residents, trial, now)
                if entries is None:
                    continue
                gain = self.objective.evaluate(entries) - base_value
                if best_index is None or gain > best_gain:
                    best_index = index
                    best_gain = gain
            if best_index is None:  # pragma: no cover - defensive
                break
            grants[best_index] += 1
            free -= 1
        entries = self._entries_for(residents, grants, now)
        if entries is None:  # pragma: no cover - defensive
            raise PlacementError("greedy allocation found no placements")
        return ClusterAllocation(
            total_nodes=self.total_nodes,
            entries=entries,
            value=self.objective.evaluate(entries),
            exhaustive=False,
        )
