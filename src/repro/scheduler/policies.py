"""Placement policies: indicator-guided scheduling and baselines.

All policies implement :class:`SchedulingPolicy`: given an ensemble
spec, a node budget, and per-node core capacity, produce an
:class:`~repro.runtime.placement.EnsemblePlacement` (or raise
:class:`~repro.util.errors.PlacementError` if the budget cannot hold
the ensemble).

- :class:`ExhaustiveSearchPolicy` — scores every feasible placement;
  the optimum, tractable at the paper's problem sizes.
- :class:`GreedyIndicatorPolicy` — operationalizes the paper's
  conclusion ("schedule each ensemble member ... individually,
  worrying only about the co-location among ensemble components of
  each member"): members are placed one at a time, each choosing the
  member-local placement that maximizes the partial ensemble's
  F(P^{U,A,P}). Candidate count is per-member, not exponential.
- :class:`RoundRobinPolicy` — the classic spread-for-load-balance
  baseline (what a locality-unaware scheduler does).
- :class:`RandomPolicy` — seeded random feasible assignment.
"""

from __future__ import annotations

import abc
import bisect
from typing import List, Optional, Sequence, Tuple

from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, MemberSpec
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import PlacementScore, score_placement
from repro.search.cache import StageCache
from repro.search.canonical import iter_canonical_assignments
from repro.util.errors import PlacementError
from repro.util.rng import RandomSource
from repro.util.validation import require_positive_int


class SchedulingPolicy(abc.ABC):
    """Maps an ensemble onto a node budget."""

    #: human-readable policy name (for reports and benches)
    name: str = "abstract"

    @abc.abstractmethod
    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        """Produce a feasible placement or raise PlacementError."""

    # -- shared helpers ----------------------------------------------------
    @staticmethod
    def _component_cores(member: MemberSpec) -> List[int]:
        return [member.simulation.cores] + [a.cores for a in member.analyses]

    @staticmethod
    def _check_total_capacity(
        spec: EnsembleSpec, num_nodes: int, cores_per_node: int
    ) -> None:
        total = sum(m.total_cores for m in spec.members)
        if total > num_nodes * cores_per_node:
            raise PlacementError(
                f"ensemble needs {total} cores; budget is "
                f"{num_nodes} x {cores_per_node}"
            )


class ExhaustiveSearchPolicy(SchedulingPolicy):
    """Score every feasible placement; return the best.

    Runs through :func:`repro.search.engine.find_best_placement`: the
    canonical (symmetry-free) enumerator streams flat assignments into
    the column kernel with branch-and-bound, through a memoized stage
    cache, so the search returns the same optimum as scoring every
    enumerated placement individually in enumeration order — just
    orders of magnitude faster (asserted in the search benchmarks).

    Parameters
    ----------
    cache:
        Optional :class:`~repro.search.cache.StageCache` shared across
        ``place`` calls; it is the platform the search prices on (a
        Cori-like one is built per call when omitted).
    """

    name = "exhaustive"

    def __init__(self, cache: Optional[StageCache] = None) -> None:
        self.evaluated = 0
        self.cache = cache

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        from repro.search.engine import find_best_placement

        best, self.evaluated = find_best_placement(
            spec,
            num_nodes,
            cores_per_node,
            context=PlanningContext(cache=self.cache),
        )
        return best.placement


class GreedyIndicatorPolicy(SchedulingPolicy):
    """Member-at-a-time placement maximizing the partial-ensemble F.

    For each member, candidate local placements are every assignment of
    its 1 + K components to nodes with remaining capacity, walked by
    :func:`~repro.search.canonical.iter_canonical_assignments` with the
    nodes earlier members use opened: those stay distinct, while the
    untouched empty nodes are interchangeable and each member opens
    them in order of first use. The candidate count therefore depends
    on the nodes in use, not on the budget. The member adopts the
    candidate whose addition maximizes F(P^{U,A,P}) of the members
    placed so far.
    """

    name = "greedy-indicator"

    def __init__(self) -> None:
        self.evaluated = 0

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        self.evaluated = 0
        # one memo per call: scoring never builds the budget's cluster
        context = PlanningContext(cache=StageCache())

        placed: List[MemberPlacement] = []
        # free cores of the nodes in use, opened in first-use order;
        # every node past them is still empty
        free: List[int] = []

        for i, member in enumerate(spec.members):
            candidates = self._member_candidates(
                member, tuple(free), num_nodes, cores_per_node
            )
            if not candidates:
                raise PlacementError(
                    f"cannot place member {member.name!r}: "
                    f"insufficient free cores"
                )
            # look-ahead: prefer candidates whose residual capacity can
            # still hold every remaining member (best-fit-decreasing
            # check); fall back to all candidates if none pass — a
            # failed check is pessimistic, not a proof of infeasibility.
            remaining = spec.members[i + 1 :]
            safe = [
                c
                for c in candidates
                if self._residual_feasible(
                    member, c, free, num_nodes, cores_per_node, remaining
                )
            ]
            if safe:
                candidates = safe
            partial_spec = EnsembleSpec(
                f"{spec.name}-partial-{i}", tuple(spec.members[: i + 1])
            )
            best: Optional[Tuple[PlacementScore, MemberPlacement]] = None
            for candidate in candidates:
                trial = EnsemblePlacement(
                    num_nodes, tuple(placed + [candidate])
                )
                score = score_placement(partial_spec, trial, context=context)
                self.evaluated += 1
                if best is None or score > best[0]:
                    best = (score, candidate)
            assert best is not None
            chosen = best[1]
            placed.append(chosen)
            self._take(member, chosen, free, cores_per_node)

        return EnsemblePlacement(num_nodes, tuple(placed))

    def _take(
        self,
        member: MemberSpec,
        candidate: MemberPlacement,
        free: List[int],
        cores_per_node: int,
    ) -> None:
        """Charge ``candidate``'s cores to ``free``, opening new nodes."""
        nodes = (candidate.simulation_node,) + candidate.analysis_nodes
        for node, cores in zip(nodes, self._component_cores(member)):
            if node >= len(free):
                free.extend([cores_per_node] * (node + 1 - len(free)))
            free[node] -= cores

    def _residual_feasible(
        self,
        member: MemberSpec,
        candidate: MemberPlacement,
        free: List[int],
        num_nodes: int,
        cores_per_node: int,
        remaining: Sequence[MemberSpec],
    ) -> bool:
        """Can the remaining members still fit after taking ``candidate``?

        Best-fit decreasing over the residual free capacities — a
        standard bin-packing heuristic: sufficient when it succeeds,
        inconclusive when it fails (hence only used as a preference
        filter). The answer depends only on the multiset of
        capacities, so the nodes in use are one sorted list and the
        empty ones a count.
        """
        residual = list(free)
        self._take(member, candidate, residual, cores_per_node)
        if any(v < 0 for v in residual):
            return False
        empty = num_nodes - len(residual)
        residual.sort()
        components = sorted(
            (
                cores
                for m in remaining
                for cores in self._component_cores(m)
            ),
            reverse=True,
        )
        for cores in components:
            # best-fit: the tightest capacity that holds the component
            at = bisect.bisect_left(residual, cores)
            if at < len(residual):
                left = residual.pop(at) - cores
            elif empty and cores <= cores_per_node:
                empty -= 1
                left = cores_per_node - cores
            else:
                return False
            bisect.insort(residual, left)
        return True

    def _member_candidates(
        self,
        member: MemberSpec,
        opened: Sequence[int],
        num_nodes: int,
        cores_per_node: int,
    ) -> List[MemberPlacement]:
        """The member's feasible local placements, in walk order.

        ``opened`` holds the free cores of the nodes in use, ``0..
        len(opened)-1``; the remaining nodes are empty and
        interchangeable.
        """
        return [
            MemberPlacement(assignment[0], assignment[1:])
            for assignment in iter_canonical_assignments(
                self._component_cores(member),
                num_nodes,
                cores_per_node,
                opened=opened,
            )
        ]


class RoundRobinPolicy(SchedulingPolicy):
    """Spread components across nodes round-robin (locality-unaware)."""

    name = "round-robin"

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        free = {n: cores_per_node for n in range(num_nodes)}
        next_node = 0
        placed: List[MemberPlacement] = []

        def take(cores: int) -> int:
            nonlocal next_node
            for _ in range(num_nodes):
                node = next_node % num_nodes
                next_node += 1
                if free[node] >= cores:
                    free[node] -= cores
                    return node
            # second pass: any node with room (round robin was too strict)
            for node in sorted(free):
                if free[node] >= cores:
                    free[node] -= cores
                    return node
            raise PlacementError(
                f"round-robin cannot fit a {cores}-core component"
            )

        for member in spec.members:
            sim_node = take(member.simulation.cores)
            ana_nodes = tuple(take(a.cores) for a in member.analyses)
            placed.append(MemberPlacement(sim_node, ana_nodes))
        return EnsemblePlacement(num_nodes, tuple(placed))


class RandomPolicy(SchedulingPolicy):
    """Uniformly random feasible assignment (seeded)."""

    name = "random"

    def __init__(self, seed: int = 0, max_attempts: int = 10_000) -> None:
        self.rng = RandomSource(seed, name="random-policy")
        self.max_attempts = require_positive_int("max_attempts", max_attempts)

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        gen = self.rng.generator
        for _ in range(self.max_attempts):
            free = {n: cores_per_node for n in range(num_nodes)}
            placed: List[MemberPlacement] = []
            ok = True
            for member in spec.members:
                assignment: List[int] = []
                for cores in self._component_cores(member):
                    options = [n for n, f in free.items() if f >= cores]
                    if not options:
                        ok = False
                        break
                    node = int(gen.choice(options))
                    free[node] -= cores
                    assignment.append(node)
                if not ok:
                    break
                placed.append(
                    MemberPlacement(assignment[0], tuple(assignment[1:]))
                )
            if ok:
                return EnsemblePlacement(num_nodes, tuple(placed))
        raise PlacementError(
            f"random policy found no feasible placement in "
            f"{self.max_attempts} attempts"
        )
