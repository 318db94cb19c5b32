"""Simulated-annealing placement search for large ensembles.

Exhaustive search grows as ``nodes^components``; the greedy policy is
fast but member-at-a-time. For large ensembles (many members, K > 1)
this module provides a classic annealer over the placement space:

- **state**: a feasible component-to-node assignment, in the flat
  format of :mod:`repro.search.canonical`;
- **move**: relocate one uniformly chosen component to a random node
  with capacity (swap-free moves keep feasibility trivially);
- **energy**: ``-F(P^{U,A,P})`` via the analytic predictor — or, when
  the :class:`~repro.scheduler.context.PlanningContext` handed to
  ``place`` carries a :class:`~repro.faults.analytic.RobustnessTerm`,
  the penalized ``-(F - weight * (E[inflation] - 1))`` so the annealer
  trades ideal objective against fault-domain fragility (node-level
  failure models make the penalty placement-dependent: co-location
  fuses domains);
- **schedule**: geometric cooling with per-temperature plateaus.

Every move is scored by delta evaluation through the context's
:class:`~repro.search.cache.StageCache`: only members touching the two
nodes a move changes are re-signed, and a transposition table scores
each visited state once. The seed annealer, which re-scores every
candidate in full through :func:`~repro.scheduler.objectives
.score_placement`, lives on as :func:`repro.search.reference
.anneal_reference`; the parity tests and ``scripts/bench_search.py``
hold this loop to its trajectory move for move. Nothing at runtime
calls the reference.

Deterministic given the seed. The tests verify it matches the
exhaustive optimum on paper-sized problems and beats greedy-breaking
adversarial starts on larger ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.objective import objective_function
from repro.faults.analytic import RobustnessTerm
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext, resolve_context
from repro.scheduler.policies import RandomPolicy, SchedulingPolicy
from repro.search.cache import FlatEvaluation
from repro.search.canonical import (
    assignment_to_placement,
    component_core_demands,
    node_core_demands,
    placement_to_assignment,
)
from repro.util.errors import ValidationError
from repro.util.rng import RandomSource
from repro.util.validation import (
    require_in_range,
    require_positive,
    require_positive_int,
)


@dataclass
class AnnealingStats:
    """Diagnostics of one annealing run."""

    evaluations: int = 0
    accepted: int = 0
    improved: int = 0


class SimulatedAnnealingPolicy(SchedulingPolicy):
    """Anneal over feasible placements, maximizing F(P^{U,A,P}).

    Parameters
    ----------
    seed:
        RNG seed (controls the start state and the move sequence).
    initial_temperature:
        Temperature relative to the |F| scale of the start state.
    cooling:
        Geometric cooling factor per plateau (0 < cooling < 1).
    plateau:
        Moves attempted per temperature.
    min_temperature_ratio:
        Stop when T falls below this fraction of the initial T.

    The platform and the robustness term come from ``place``'s
    ``context``: every move is priced on its cache (a fresh Cori-like
    one per call when it has none), and with a robustness term the
    annealer maximizes the penalized utility instead of the raw
    objective.
    """

    name = "simulated-annealing"

    def __init__(
        self,
        seed: int = 0,
        initial_temperature: float = 1.0,
        cooling: float = 0.9,
        plateau: int = 100,
        min_temperature_ratio: float = 1e-3,
    ) -> None:
        self.rng = RandomSource(seed, name="annealer")
        self.initial_temperature = require_positive(
            "initial_temperature", initial_temperature
        )
        self.cooling = require_in_range(
            "cooling", cooling, 0.0, 1.0, inclusive_low=False,
            inclusive_high=False,
        )
        self.plateau = require_positive_int("plateau", plateau)
        self.min_temperature_ratio = require_positive(
            "min_temperature_ratio", min_temperature_ratio
        )
        self.stats = AnnealingStats()

    def initial_assignment(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
        initial_placement: Optional[EnsemblePlacement] = None,
    ) -> List[int]:
        """Begin one anneal and return its start state.

        Validates the budget, resets ``stats``, and
        returns the flat assignment of ``initial_placement`` (validated
        against the budget) or, when it is omitted, of a random
        feasible placement drawn from this policy's RNG stream.
        :meth:`place` and the seed annealer
        (:func:`~repro.search.reference.anneal_reference`) both start
        here, so their RNG streams stay aligned.
        """
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        self.stats = AnnealingStats()
        if initial_placement is not None:
            if initial_placement.num_nodes != num_nodes:
                raise ValidationError(
                    f"initial_placement spans "
                    f"{initial_placement.num_nodes} nodes, expected "
                    f"{num_nodes}"
                )
            initial_placement.validate_against(spec, cores_per_node)
            start = initial_placement
        else:
            # start from a random feasible state (reusing the random
            # policy's retry logic, seeded from our stream)
            start = RandomPolicy(
                seed=int(self.rng.generator.integers(0, 2**31))
            ).place(spec, num_nodes, cores_per_node)
        return placement_to_assignment(start)

    @staticmethod
    def _utility_of(
        spec: EnsembleSpec,
        evaluation: FlatEvaluation,
        flat: List[int],
        num_nodes: int,
        robustness: Optional[RobustnessTerm],
        objective_memo: Dict[Tuple[float, ...], float],
    ) -> float:
        """The move-acceptance utility from a cached flat evaluation.

        Mirrors ``score_placement(...).utility`` exactly: same
        objective aggregation, and — with a robustness term — the same
        surrogate penalty over the same (cached, bit-identical) stage
        predictions. F is memoized on the indicator tuple (many states
        share one); the penalty depends on the placement, so it is not.
        """
        indicator_key = tuple(evaluation.indicators)
        objective = objective_memo.get(indicator_key)
        if objective is None:
            objective = objective_function(evaluation.indicators)
            objective_memo[indicator_key] = objective
        if robustness is None:
            return objective
        penalty = robustness.penalty(
            spec,
            assignment_to_placement(spec, flat, num_nodes),
            stages=evaluation.stages_by_name(spec),
        )
        return objective - penalty

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
        initial_placement: Optional[EnsemblePlacement] = None,
        *,
        context: Optional[PlanningContext] = None,
    ) -> EnsemblePlacement:
        """Anneal from a random feasible state, or warm-start.

        ``initial_placement`` seeds the anneal from a known-good state
        instead of a random one — the mid-run re-planner warm-starts
        from the ensemble's *current* placement so the search explores
        the neighbourhood of what is already running. Omitting it
        preserves the seeded random start bit for bit (the warm start
        skips the start-state RNG draw entirely, so the move sequence
        itself is still the seed's).

        A move relocates one component from ``old_node`` to
        ``new_node``; only members with a component on either node need
        new signatures (and, on a cache miss, new predictions) — the
        rest of the evaluation carries over unchanged. Utilities,
        acceptance decisions, and RNG draws are bit-identical to the
        seed annealer's full re-scoring, which the parity tests assert
        move for move.

        An anneal revisits the same few states over and over (a
        re-planner's ~2 000 moves land on 500-650 distinct placements), so
        a transposition table keyed by the flat assignment scores each
        state once; a revisit reuses its evaluation and utility.
        ``stats.evaluations`` still counts every move.
        """
        flat = self.initial_assignment(
            spec, num_nodes, cores_per_node, initial_placement
        )
        gen = self.rng.generator
        component_cores = component_core_demands(spec)
        context = resolve_context(context)
        cache, robustness = context.cache, context.robustness
        visited: Dict[Tuple[int, ...], Tuple[FlatEvaluation, float]] = {}
        objective_memo: Dict[Tuple[float, ...], float] = {}

        evaluation = cache.evaluate_flat(spec, flat, num_nodes)
        current_utility = self._utility_of(
            spec, evaluation, flat, num_nodes, robustness, objective_memo
        )
        visited[tuple(flat)] = (evaluation, current_utility)
        self.stats.evaluations += 1
        best_flat = list(flat)
        best_utility = current_utility

        temperature = self.initial_temperature * max(
            abs(current_utility), 1e-9
        )
        floor = temperature * self.min_temperature_ratio

        demand = node_core_demands(component_cores, flat)
        while temperature > floor:
            for _ in range(self.plateau):
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
                # the very draw int(gen.choice(options)) makes, without
                # its array conversion (test_annealing pins the identity)
                new_node = options[int(gen.integers(0, len(options)))]
                flat[idx] = new_node
                demand[old_node] -= cores
                demand[new_node] = demand.get(new_node, 0) + cores

                key = tuple(flat)
                seen = visited.get(key)
                if seen is None:
                    candidate_eval = cache.evaluate_flat(
                        spec,
                        flat,
                        num_nodes,
                        changed_nodes=frozenset((old_node, new_node)),
                        previous=evaluation,
                    )
                    candidate_utility = self._utility_of(
                        spec, candidate_eval, flat, num_nodes, robustness,
                        objective_memo,
                    )
                    visited[key] = (candidate_eval, candidate_utility)
                else:
                    candidate_eval, candidate_utility = seen
                self.stats.evaluations += 1
                delta = candidate_utility - current_utility
                if delta >= 0 or gen.random() < math.exp(delta / temperature):
                    evaluation = candidate_eval
                    current_utility = candidate_utility
                    self.stats.accepted += 1
                    if candidate_utility > best_utility:
                        best_utility = candidate_utility
                        best_flat = list(flat)
                        self.stats.improved += 1
                else:
                    # revert the move
                    flat[idx] = old_node
                    demand[new_node] -= cores
                    demand[old_node] += cores
            temperature *= self.cooling

        return assignment_to_placement(spec, best_flat, num_nodes)
