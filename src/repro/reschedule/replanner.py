"""Mid-run re-planning under calibrated stage costs.

When the drift detector fires, the :class:`Replanner` decides whether
the ensemble should move — and where to. Three ingredients:

**Calibrated remaining makespan.** The platform model's effective
stage times (:func:`~repro.runtime.effective.compute_effective_stages`)
are re-priced under the telemetry's per-node slowdown factors: compute
stages (S, A) on a node observed running ``f``x slow cost ``f``x their
modeled time. Each member's remaining time from its current step
boundary is then the Eq. 1 recurrence — ``remaining_steps * sigma +
drain`` with ``sigma = max(S+W, max_j(R_j+A_j))`` — and the ensemble
remaining makespan is the slowest member's.

**Candidate generation.** The node-label-free
:class:`~repro.search.cache.StageCache` signatures that make the
delta-evaluation annealer fast cannot carry node-attributed slowdowns,
so calibration is layered *around* the annealer rather than pushed
through it: the :class:`~repro.scheduler.annealing
.SimulatedAnnealingPolicy` is warm-started from the *current*
placement to propose structurally good layouts at nominal costs, and a
greedy hill-climb over single-component, capacity-respecting moves
then optimizes the calibrated remaining makespan directly (which is
what steers components *off* the drifted nodes).

**The migration-cost gate.** A candidate is accepted only if its
calibrated remaining makespan *plus* the full state-transfer price
(:class:`~repro.reschedule.migration.MigrationCostModel`: DTL put/get
of every moved component's state, charged in DES time) undercuts the
static plan's remaining makespan by more than ``min_gain``. Staying
put is always admissible — a rescheduler that cannot beat its own
migration bill leaves the placement alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dtl.base import DataTransportLayer
from repro.platform.cluster import Cluster
from repro.reschedule.migration import MigrationCostModel, MigrationPlan
from repro.runtime.effective import compute_effective_stages
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.annealing import SimulatedAnnealingPolicy
from repro.util.validation import require_non_negative


def calibrated_remaining_makespan(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    cluster: Cluster,
    dtl: DataTransportLayer,
    slowdown: Dict[int, float],
    remaining_steps: Dict[str, int],
) -> float:
    """Predicted ensemble time-to-finish under per-node slowdowns.

    Compute stages are inflated by their node's calibrated factor
    (default 1.0); io stages keep their DTL-modeled price. Members
    with no steps left contribute zero.
    """
    effective = compute_effective_stages(spec, placement, cluster, dtl)
    worst = 0.0
    for member in effective:
        steps = remaining_steps.get(member.name, member.n_steps)
        if steps <= 0:
            continue
        sim = member.simulation
        s_cal = sim.compute_time * slowdown.get(sim.node, 1.0)
        sim_active = s_cal + sim.io_time
        ana_active = max(
            ana.io_time + ana.compute_time * slowdown.get(ana.node, 1.0)
            for ana in member.analyses
        )
        sigma = max(sim_active, ana_active)
        drain = sim_active + ana_active - sigma
        worst = max(worst, steps * sigma + drain)
    return worst


@dataclass(frozen=True)
class ReplanDecision:
    """The re-planner's verdict on one drift alert.

    ``placement`` is the chosen target (== the current placement when
    ``accepted`` is False); ``predicted_gain`` is the calibrated
    remaining-makespan saving *net of* the migration cost.
    """

    accepted: bool
    reason: str
    placement: EnsemblePlacement
    plan: MigrationPlan
    static_remaining: float
    candidate_remaining: float
    migration_cost: float

    @property
    def predicted_gain(self) -> float:
        return self.static_remaining - (
            self.candidate_remaining + self.migration_cost
        )


class Replanner:
    """Propose and gate mid-run placement changes.

    Parameters
    ----------
    spec / cluster / dtl / cores_per_node:
        The running ensemble's geometry (the same objects the executor
        holds, so calibrated predictions and migration prices use the
        run's own platform model).
    use_annealer:
        Warm-start a :class:`SimulatedAnnealingPolicy` from the
        current placement to propose a structural candidate (default).
        The calibrated hill-climb always runs regardless.
    annealer_seed / annealer_plateau:
        Determinism and effort of the warm-started anneal.
    min_gain:
        Minimum *net* DES-seconds saving a candidate must promise
        (after paying its migration bill) to be accepted.
    max_passes:
        Hill-climb sweep limit (each sweep tries every component's
        best single move; it stops early at a local optimum).
    """

    def __init__(
        self,
        spec: EnsembleSpec,
        cluster: Cluster,
        dtl: DataTransportLayer,
        cores_per_node: int,
        use_annealer: bool = True,
        annealer_seed: int = 0,
        annealer_plateau: int = 30,
        min_gain: float = 0.0,
        max_passes: int = 4,
    ) -> None:
        require_non_negative("min_gain", min_gain)
        self.spec = spec
        self.cluster = cluster
        self.dtl = dtl
        self.cores_per_node = cores_per_node
        self.use_annealer = use_annealer
        self.annealer_seed = annealer_seed
        self.annealer_plateau = annealer_plateau
        self.min_gain = min_gain
        self.max_passes = max_passes
        self.cost_model = MigrationCostModel(dtl)
        self._component_cores: List[int] = []
        for member in spec.members:
            self._component_cores.append(member.simulation.cores)
            self._component_cores.extend(a.cores for a in member.analyses)

    # -- calibrated evaluation ---------------------------------------------
    def _remaining(
        self,
        placement: EnsemblePlacement,
        slowdown: Dict[int, float],
        remaining_steps: Dict[str, int],
        memo: Dict[EnsemblePlacement, float],
    ) -> float:
        """Calibrated remaining makespan, memoized for one :meth:`replan`.

        Slowdown and remaining steps are fixed within a replan, and the
        hill-climbs and the gate revisit the same placements; each miss
        is a full platform assessment.
        """
        value = memo.get(placement)
        if value is None:
            value = calibrated_remaining_makespan(
                self.spec, placement, self.cluster, self.dtl, slowdown,
                remaining_steps,
            )
            memo[placement] = value
        return value

    # -- candidate generation ----------------------------------------------
    def _hill_climb(
        self,
        start: EnsemblePlacement,
        slowdown: Dict[int, float],
        remaining_steps: Dict[str, int],
        memo: Dict[EnsemblePlacement, float],
    ) -> EnsemblePlacement:
        """Greedy best-single-move descent on calibrated remaining time."""
        flatten = SimulatedAnnealingPolicy._flatten
        unflatten = SimulatedAnnealingPolicy._unflatten
        num_nodes = start.num_nodes
        flat = flatten(self.spec, start)
        demand = SimulatedAnnealingPolicy._demand(self.spec, flat)
        best_value = self._remaining(start, slowdown, remaining_steps, memo)
        for _ in range(self.max_passes):
            best_move: Optional[Tuple[int, int]] = None
            for idx in range(len(flat)):
                old_node = flat[idx]
                cores = self._component_cores[idx]
                for node in range(num_nodes):
                    if node == old_node:
                        continue
                    if demand.get(node, 0) + cores > self.cores_per_node:
                        continue
                    flat[idx] = node
                    value = self._remaining(
                        unflatten(self.spec, flat, num_nodes),
                        slowdown,
                        remaining_steps,
                        memo,
                    )
                    flat[idx] = old_node
                    if value < best_value:
                        best_value = value
                        best_move = (idx, node)
            if best_move is None:
                break
            idx, node = best_move
            cores = self._component_cores[idx]
            demand[flat[idx]] -= cores
            demand[node] = demand.get(node, 0) + cores
            flat[idx] = node
        return unflatten(self.spec, flat, num_nodes)

    def _candidates(
        self,
        current: EnsemblePlacement,
        slowdown: Dict[int, float],
        remaining_steps: Dict[str, int],
        memo: Dict[EnsemblePlacement, float],
    ) -> List[EnsemblePlacement]:
        candidates = [
            self._hill_climb(current, slowdown, remaining_steps, memo)
        ]
        if self.use_annealer:
            annealer = SimulatedAnnealingPolicy(
                seed=self.annealer_seed,
                plateau=self.annealer_plateau,
            )
            annealed = annealer.place(
                self.spec,
                current.num_nodes,
                self.cores_per_node,
                initial_placement=current,
            )
            candidates.append(
                self._hill_climb(annealed, slowdown, remaining_steps, memo)
            )
        # dedup while preserving order (hill-climbed twins are common)
        seen = set()
        unique: List[EnsemblePlacement] = []
        for candidate in candidates:
            key = tuple(
                (mp.simulation_node, mp.analysis_nodes)
                for mp in candidate.members
            )
            if key not in seen:
                seen.add(key)
                unique.append(candidate)
        return unique

    # -- the gate ------------------------------------------------------------
    def replan(
        self,
        current: EnsemblePlacement,
        slowdown: Dict[int, float],
        remaining_steps: Dict[str, int],
    ) -> ReplanDecision:
        """Evaluate candidates; accept only past the migration-cost gate."""
        memo: Dict[EnsemblePlacement, float] = {}
        static_remaining = self._remaining(
            current, slowdown, remaining_steps, memo
        )
        best_placement = current
        best_plan = MigrationPlan(moves=())
        best_total = static_remaining
        best_remaining = static_remaining
        for candidate in self._candidates(
            current, slowdown, remaining_steps, memo
        ):
            plan = self.cost_model.plan_moves(self.spec, current, candidate)
            if not plan.moves:
                continue
            remaining = self._remaining(
                candidate, slowdown, remaining_steps, memo
            )
            total = remaining + plan.total_cost
            if total < best_total:
                best_total = total
                best_placement = candidate
                best_plan = plan
                best_remaining = remaining
        if not best_plan.moves:
            return ReplanDecision(
                accepted=False,
                reason="no candidate beats the current placement",
                placement=current,
                plan=best_plan,
                static_remaining=static_remaining,
                candidate_remaining=static_remaining,
                migration_cost=0.0,
            )
        gain = static_remaining - best_total
        if gain <= self.min_gain:
            return ReplanDecision(
                accepted=False,
                reason=(
                    f"predicted gain {gain:.4g}s does not clear the "
                    f"migration-cost gate (min_gain={self.min_gain:g})"
                ),
                placement=current,
                plan=MigrationPlan(moves=()),
                static_remaining=static_remaining,
                candidate_remaining=best_remaining,
                migration_cost=best_plan.total_cost,
            )
        return ReplanDecision(
            accepted=True,
            reason=(
                f"{len(best_plan.moves)} move(s) save a predicted "
                f"{gain:.4g}s net of migration cost"
            ),
            placement=best_placement,
            plan=best_plan,
            static_remaining=static_remaining,
            candidate_remaining=best_remaining,
            migration_cost=best_plan.total_cost,
        )
