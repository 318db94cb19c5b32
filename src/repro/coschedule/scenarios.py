"""Canonical co-scheduling scenarios and the FIFO-exclusive baseline.

:func:`canonical_mixed_deadline_stream` is the benchmark scenario of
``scripts/bench_coschedule.py`` and the CLI's default: a staggered
stream of small ensembles with mixed deadlines and priorities on one
shared cluster. :func:`fifo_exclusive_schedule` is the strawman a
cluster-level allocator must beat — each ensemble, in arrival order,
takes the *whole* cluster exclusively and runs its single-ensemble
best placement to completion before the next starts (the paper's
one-allocation-per-ensemble operating model applied to a stream).

Both report utilization as used-node-seconds over
``total_nodes * horizon``, so the improvement ratio in
``BENCH_coschedule.json`` compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import PlacementScore
from repro.search.engine import find_best_placement

from repro.coschedule.requests import EnsembleRequest

#: Defaults of the canonical mixed-deadline scenario (the bench's
#: floor is measured on exactly these values).
CANONICAL_TOTAL_NODES = 6
CANONICAL_CORES_PER_NODE = 32
CANONICAL_NUM_REQUESTS = 4
CANONICAL_ARRIVAL_SPACING = 30.0


def _small_ensemble(
    name: str, members: int, n_steps: int, natoms: int
) -> EnsembleSpec:
    return EnsembleSpec(
        name,
        tuple(
            default_member(
                f"{name}-m{i + 1}",
                num_analyses=1,
                n_steps=n_steps,
                sim_cores=16,
                ana_cores=8,
                natoms=natoms,
            )
            for i in range(members)
        ),
    )


def canonical_mixed_deadline_stream(
    num_requests: int = CANONICAL_NUM_REQUESTS,
    arrival_spacing: float = CANONICAL_ARRIVAL_SPACING,
) -> Tuple[EnsembleRequest, ...]:
    """The canonical mixed-deadline request stream.

    Ensembles alternate between deadline-bound high-priority requests
    and lax background ones; sizes vary so grants are contested. The
    stream is a pure function of its arguments — the determinism gate
    hashes two runs of it.
    """
    requests: List[EnsembleRequest] = []
    for index in range(num_requests):
        tight = index % 2 == 0
        spec = _small_ensemble(
            f"ens{index + 1}",
            members=2 if index % 3 != 2 else 1,
            n_steps=24 + 4 * index,
            natoms=200_000 + 25_000 * index,
        )
        requests.append(
            EnsembleRequest(
                name=f"ens{index + 1}",
                spec=spec,
                arrival_time=index * arrival_spacing,
                deadline=100_000.0 if tight else None,
                priority=2 if tight else 0,
            )
        )
    return tuple(requests)


@dataclass(frozen=True)
class FifoEntry:
    """One ensemble's exclusive residency in the FIFO baseline."""

    name: str
    arrival_time: float
    started_at: float
    finished_at: float
    deadline_at: Optional[float]
    met_deadline: Optional[bool]
    used_nodes: int
    score: PlacementScore

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "arrival_time": self.arrival_time,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deadline_at": self.deadline_at,
            "met_deadline": self.met_deadline,
            "used_nodes": self.used_nodes,
            "objective": self.score.objective,
            "makespan": self.score.ensemble_makespan,
        }


@dataclass(frozen=True)
class FifoSchedule:
    """The FIFO-exclusive schedule of one stream."""

    total_nodes: int
    cores_per_node: int
    entries: Tuple[FifoEntry, ...]
    makespan: float
    utilization: float

    def to_dict(self) -> dict:
        return {
            "total_nodes": self.total_nodes,
            "cores_per_node": self.cores_per_node,
            "entries": [e.to_dict() for e in self.entries],
            "makespan": self.makespan,
            "utilization": self.utilization,
        }


def fifo_exclusive_schedule(
    requests: Sequence[EnsembleRequest],
    total_nodes: int,
    cores_per_node: int = 32,
    context: Optional[PlanningContext] = None,
) -> FifoSchedule:
    """Run the stream one-ensemble-at-a-time on the whole cluster.

    Each request, in arrival order, waits for the cluster to go idle,
    then runs its best full-cluster placement (the same
    :func:`~repro.search.engine.find_best_placement` the co-scheduler
    uses) to completion. Elastic membership is ignored — the baseline
    models the paper's static one-ensemble-per-allocation world.
    """
    clock = 0.0
    busy_node_seconds = 0.0
    entries: List[FifoEntry] = []
    ordered = sorted(
        requests, key=lambda r: (r.arrival_time, r.name)
    )
    for request in ordered:
        best, _ = find_best_placement(
            request.spec,
            total_nodes,
            cores_per_node,
            context=context,
        )
        started = max(clock, request.arrival_time)
        finished = started + best.ensemble_makespan
        used = len(
            {
                node
                for mp in best.placement.members
                for node in mp.used_nodes
            }
        )
        busy_node_seconds += used * best.ensemble_makespan
        deadline_at = request.deadline_at
        entries.append(
            FifoEntry(
                name=request.name,
                arrival_time=request.arrival_time,
                started_at=started,
                finished_at=finished,
                deadline_at=deadline_at,
                met_deadline=(
                    None if deadline_at is None else finished <= deadline_at
                ),
                used_nodes=used,
                score=best,
            )
        )
        clock = finished
    horizon = clock
    utilization = (
        busy_node_seconds / (total_nodes * horizon)
        if horizon > 0.0
        else 0.0
    )
    return FifoSchedule(
        total_nodes=total_nodes,
        cores_per_node=cores_per_node,
        entries=tuple(entries),
        makespan=horizon,
        utilization=utilization,
    )
