"""Co-scheduling sweep: cluster objectives vs the FIFO-exclusive baseline.

The paper provisions one ensemble at a time; :mod:`repro.coschedule`
packs a *stream* of ensembles onto one cluster. This experiment
quantifies what that buys: the canonical mixed-deadline stream is run
once per cluster objective (pure weighted utility, fairness-tempered,
deadline-aware) and per cluster size, against the FIFO-exclusive
baseline that grants each ensemble the whole machine in arrival
order.

Columns: ``nodes, objective, utilization, fifo_utilization, gain,
makespan, fifo_makespan, deadlines_met, repartitions`` — ``gain`` is
the utilization ratio (co-scheduled over FIFO), the quantity the
benchmark floor holds at >= 1.20, and ``deadlines_met`` counts
completions that beat their deadline (requests without one count as
met). ``repartitions`` counts the run's ``allocation`` timeline
events, including each one that records an emptied cluster. The
``repartitions`` engine counter counts allocator calls, and an
emptied cluster calls none, so the column can read more than the
counter: 7 against 6 on the canonical 6-node run.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.coschedule import (
    ClusterObjective,
    CoScheduler,
    canonical_mixed_deadline_stream,
    fifo_exclusive_schedule,
)
from repro.experiments.base import ExperimentResult
from repro.util.errors import ValidationError
from repro.util.validation import require_positive_int

#: objective profiles swept: (label, utility, fairness, deadline).
DEFAULT_OBJECTIVES: Tuple[Tuple[str, float, float, float], ...] = (
    ("utility", 1.0, 0.0, 0.0),
    ("fair", 1.0, 1.0, 0.0),
    ("deadline", 1.0, 0.0, 1.0),
)
#: cluster sizes swept (the canonical bench scenario runs at 6).
DEFAULT_NODES: Tuple[int, ...] = (4, 6)


def run_coschedule(
    node_counts: Sequence[int] = DEFAULT_NODES,
    objectives: Sequence[Tuple[str, float, float, float]] = (
        DEFAULT_OBJECTIVES
    ),
    num_requests: int = 4,
    arrival_spacing: float = 30.0,
    cores_per_node: int = 32,
) -> ExperimentResult:
    """Sweep cluster objectives x cluster sizes on the canonical stream."""
    require_positive_int("num_requests", num_requests)
    if not node_counts:
        raise ValidationError("at least one cluster size required")
    if not objectives:
        raise ValidationError("at least one objective profile required")

    stream = canonical_mixed_deadline_stream(
        num_requests=num_requests, arrival_spacing=arrival_spacing
    )
    rows: List[Dict] = []
    for nodes in node_counts:
        fifo = fifo_exclusive_schedule(
            stream, nodes, cores_per_node=cores_per_node
        )
        for label, utility, fairness, deadline in objectives:
            result = CoScheduler(
                total_nodes=nodes,
                cores_per_node=cores_per_node,
                objective=ClusterObjective(
                    utility_weight=utility,
                    fairness_weight=fairness,
                    deadline_weight=deadline,
                ),
            ).run(stream)
            met = sum(
                1 for c in result.completions if c.met_deadline is not False
            )
            repartitions = sum(
                1 for event in result.timeline if event.kind == "allocation"
            )
            rows.append(
                {
                    "nodes": nodes,
                    "objective": label,
                    "utilization": result.utilization,
                    "fifo_utilization": fifo.utilization,
                    "gain": (
                        result.utilization / fifo.utilization
                        if fifo.utilization > 0
                        else float("inf")
                    ),
                    "makespan": result.makespan,
                    "fifo_makespan": fifo.makespan,
                    "deadlines_met": met,
                    "repartitions": repartitions,
                }
            )
    return ExperimentResult(
        experiment_id="coschedule",
        title="Co-scheduled stream vs FIFO-exclusive provisioning",
        columns=[
            "nodes",
            "objective",
            "utilization",
            "fifo_utilization",
            "gain",
            "makespan",
            "fifo_makespan",
            "deadlines_met",
            "repartitions",
        ],
        rows=rows,
        notes=(
            f"{num_requests}-request canonical mixed-deadline stream, "
            f"arrivals every {arrival_spacing:g}s; gain is co-scheduled "
            "over FIFO utilization (bench floor 1.20 at 6 nodes)"
        ),
    )
