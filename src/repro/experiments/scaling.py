"""Ensemble-size scaling: the indicators at growing N.

The paper's introduction motivates ensembles of *many* concurrent
simulations, but its evaluation stops at N = 2 members. This experiment
sweeps the member count for the two canonical placements — fully
co-located (the C1.5/C2.8 pattern generalized: one member per node) and
fully spread (every component on a dedicated node) — and reports
F(P^{U,A,P}), the predicted ensemble makespan, and the node count.

Expected behaviour (asserted in ``tests/experiments/test_scaling.py``
and ``benchmarks/test_bench_scaling.py``):

1. member independence: the co-located makespan is N-invariant (members
   on distinct nodes never interact — the paper's concluding insight
   that members can be scheduled individually);
2. the co-located placement beats the spread one at every N, on both F
   and makespan;
3. F scales as ~1/M: doubling the ensemble (and its allocation) halves
   the per-ensemble indicator, so comparisons are meaningful *within* a
   fixed workload, which is how the paper uses them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.base import ExperimentResult
from repro.runtime.placement import (
    EnsemblePlacement,
    pack_members_per_node,
    spread_components,
)
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.objectives import score_placement

COLUMNS = [
    "members",
    "placement",
    "nodes",
    "objective_F",
    "ensemble_makespan",
]

DEFAULT_MEMBER_COUNTS = (1, 2, 4, 8, 16)


def _evaluate(
    spec: EnsembleSpec, placement: EnsemblePlacement
) -> Dict[str, float]:
    score = score_placement(spec, placement)
    return {
        "objective_F": score.objective,
        "ensemble_makespan": score.ensemble_makespan,
    }


def run_scaling(
    member_counts: Sequence[int] = DEFAULT_MEMBER_COUNTS,
    n_steps: int = 37,
) -> ExperimentResult:
    """Sweep the ensemble size for both canonical placements."""
    rows: List[Dict] = []
    for n in member_counts:
        spec = EnsembleSpec(
            f"scale-{n}",
            tuple(
                default_member(f"em{i + 1}", n_steps=n_steps)
                for i in range(n)
            ),
        )
        for label, placement in (
            ("co-located", pack_members_per_node(spec)),
            ("spread", spread_components(spec)),
        ):
            outcome = _evaluate(spec, placement)
            rows.append(
                {
                    "members": n,
                    "placement": label,
                    "nodes": placement.num_nodes,
                    **outcome,
                }
            )
    return ExperimentResult(
        experiment_id="scaling",
        title="Indicator and makespan vs ensemble size "
        "(co-located vs spread)",
        columns=COLUMNS,
        rows=rows,
        notes="analytic predictor; co-located = one member per node, "
        "spread = one component per node",
    )
