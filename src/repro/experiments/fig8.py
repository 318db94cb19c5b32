"""Figure 8: F(P) along both indicator stage orders, configuration set 1.

For each two-member Table 2 configuration (C1.1-C1.5) and each stage
of the two orders explored in §5.2 —

- path 1: ``P^U -> P^{U,P} -> P^{U,P,A}``
- path 2: ``P^U -> P^{U,A} -> P^{U,A,P}``

— compute every member's indicator, aggregate with the objective
``F = mean - std`` (Eq. 9), and average over trials.

Paper claims (checked by ``benchmarks/test_bench_fig8.py``):

1. ``P^{U,P}`` cannot separate C1.4 from C1.5 (same node count, similar
   efficiency) while ``P^{U,A}`` can (placement indicator 1/2 vs 1);
2. the full indicator ranks C1.5 first, C1.4 second, above C1.1, C1.2,
   and C1.3;
3. both paths end at the same final value
   (``P^{U,A,P} = P^{U,P,A}``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.configs.table2 import TABLE2_TWO_MEMBER, table2
from repro.core.pipeline import STAGE_PATHS, ensemble_objective_paths
from repro.experiments.base import (
    DEFAULT_N_STEPS,
    DEFAULT_NOISE,
    DEFAULT_TRIALS,
    ExperimentResult,
    _shared_trials,
    trial_mean,
)

COLUMNS = ["configuration"] + list(STAGE_PATHS)


def run_fig8(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
    base_seed: int = 0,
    config_names: Sequence[str] = TABLE2_TWO_MEMBER,
) -> ExperimentResult:
    """Regenerate Figure 8's data: F(P) per stage per configuration."""
    rows: List[Dict] = []
    for config in table2():
        if config.name not in config_names:
            continue
        results = _shared_trials(
            config, trials, n_steps, base_seed, timing_noise
        )
        per_trial = [
            ensemble_objective_paths(
                [m.measurement for m in r.members], r.total_nodes
            )
            for r in results
        ]
        row: Dict = {"configuration": config.name}
        for label in STAGE_PATHS:
            row[label] = trial_mean([t[label] for t in per_trial])
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig8",
        title="F(P) on different P orders, one analysis per simulation "
        "(higher is better)",
        columns=COLUMNS,
        rows=rows,
        notes=f"{trials} trials, {n_steps} in situ steps, "
        f"noise {timing_noise:.0%}",
    )


def ranking(result: ExperimentResult, stage_label: str) -> List[str]:
    """Configuration names ordered best-first at one indicator stage."""
    pairs = [(row["configuration"], row[stage_label]) for row in result.rows]
    return [name for name, _ in sorted(pairs, key=lambda p: -p[1])]
