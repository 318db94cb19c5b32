"""Figure 9: F(P) along both indicator stage orders, configuration set 2.

Same protocol as Figure 8 over the Table 4 configurations (two
analyses per simulation, C2.1-C2.8).

Paper claims (checked by ``benchmarks/test_bench_fig9.py``):

1. ``P^{U,P}`` splits the configurations into two groups by node count
   (C2.6-C2.8 use 2 nodes, the rest 3);
2. the final indicator ranks C2.8 — each member fully co-located on
   its own node — first;
3. adding A first isolates C2.8 immediately and the final stage
   further separates C2.6/C2.7 from C2.1/C2.2/C2.4.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.configs.table4 import table4
from repro.core.pipeline import STAGE_PATHS, ensemble_objective_paths
from repro.experiments.base import (
    DEFAULT_N_STEPS,
    DEFAULT_NOISE,
    DEFAULT_TRIALS,
    ExperimentResult,
    _shared_trials,
    trial_mean,
)
from repro.experiments.fig8 import COLUMNS


def run_fig9(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
    base_seed: int = 0,
    config_names: Sequence[str] = tuple(c.name for c in table4()),
) -> ExperimentResult:
    """Regenerate Figure 9's data: F(P) per stage per configuration."""
    rows: List[Dict] = []
    for config in table4():
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
        experiment_id="fig9",
        title="F(P) on different P orders, two analyses per simulation "
        "(higher is better)",
        columns=COLUMNS,
        rows=rows,
        notes=f"{trials} trials, {n_steps} in situ steps, "
        f"noise {timing_noise:.0%}",
    )
