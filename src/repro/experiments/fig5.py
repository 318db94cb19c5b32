"""Figure 5: workflow ensemble makespans across Table 2 configurations.

Ensemble makespan is the maximum member makespan (all members start
simultaneously). Paper claim (checked by
``benchmarks/test_bench_fig5.py``): C1.5 has the shortest ensemble
makespan of the two-member configurations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.configs.table2 import table2
from repro.experiments.base import (
    DEFAULT_N_STEPS,
    DEFAULT_NOISE,
    DEFAULT_TRIALS,
    ExperimentResult,
    _shared_trials,
    trial_mean,
)

COLUMNS = ["configuration", "ensemble_makespan"]


def run_fig5(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
    base_seed: int = 0,
    config_names: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Regenerate Figure 5's data: ensemble makespan per configuration."""
    rows: List[Dict] = []
    for config in table2():
        if config_names is not None and config.name not in config_names:
            continue
        results = _shared_trials(
            config, trials, n_steps, base_seed, timing_noise
        )
        rows.append(
            {
                "configuration": config.name,
                "ensemble_makespan": trial_mean(
                    [r.ensemble_makespan for r in results]
                ),
            }
        )
    return ExperimentResult(
        experiment_id="fig5",
        title="Workflow ensemble makespan (Table 2 configurations)",
        columns=COLUMNS,
        rows=rows,
        notes=f"{trials} trials, {n_steps} in situ steps, "
        f"noise {timing_noise:.0%}",
    )
