"""Figure 4: ensemble member makespans across Table 2 configurations.

Member makespan is the paper's Table-1 member metric: the timespan
between the simulation's start and the latest coupled analysis's end.

Paper claim (checked by ``benchmarks/test_bench_fig4.py``): C1.5 — each
simulation co-located with its own analysis — yields the shortest
member makespan among all configurations, while the analysis-contended
configurations (C1.1, C1.4) yield the longest.
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

COLUMNS = ["configuration", "member", "makespan"]


def run_fig4(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
    base_seed: int = 0,
    config_names: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Regenerate Figure 4's data: member makespans per configuration."""
    rows: List[Dict] = []
    for config in table2():
        if config_names is not None and config.name not in config_names:
            continue
        results = _shared_trials(
            config, trials, n_steps, base_seed, timing_noise
        )
        for member in results[0].member_makespans:
            rows.append(
                {
                    "configuration": config.name,
                    "member": member,
                    "makespan": trial_mean(
                        [r.member_makespans[member] for r in results]
                    ),
                }
            )
    return ExperimentResult(
        experiment_id="fig4",
        title="Ensemble member makespan (Table 2 configurations)",
        columns=COLUMNS,
        rows=rows,
        notes=f"{trials} trials, {n_steps} in situ steps, "
        f"noise {timing_noise:.0%}",
    )


def best_member_makespan(result: ExperimentResult, configuration: str) -> float:
    """Smallest member makespan within one configuration."""
    return min(
        row["makespan"]
        for row in result.rows
        if row["configuration"] == configuration
    )


def worst_member_makespan(result: ExperimentResult, configuration: str) -> float:
    """Largest member makespan within one configuration."""
    return max(
        row["makespan"]
        for row in result.rows
        if row["configuration"] == configuration
    )
