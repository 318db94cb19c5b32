"""Figure 3: component-level metrics across Table 2 configurations.

For every configuration (Cf, Cc, C1.1-C1.5) and every ensemble
component, reports the Table-1 component metrics averaged over trials:
execution time, LLC miss ratio, memory intensity, and instructions per
cycle.

Paper claims this experiment must reproduce (checked in
``benchmarks/test_bench_fig3.py``):

1. every co-location configuration shows higher LLC miss ratios than
   the co-location-free baseline Cf;
2. analysis-analysis co-location (C1.1, C1.4) yields higher mean miss
   ratios than simulation-simulation co-location (C1.2);
3. heterogeneous co-location (C1.3, C1.5) produces the highest
   per-component miss ratios of all (the co-located simulation's
   cache-blocked kernel collapses under the streaming analysis).
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

COLUMNS = [
    "configuration",
    "component",
    "execution_time",
    "llc_miss_ratio",
    "memory_intensity",
    "ipc",
]


def run_fig3(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
    base_seed: int = 0,
    config_names: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Regenerate Figure 3's data: per-component metrics per config."""
    rows: List[Dict] = []
    for config in table2():
        if config_names is not None and config.name not in config_names:
            continue
        results = _shared_trials(
            config, trials, n_steps, base_seed, timing_noise
        )
        component_names = list(results[0].component_metrics)
        for comp in component_names:
            rows.append(
                {
                    "configuration": config.name,
                    "component": comp,
                    "execution_time": trial_mean(
                        [r.component_metrics[comp].execution_time for r in results]
                    ),
                    "llc_miss_ratio": trial_mean(
                        [r.component_metrics[comp].llc_miss_ratio for r in results]
                    ),
                    "memory_intensity": trial_mean(
                        [
                            r.component_metrics[comp].memory_intensity
                            for r in results
                        ]
                    ),
                    "ipc": trial_mean(
                        [r.component_metrics[comp].ipc for r in results]
                    ),
                }
            )
    return ExperimentResult(
        experiment_id="fig3",
        title="Metrics at ensemble component level (Table 2 configurations)",
        columns=COLUMNS,
        rows=rows,
        notes=f"{trials} trials, {n_steps} in situ steps, "
        f"noise {timing_noise:.0%}",
    )


def mean_miss_ratio(result: ExperimentResult, configuration: str) -> float:
    """Mean LLC miss ratio over a configuration's components."""
    values = [
        row["llc_miss_ratio"]
        for row in result.rows
        if row["configuration"] == configuration
    ]
    return sum(values) / len(values)


def max_miss_ratio(result: ExperimentResult, configuration: str) -> float:
    """Highest single-component LLC miss ratio in a configuration."""
    return max(
        row["llc_miss_ratio"]
        for row in result.rows
        if row["configuration"] == configuration
    )
