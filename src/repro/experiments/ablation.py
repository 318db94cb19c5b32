"""Design-choice ablations (DESIGN.md §5).

Three switches in the platform/DTL model are responsible for the
paper's orderings; each ablation disables one and reports how the
orderings change:

- **contention** — with the interference model off, co-location stops
  costing anything: C1.4 and C1.5 makespans converge.
- **locality** — replacing the DIMES tier with a placement-insensitive
  burst buffer removes the co-location benefit: Cc no longer beats Cf.
- **progress tax** — with the DIMES remote-service tax zeroed,
  co-location keeps the read-locality benefit but loses its largest
  advantage; Cf catches up with (or overtakes) Cc.
"""

from __future__ import annotations

from typing import Dict, List

from repro.configs.table2 import get_config
from repro.dtl.burstbuffer import BurstBufferDTL
from repro.dtl.dimes import InMemoryStagingDTL
from repro.experiments.base import (
    DEFAULT_N_STEPS,
    DEFAULT_NOISE,
    DEFAULT_TRIALS,
    ExperimentResult,
    _shared_trials,
    run_configuration_trials,
    trial_mean,
)
from repro.platform.specs import make_cori_like_cluster

COLUMNS = ["variant", "configuration", "ensemble_makespan"]


def _makespan(
    config_name: str,
    trials: int,
    n_steps: int,
    noise: float,
    contention_enabled: bool = True,
    dtl_factory=None,
) -> float:
    config = get_config(config_name)
    if contention_enabled and dtl_factory is None:
        # the default platform: the cluster and DTL the executor builds
        results = _shared_trials(config, trials, n_steps, 0, noise)
    else:
        cluster = make_cori_like_cluster(
            config.num_nodes, contention_enabled=contention_enabled
        )
        results = run_configuration_trials(
            config,
            trials=trials,
            n_steps=n_steps,
            timing_noise=noise,
            cluster=cluster,
            dtl=None if dtl_factory is None else dtl_factory(cluster),
        )
    return trial_mean([r.ensemble_makespan for r in results])


def run_contention_ablation(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
) -> ExperimentResult:
    """C1.4 vs C1.5 with the interference model on and off."""
    rows: List[Dict] = []
    for variant, enabled in (("contention-on", True), ("contention-off", False)):
        for name in ("C1.4", "C1.5"):
            rows.append(
                {
                    "variant": variant,
                    "configuration": name,
                    "ensemble_makespan": _makespan(
                        name,
                        trials,
                        n_steps,
                        timing_noise,
                        contention_enabled=enabled,
                    ),
                }
            )
    return ExperimentResult(
        experiment_id="ablation-contention",
        title="Interference model ablation (C1.4 vs C1.5)",
        columns=COLUMNS,
        rows=rows,
        notes="without contention, analysis co-location stops hurting C1.4",
    )


def run_locality_ablation(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
) -> ExperimentResult:
    """Cf vs Cc under DIMES and under a placement-insensitive tier."""
    def burst(cluster):
        return BurstBufferDTL()

    rows: List[Dict] = []
    for variant, factory in (("dimes", None), ("burst-buffer", burst)):
        for name in ("Cf", "Cc"):
            rows.append(
                {
                    "variant": variant,
                    "configuration": name,
                    "ensemble_makespan": _makespan(
                        name, trials, n_steps, timing_noise, dtl_factory=factory
                    ),
                }
            )
    return ExperimentResult(
        experiment_id="ablation-locality",
        title="Data-locality ablation (Cf vs Cc, DIMES vs burst buffer)",
        columns=COLUMNS,
        rows=rows,
        notes="with a placement-insensitive tier, co-location keeps the "
        "contention cost but loses the locality benefit",
    )


def run_tax_ablation(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
) -> ExperimentResult:
    """Cf vs Cc with the DIMES progress tax present and zeroed."""
    def untaxed(cluster):
        return InMemoryStagingDTL(
            network=cluster.network,
            memory_bandwidth=cluster.node_spec.memory_bandwidth,
            producer_progress_tax=0.0,
        )

    rows: List[Dict] = []
    for variant, factory in (("tax-on", None), ("tax-off", untaxed)):
        for name in ("Cf", "Cc"):
            rows.append(
                {
                    "variant": variant,
                    "configuration": name,
                    "ensemble_makespan": _makespan(
                        name, trials, n_steps, timing_noise, dtl_factory=factory
                    ),
                }
            )
    return ExperimentResult(
        experiment_id="ablation-tax",
        title="DIMES progress-tax ablation (Cf vs Cc)",
        columns=COLUMNS,
        rows=rows,
        notes="without the remote-serving tax the co-location-free "
        "placement avoids contention for free",
    )
