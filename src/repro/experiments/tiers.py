"""Staging-tier matrix: placement sensitivity across DTL tiers.

The paper targets the in-memory DTL but its runtime architecture
(Figure 2) explicitly abstracts over storage tiers ("in-memory,
burst-buffers, or parallel file systems"). This experiment runs the
full Table 2 configuration set over all three tiers and quantifies
each tier's *placement sensitivity* — the ensemble-makespan spread
between the best and worst placement.

Expected behaviour (asserted in ``benchmarks/test_bench_tiers.py``):

1. under the in-memory tier the co-located placements (Cc/C1.5) win —
   the paper's result;
2. under placement-insensitive tiers (burst buffer, PFS) co-location
   keeps its contention *cost* but loses its locality *benefit*: the
   co-location-free Cf becomes the winning placement;
3. co-located placements are nearly tier-invariant (their staging is a
   local memory copy regardless of tier speed at MD-scale chunk
   sizes), and the analysis-contended C1.4 is the worst placement on
   *every* tier — contention, not I/O, dominates this workload.

Together these say the in-memory tier's value is *contingent on
co-location*: without co-locating coupled components, DIMES's in-app
service costs make it no better than (even slightly worse than) a
dedicated external tier — which is precisely the paper's argument for
placement-aware scheduling of in situ ensembles.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.configs.table2 import table2
from repro.dtl.base import DataTransportLayer
from repro.dtl.burstbuffer import BurstBufferDTL
from repro.dtl.dimes import InMemoryStagingDTL
from repro.dtl.pfs import ParallelFilesystemDTL
from repro.experiments.base import (
    DEFAULT_N_STEPS,
    DEFAULT_NOISE,
    DEFAULT_TRIALS,
    ExperimentResult,
    run_configuration_trials,
    trial_mean,
)
from repro.platform.cluster import Cluster
from repro.platform.specs import make_cori_like_cluster

COLUMNS = ["tier", "configuration", "ensemble_makespan"]

TierFactory = Callable[[Cluster], DataTransportLayer]


def default_tiers() -> Dict[str, TierFactory]:
    """The three Figure-2 tiers with realistic parameters."""
    return {
        "in-memory": lambda cl: InMemoryStagingDTL.for_platform(
            cl.network, cl.node_spec
        ),
        "burst-buffer": lambda cl: BurstBufferDTL(),
        "parallel-fs": lambda cl: ParallelFilesystemDTL(
            aggregate_bandwidth=4e9,
            concurrent_clients=4,
            metadata_latency=0.02,
        ),
    }


def run_tier_matrix(
    trials: int = DEFAULT_TRIALS,
    n_steps: int = DEFAULT_N_STEPS,
    timing_noise: float = DEFAULT_NOISE,
    config_names: Sequence[str] = ("Cf", "Cc", "C1.2", "C1.4", "C1.5"),
    tiers: Dict[str, TierFactory] | None = None,
) -> ExperimentResult:
    """Run selected Table 2 configurations over every tier."""
    tiers = tiers if tiers is not None else default_tiers()
    rows: List[Dict] = []
    for tier_name, factory in tiers.items():
        for config in table2():
            if config.name not in config_names:
                continue
            cluster = make_cori_like_cluster(config.num_nodes)
            results = run_configuration_trials(
                config,
                trials=trials,
                n_steps=n_steps,
                timing_noise=timing_noise,
                cluster=cluster,
                dtl=factory(cluster),
            )
            rows.append(
                {
                    "tier": tier_name,
                    "configuration": config.name,
                    "ensemble_makespan": trial_mean(
                        [r.ensemble_makespan for r in results]
                    ),
                }
            )
    return ExperimentResult(
        experiment_id="tier-matrix",
        title="Ensemble makespan per staging tier and placement",
        columns=COLUMNS,
        rows=rows,
        notes="locality-sensitive tiers reward co-location; "
        "placement-insensitive tiers punish it",
    )


def best_placement_per_tier(result: ExperimentResult) -> Dict[str, str]:
    """Winning configuration (min makespan) for each tier."""
    winners: Dict[str, str] = {}
    tiers = {row["tier"] for row in result.rows}
    for tier in tiers:
        rows = [r for r in result.rows if r["tier"] == tier]
        winners[tier] = min(rows, key=lambda r: r["ensemble_makespan"])[
            "configuration"
        ]
    return winners
