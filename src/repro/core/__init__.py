"""The paper's contribution: execution model, efficiency, indicators.

This package is pure math over measured (or modeled) quantities — it
has no dependency on the simulator and can be applied to stage times
from any source, including real traces.

Contents, by paper section:

- :mod:`repro.core.stages` — fine-grained stage model (§3.1): the
  simulation's ``S``/``I^S``/``W`` and each analysis's ``R``/``A``/
  ``I^A`` steady-state durations, plus estimation of steady-state
  values from per-step samples.
- :mod:`repro.core.insitu` — the in situ step (§3.2): non-overlapped
  segment (Eq. 1), member makespan (Eq. 2), idle-time derivation and
  coupling regime classification (Idle Simulation vs Idle Analyzer).
- :mod:`repro.core.efficiency` — computational efficiency ``E``
  (§3.3, Eq. 3).
- :mod:`repro.core.indicators` — the multi-stage performance
  indicator (§4): member resource usage ``P^U`` (Eq. 5), the placement
  indicator ``CP`` (Eq. 6), member resource allocation ``P^{U,A}``
  (Eq. 7), ensemble resource provisioning ``P^{U,A,P}`` (Eq. 8), and
  the alternative stage order ``P^{U,P}`` / ``P^{U,P,A}`` explored in
  §5.2.
- :mod:`repro.core.objective` — the ensemble-level objective
  ``F(P) = mean - std`` (§5.1, Eq. 9) and configuration ranking.
- :mod:`repro.core.heuristic` — the §3.4 resource-provisioning
  heuristic: pick the analysis core count satisfying Eq. 4 (Idle
  Analyzer regime) that maximizes ``E``.
- :mod:`repro.core.columns` — Eqs. 1-9 over stage columns, equal to
  the functions above bit for bit: what the batch engines score with.
"""

from repro.core.stages import (
    AnalysisStages,
    MemberStages,
    SimulationStages,
    estimate_steady_state,
    steady_state_rows,
)
from repro.core.columns import ColumnScores, score_columns
from repro.core.insitu import (
    CouplingRegime,
    analysis_idle_time,
    classify_coupling,
    member_makespan,
    non_overlapped_segment,
    simulation_idle_time,
)
from repro.core.efficiency import computational_efficiency, coupling_efficiency
from repro.core.indicators import (
    IndicatorStage,
    MemberMeasurement,
    PlacementSets,
    apply_stages,
    indicator_path,
    placement_indicator,
    resource_usage_indicator,
)
from repro.core.objective import objective_function, rank_by_objective
from repro.core.pipeline import (
    STAGE_PATHS,
    ensemble_objective_paths,
    member_indicator_paths,
)
from repro.core.heuristic import (
    CoreAllocationChoice,
    CoreSweepPoint,
    choose_analysis_cores,
    sweep_analysis_cores,
)

__all__ = [
    "AnalysisStages",
    "ColumnScores",
    "CoreAllocationChoice",
    "CoreSweepPoint",
    "CouplingRegime",
    "IndicatorStage",
    "MemberMeasurement",
    "MemberStages",
    "PlacementSets",
    "STAGE_PATHS",
    "SimulationStages",
    "analysis_idle_time",
    "apply_stages",
    "choose_analysis_cores",
    "classify_coupling",
    "computational_efficiency",
    "coupling_efficiency",
    "ensemble_objective_paths",
    "estimate_steady_state",
    "indicator_path",
    "member_indicator_paths",
    "member_makespan",
    "non_overlapped_segment",
    "objective_function",
    "placement_indicator",
    "rank_by_objective",
    "resource_usage_indicator",
    "score_columns",
    "simulation_idle_time",
    "steady_state_rows",
    "sweep_analysis_cores",
]
