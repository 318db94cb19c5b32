"""Execution results: traces distilled into the paper's data products.

:func:`build_result` turns a finished run (tracer + effective members)
into:

- per-component Table-1 metrics (execution time, LLC miss ratio,
  memory intensity, IPC) with synthesized hardware counters;
- per-member steady-state :class:`~repro.core.stages.MemberStages`
  estimated from the trace (every S/W/R/A series of the run reduced by
  one :func:`~repro.core.stages.steady_state_rows` call), the measured
  makespan, the computational efficiency E, and the
  :class:`~repro.core.indicators.MemberMeasurement` that feeds the
  indicator pipeline;
- ensemble-level makespan and node count M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.efficiency import computational_efficiency
from repro.core.indicators import (
    IndicatorStage,
    MemberMeasurement,
    apply_stages,
)
from repro.core.objective import objective_function
from repro.core.stages import (
    AnalysisStages,
    MemberStages,
    SimulationStages,
    steady_state_rows,
)
from repro.monitoring.counters import HardwareCounters, synthesize_counters
from repro.monitoring.metrics import (
    ComponentMetrics,
    EnsembleMetrics,
    MemberMetrics,
    component_metrics,
    ensemble_makespan,
    member_makespan_from_trace,
)
from repro.monitoring.tracer import Stage, StageTracer
from repro.platform.cluster import Cluster
from repro.runtime.effective import EffectiveMember
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import ValidationError
from repro.util.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultLog


@dataclass(frozen=True)
class MemberResult:
    """Everything measured about one ensemble member."""

    name: str
    stages: MemberStages
    makespan: float
    efficiency: float
    measurement: MemberMeasurement


@dataclass(frozen=True)
class ExecutionResult:
    """Full outcome of one ensemble execution."""

    ensemble_name: str
    members: Tuple[MemberResult, ...]
    total_nodes: int  # M
    tracer: StageTracer
    component_metrics: Dict[str, ComponentMetrics]
    counters: Dict[str, HardwareCounters]
    ensemble: EnsembleMetrics
    #: fault record of the run (None when executed without injection)
    fault_log: Optional["FaultLog"] = None

    @property
    def member_makespans(self) -> Dict[str, float]:
        return {m.name: m.makespan for m in self.members}

    @property
    def ensemble_makespan(self) -> float:
        return self.ensemble.makespan

    def indicator_values(
        self, order: Sequence[IndicatorStage]
    ) -> Dict[str, float]:
        """Each member's indicator after applying ``order``'s stages."""
        return {
            m.name: apply_stages(m.measurement, order, self.total_nodes)
            for m in self.members
        }

    def objective(self, order: Sequence[IndicatorStage]) -> float:
        """F(P_i) (Eq. 9) for the chosen indicator stage order."""
        return objective_function(list(self.indicator_values(order).values()))


def estimate_member_stages(
    effective: Sequence[EffectiveMember], tracer: StageTracer
) -> List[MemberStages]:
    """Each member's steady-state stage durations, estimated from the trace.

    Every S, W, R and A series of the run is reduced by one
    :func:`~repro.core.stages.steady_state_rows` call, which equals
    :func:`~repro.core.stages.estimate_steady_state` per series bit for
    bit.
    """
    series: List[List[float]] = []
    for member in effective:
        sim = member.simulation.name
        series.append(tracer.durations(sim, Stage.SIM_COMPUTE))
        series.append(tracer.durations(sim, Stage.SIM_WRITE))
        for ana in member.analyses:
            series.append(tracer.durations(ana.name, Stage.ANA_READ))
            series.append(tracer.durations(ana.name, Stage.ANA_COMPUTE))
    lengths = [len(values) for values in series]
    width = max(lengths)
    rows = np.array([v + [0.0] * (width - len(v)) for v in series])
    estimates = iter(steady_state_rows(rows, np.array(lengths)).tolist())
    return [
        MemberStages(
            simulation=SimulationStages(
                compute=next(estimates), write=next(estimates)
            ),
            analyses=tuple(
                AnalysisStages(read=next(estimates), analyze=next(estimates))
                for _ in member.analyses
            ),
        )
        for member in effective
    ]


def build_result(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    effective: Sequence[EffectiveMember],
    tracer: StageTracer,
    cluster: Cluster,
    seed: Optional[int] = 0,
    noise: float = 0.0,
    fault_log: Optional["FaultLog"] = None,
) -> ExecutionResult:
    """Assemble the :class:`ExecutionResult` for a finished run."""
    if len(effective) != spec.num_members:
        raise ValidationError(
            "effective member list does not match the ensemble spec"
        )
    counter_rng = RandomSource(seed, name="counters")
    freq = cluster.node_spec.core_freq_hz

    counters: Dict[str, HardwareCounters] = {}
    metrics: Dict[str, ComponentMetrics] = {}
    member_results: List[MemberResult] = []
    member_metrics: Dict[str, MemberMetrics] = {}

    for member_spec, member_eff, mp, stages in zip(
        spec.members,
        effective,
        placement.members,
        estimate_member_stages(effective, tracer),
    ):
        models = [member_spec.simulation] + list(member_spec.analyses)
        assessments = [member_eff.simulation.assessment] + [
            a.assessment for a in member_eff.analyses
        ]
        for model, assessment in zip(models, assessments):
            cnt = synthesize_counters(
                model,
                assessment,
                core_freq_hz=freq,
                n_steps=member_spec.n_steps,
                rng=counter_rng.spawn(model.name),
                noise=noise,
            )
            counters[model.name] = cnt
            metrics[model.name] = component_metrics(model.name, tracer, cnt)

        mm = member_makespan_from_trace(
            member_spec.name,
            member_spec.simulation.name,
            [a.name for a in member_spec.analyses],
            tracer,
        )
        member_metrics[member_spec.name] = mm
        measurement = MemberMeasurement(
            name=member_spec.name,
            stages=stages,
            total_cores=member_spec.total_cores,
            placement=mp.to_placement_sets(),
        )
        member_results.append(
            MemberResult(
                name=member_spec.name,
                stages=stages,
                makespan=mm.makespan,
                efficiency=computational_efficiency(stages),
                measurement=measurement,
            )
        )

    return ExecutionResult(
        ensemble_name=spec.name,
        members=tuple(member_results),
        total_nodes=placement.num_nodes,
        tracer=tracer,
        component_metrics=metrics,
        counters=counters,
        ensemble=ensemble_makespan(member_metrics),
        fault_log=fault_log,
    )
