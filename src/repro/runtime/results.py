"""Execution results: traces distilled into the paper's data products.

:func:`build_result` turns a finished run (tracer + effective members)
into:

- per-component Table-1 metrics (execution time, LLC miss ratio,
  memory intensity, IPC) with synthesized hardware counters, computed
  on first read (only Figure 3 and the run report read them);
- per-member steady-state :class:`~repro.core.stages.MemberStages`
  estimated from the trace (every S/W/R/A series of the run reduced by
  one :func:`~repro.core.stages.steady_state_rows` call), the measured
  makespan, the computational efficiency E, and the
  :class:`~repro.core.indicators.MemberMeasurement` that feeds the
  indicator pipeline;
- ensemble-level makespan and node count M.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
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
class CounterSource:
    """What a run's Table-1 counters are synthesized from.

    The run's spec and pricing (its effective members, whose contention
    assessments set each component's CPI and miss ratio), the node's
    clock, and the run's seed and timing noise.
    """

    spec: EnsembleSpec
    effective: Tuple[EffectiveMember, ...]
    core_freq_hz: float
    seed: Optional[int]
    noise: float

    def synthesize(self) -> Dict[str, HardwareCounters]:
        """Every component's counters, in member order (each simulation
        before its analyses).

        Component ``i`` draws its noise from the ``i``-th child of
        ``RandomSource(seed, name="counters")``; a noise-free source
        spawns none, since its counters draw nothing.
        """
        rng = RandomSource(self.seed, name="counters") if self.noise else None
        counters: Dict[str, HardwareCounters] = {}
        for member_spec, member_eff in zip(self.spec.members, self.effective):
            models = [member_spec.simulation, *member_spec.analyses]
            priced = [member_eff.simulation, *member_eff.analyses]
            for model, component in zip(models, priced):
                counters[model.name] = synthesize_counters(
                    model,
                    component.assessment,
                    core_freq_hz=self.core_freq_hz,
                    n_steps=member_spec.n_steps,
                    rng=rng.spawn(model.name) if rng is not None else None,
                    noise=self.noise,
                )
        return counters


@dataclass(frozen=True)
class ExecutionResult:
    """Full outcome of one ensemble execution.

    :attr:`counters` and :attr:`component_metrics` are computed on first
    read from :attr:`counter_source` and then kept, so a run whose
    Table-1 products nobody reads never synthesizes them.
    """

    ensemble_name: str
    members: Tuple[MemberResult, ...]
    total_nodes: int  # M
    tracer: StageTracer
    ensemble: EnsembleMetrics
    counter_source: CounterSource = field(repr=False)
    #: fault record of the run (None when executed without injection)
    fault_log: Optional["FaultLog"] = None

    @functools.cached_property
    def counters(self) -> Dict[str, HardwareCounters]:
        """Each component's synthesized hardware counters (Table 1)."""
        return self.counter_source.synthesize()

    @functools.cached_property
    def component_metrics(self) -> Dict[str, ComponentMetrics]:
        """Each component's Table-1 metrics: its trace span and counters."""
        return {
            name: component_metrics(name, self.tracer, counters)
            for name, counters in self.counters.items()
        }

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
    member_results: List[MemberResult] = []
    member_metrics: Dict[str, MemberMetrics] = {}
    for member_spec, mp, stages in zip(
        spec.members,
        placement.members,
        estimate_member_stages(effective, tracer),
    ):
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
        ensemble=ensemble_makespan(member_metrics),
        counter_source=CounterSource(
            spec=spec,
            effective=tuple(effective),
            core_freq_hz=cluster.node_spec.core_freq_hz,
            seed=seed,
            noise=noise,
        ),
        fault_log=fault_log,
    )
