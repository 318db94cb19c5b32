"""Effective stage times under a placement.

This module computes, for every component, the stage durations the
platform model predicts for a given placement — the single source of
truth shared by the analytic predictor and the discrete-event executor:

- ``S_eff`` — the simulation's solo compute time, dilated by the
  contention assessment of its node, further stretched by the DIMES
  progress-thread tax when it serves remote consumers, plus the per-op
  producer overhead of each remote read;
- ``W_eff`` — the DTL write cost (marshal + transport);
- ``R_eff[j]`` — the DTL read cost of analysis ``j`` (locality
  sensitive);
- ``A_eff[j]`` — analysis ``j``'s solo compute time, dilated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.components.base import ComponentModel
from repro.dtl.base import DataTransportLayer
from repro.platform.cluster import Cluster
from repro.platform.contention import ContentionAssessment
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, MemberSpec
from repro.util.errors import PlacementError
from repro.util.rng import RandomSource


@dataclass(frozen=True)
class EffectiveComponent:
    """One component's effective per-step stage model."""

    name: str
    node: int
    compute_time: float  # S_eff or A_eff
    io_time: float  # W_eff or R_eff
    assessment: ContentionAssessment


@dataclass(frozen=True)
class EffectiveMember:
    """Effective stage times of one member under a placement."""

    name: str
    simulation: EffectiveComponent
    analyses: Tuple[EffectiveComponent, ...]
    n_steps: int
    total_cores: int


def compute_effective_stages(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    cluster: Cluster,
    dtl: DataTransportLayer,
) -> List[EffectiveMember]:
    """Price the ensemble's placement on the cluster's platform.

    Every component runs for the whole execution, so contention is a
    static property of the placement: each node's residents (members in
    spec order, each simulation before its analyses) are assessed once
    by the cluster's contention model, and DTL costs are evaluated per
    coupling. The cluster is only read.
    """
    placement.validate_against(spec, cluster.node_spec.cores)
    if placement.num_nodes > cluster.num_nodes:
        raise PlacementError(
            f"placement spans {placement.num_nodes} nodes, cluster has "
            f"{cluster.num_nodes}"
        )

    # 1. each node's residents, in allocation order
    residents: Dict[int, List[ComponentModel]] = {}
    for member_spec, mp in zip(spec.members, placement.members):
        residents.setdefault(mp.simulation_node, []).append(
            member_spec.simulation
        )
        for ana, node in zip(member_spec.analyses, mp.analysis_nodes):
            residents.setdefault(node, []).append(ana)

    # 2. one static contention assessment per component
    assessments: Dict[str, ContentionAssessment] = {}
    for models in residents.values():
        assessed = cluster.contention.assess(
            cluster.node_spec, [(m.profile, m.cores) for m in models]
        )
        for model, assessment in zip(models, assessed):
            assessments[model.name] = assessment

    # 3. per-member effective stage times
    members: List[EffectiveMember] = []
    for member_spec, mp in zip(spec.members, placement.members):
        members.append(member_effective_stages(member_spec, mp, assessments, dtl))
    return members


def member_effective_stages(
    member_spec: MemberSpec,
    mp: MemberPlacement,
    assessments: Dict[str, ContentionAssessment],
    dtl: DataTransportLayer,
) -> EffectiveMember:
    """Assemble one member's effective stages from node assessments.

    ``assessments`` must contain an entry for each of the member's
    components (keyed by component name). This is the single code path
    used both by :func:`compute_effective_stages` and by the memoized
    stage cache in :mod:`repro.search` — sharing it is what makes the
    cached predictions bit-identical to the full ones.
    """
    progress_tax = getattr(dtl, "producer_progress_tax", 0.0)
    sim_model = member_spec.simulation
    sim_assess = assessments[sim_model.name]
    payload = sim_model.payload_bytes()

    remote_consumers = [
        node for node in mp.analysis_nodes if node != mp.simulation_node
    ]
    per_op_overhead = sum(
        dtl.read_cost(mp.simulation_node, node, payload).producer_overhead
        for node in remote_consumers
    )
    s_eff = (
        sim_model.solo_compute_time()
        * sim_assess.dilation
        * (1.0 + progress_tax * len(remote_consumers))
        + per_op_overhead
    )
    w_eff = dtl.write_cost(mp.simulation_node, payload).total
    sim_effective = EffectiveComponent(
        name=sim_model.name,
        node=mp.simulation_node,
        compute_time=s_eff,
        io_time=w_eff,
        assessment=sim_assess,
    )

    analyses: List[EffectiveComponent] = []
    for ana_model, node in zip(member_spec.analyses, mp.analysis_nodes):
        ana_assess = assessments[ana_model.name]
        read = dtl.read_cost(mp.simulation_node, node, payload)
        analyses.append(
            EffectiveComponent(
                name=ana_model.name,
                node=node,
                compute_time=ana_model.solo_compute_time()
                * ana_assess.dilation,
                io_time=read.total,
                assessment=ana_assess,
            )
        )
    return EffectiveMember(
        name=member_spec.name,
        simulation=sim_effective,
        analyses=tuple(analyses),
        n_steps=member_spec.n_steps,
        total_cores=member_spec.total_cores,
    )


def component_jitter(
    effective: Sequence[EffectiveMember], seed: Optional[int], noise: float
) -> Dict[str, np.ndarray]:
    """Each component's timing-noise factors: the executor's RNG layout.

    One child of ``RandomSource(seed, name="executor")`` per component,
    spawned in member order (the simulation, then its analyses), draws
    the component's ``2 * n_steps`` factors in one vector call
    (:meth:`~repro.util.rng.RandomSource.jitter_factors`): two per step,
    in step order, S then W for a simulation and R then A for an
    analysis. The executor and :func:`~repro.faults.batched
    .capture_timeline` both take their factors here, so a captured
    timeline holds the floats a fault-free DES run hands its stages.
    At ``noise`` 0 every factor is 1.0 and no child is spawned (the
    root is still built, so a bad seed raises either way).
    """
    root = RandomSource(seed, name="executor")
    factors: Dict[str, np.ndarray] = {}
    for member in effective:
        count = 2 * member.n_steps
        for component in (member.simulation, *member.analyses):
            factors[component.name] = (
                root.spawn(component.name).jitter_factors(noise, count)
                if noise
                else np.ones(count)
            )
    return factors
