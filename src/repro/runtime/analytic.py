"""Closed-form steady-state prediction (no discrete-event execution).

Under the synchronous protocol the steady state is fully determined by
the effective stage times (paper §3.1-§3.2): the member's period is
Eq. 1's max, and the stage durations *are* the steady-state values. The
predictor therefore maps :func:`~repro.runtime.effective
.compute_effective_stages` output straight into
:class:`~repro.core.stages.MemberStages` — orders of magnitude faster
than the executor, and cross-validated against it (noise-free executor
traces estimate the same steady state to <0.1%) in
``tests/runtime/test_cross_validation.py``.

This is the path the parameter sweeps (Figure 7, heuristic search,
placement enumeration) use.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.stages import AnalysisStages, MemberStages, SimulationStages
from repro.dtl.base import DataTransportLayer
from repro.dtl.dimes import InMemoryStagingDTL
from repro.platform.cluster import Cluster
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.effective import compute_effective_stages
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec


def predict_member_stages(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
) -> Dict[str, MemberStages]:
    """Predict every member's steady-state stages under a placement.

    ``cluster`` defaults to a Cori-like allocation sized to the
    placement; ``dtl`` defaults to the DIMES-like in-memory tier wired
    to the cluster's network and memory bandwidth.
    """
    if cluster is None:
        cluster = make_cori_like_cluster(placement.num_nodes)
    if dtl is None:
        dtl = InMemoryStagingDTL.for_platform(
            cluster.network, cluster.node_spec
        )
    effective = compute_effective_stages(spec, placement, cluster, dtl)
    out: Dict[str, MemberStages] = {}
    for member in effective:
        out[member.name] = MemberStages(
            simulation=SimulationStages(
                compute=member.simulation.compute_time,
                write=member.simulation.io_time,
            ),
            analyses=tuple(
                AnalysisStages(read=a.io_time, analyze=a.compute_time)
                for a in member.analyses
            ),
        )
    return out
