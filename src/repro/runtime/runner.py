"""High-level entry point: run one workflow ensemble configuration."""

from __future__ import annotations

from typing import Optional

from repro.dtl.base import DataTransportLayer
from repro.faults.models import FailureModel
from repro.faults.recovery import RecoveryPolicy
from repro.platform.cluster import Cluster
from repro.runtime.executor import EnsembleExecutor
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.results import ExecutionResult
from repro.runtime.spec import EnsembleSpec


def run_ensemble(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    seed: Optional[int] = 0,
    timing_noise: float = 0.0,
    failure_model: Optional[FailureModel] = None,
    recovery: Optional[RecoveryPolicy] = None,
    verify: bool = False,
    drift=None,
    rescheduler=None,
) -> ExecutionResult:
    """Execute ``spec`` under ``placement`` and return the results.

    Thin convenience wrapper over :class:`EnsembleExecutor`; see its
    docstring for parameter semantics. Typical use::

        from repro.runtime import run_ensemble
        from repro.runtime.spec import EnsembleSpec, default_member
        from repro.runtime.placement import pack_members_per_node

        spec = EnsembleSpec(
            "demo", (default_member("em1"), default_member("em2"))
        )
        result = run_ensemble(spec, pack_members_per_node(spec))
        print(result.ensemble_makespan)
    """
    return EnsembleExecutor(
        spec=spec,
        placement=placement,
        cluster=cluster,
        dtl=dtl,
        seed=seed,
        timing_noise=timing_noise,
        failure_model=failure_model,
        recovery=recovery,
        verify=verify,
        drift=drift,
        rescheduler=rescheduler,
    ).run()
