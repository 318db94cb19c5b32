"""Fault injection and resilience for the ensemble DES.

The paper's execution model (Eqs. 1-3) assumes an ideal, failure-free
steady state. This subpackage perturbs the discrete-event executor
beyond that model so placements can be ranked by *robust* F(P):

- :mod:`repro.faults.models` — seeded, deterministic failure models
  (component crash, straggler, transient stall, DTL chunk
  loss/corruption) expressed as schedules over
  ``(member, component, step)``, plus node-level fault domains
  (:class:`NodeFailureModel`) and correlated/bursty arrival processes
  (Markov-modulated, Weibull-burst);
- :mod:`repro.faults.injector` — the injection hook the executor
  routes every timed stage through; zero-failure injection reproduces
  the baseline trace byte for byte;
- :mod:`repro.faults.recovery` — recovery policies
  (retry-with-backoff, checkpoint restart, degrade-by-dropping, and
  the budget-driven adaptive switch) the scheduler can consume;
- :mod:`repro.faults.analytic` — the closed-form robustness surrogate:
  expected makespan inflation and effective efficiency under a hazard
  profile + recovery policy, cheap enough for the planner's inner
  search loop (validated against DES trials — see
  ``docs/FAULT_MODELS.md``).

Resilience metrics over injected runs live in
:mod:`repro.monitoring.resilience`; robust placement scoring in
:mod:`repro.scheduler.robust`; the rate x policy sweep in
:mod:`repro.experiments.resilience`.
"""

from repro.faults.injector import (
    AnalysisDropped,
    FaultInjector,
    FaultLog,
    FaultRecord,
    StageContext,
)
from repro.faults.analytic import (
    RobustnessTerm,
    SurrogateReport,
    surrogate_resilience,
)
from repro.faults.models import (
    CHUNK_KINDS,
    ArrivalProcess,
    BernoulliArrivals,
    CorrelatedFailureModel,
    FailureModel,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    HazardProfile,
    MarkovModulatedArrivals,
    NodeFailureModel,
    NoFailureModel,
    RandomFailureModel,
    ScheduledFailureModel,
    WeibullBurstArrivals,
)
from repro.faults.recovery import (
    POLICY_NAMES,
    AdaptiveRecoveryPolicy,
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RecoveryAction,
    RecoveryPolicy,
    RetryBackoffPolicy,
    make_policy,
)

# imported last: repro.faults.batched pulls in the executor, which
# imports the injector/models/recovery submodules loaded above.
from repro.faults.batched import (
    MemberTimeline,
    ReplayOutcome,
    StageTimeline,
    batched_score_placement,
    capture_timeline,
    rank_placements_batched,
    replay_schedules,
    replay_tier,
    score_from_timeline,
)

__all__ = [
    "AdaptiveRecoveryPolicy",
    "AnalysisDropped",
    "ArrivalProcess",
    "BernoulliArrivals",
    "CHUNK_KINDS",
    "CheckpointRestartPolicy",
    "CorrelatedFailureModel",
    "DropAnalysisPolicy",
    "FailureModel",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultLog",
    "FaultRecord",
    "FaultSchedule",
    "HazardProfile",
    "MarkovModulatedArrivals",
    "MemberTimeline",
    "NoFailureModel",
    "NodeFailureModel",
    "POLICY_NAMES",
    "RandomFailureModel",
    "RecoveryAction",
    "RecoveryPolicy",
    "ReplayOutcome",
    "RetryBackoffPolicy",
    "RobustnessTerm",
    "ScheduledFailureModel",
    "StageContext",
    "StageTimeline",
    "SurrogateReport",
    "WeibullBurstArrivals",
    "batched_score_placement",
    "capture_timeline",
    "make_policy",
    "rank_placements_batched",
    "replay_schedules",
    "replay_tier",
    "score_from_timeline",
    "surrogate_resilience",
]
