"""Cluster-level co-scheduling of ensemble streams.

The paper plans one ensemble on one fixed allocation; this package is
the layer above — a cluster backend that admits a *stream* of
ensemble requests, partitions the cluster's nodes across the ensembles
resident at each instant, and re-partitions on membership events
(arrival, completion, elastic member join/leave):

- :mod:`repro.coschedule.requests` — :class:`EnsembleRequest` records
  (deadline, priority, arrival, elastic membership);
- :mod:`repro.coschedule.admission` — deterministic accept / queue /
  reject decisions driven by closed-form feasibility counts and the
  robustness surrogate;
- :mod:`repro.coschedule.allocator` — grant-vector search optimizing a
  configurable :class:`ClusterObjective` (weighted per-ensemble F(P),
  max-min fairness, deadline-miss penalty) through the existing
  per-ensemble :func:`~repro.search.engine.find_best_placement`;
- :mod:`repro.coschedule.loop` — the event loop on the DES clock, with
  migrations billed through the DTL;
- :mod:`repro.coschedule.scenarios` — the canonical mixed-deadline
  stream and the FIFO-exclusive baseline it is measured against.

See ``docs/COSCHEDULING.md`` for objective definitions, the admission
policy, and a worked two-ensemble example.
"""

from repro.coschedule.admission import (
    AdmissionAction,
    AdmissionController,
    AdmissionDecision,
    decisions_digest,
)
from repro.coschedule.allocator import (
    ClusterAllocation,
    ClusterAllocator,
    ClusterObjective,
    EnsembleAllocation,
    ResidentWorkload,
)
from repro.coschedule.loop import (
    CoScheduleResult,
    CoScheduler,
    EnsembleCompletion,
    TimelineEvent,
)
from repro.coschedule.requests import (
    MEMBERSHIP_ACTIONS,
    EnsembleRequest,
    MembershipEvent,
    validate_stream,
)
from repro.coschedule.scenarios import (
    FifoEntry,
    FifoSchedule,
    canonical_mixed_deadline_stream,
    fifo_exclusive_schedule,
)

__all__ = [
    "AdmissionAction",
    "AdmissionController",
    "AdmissionDecision",
    "ClusterAllocation",
    "ClusterAllocator",
    "ClusterObjective",
    "CoScheduleResult",
    "CoScheduler",
    "EnsembleAllocation",
    "EnsembleCompletion",
    "EnsembleRequest",
    "FifoEntry",
    "FifoSchedule",
    "MEMBERSHIP_ACTIONS",
    "MembershipEvent",
    "ResidentWorkload",
    "TimelineEvent",
    "canonical_mixed_deadline_stream",
    "decisions_digest",
    "fifo_exclusive_schedule",
    "validate_stream",
]
