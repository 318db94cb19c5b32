"""Online rescheduling under performance drift.

Closes the measure → detect → re-plan → migrate loop over the DES
executor: a :class:`~repro.reschedule.telemetry.TelemetryFeed` streams
observed stage durations out of the ``_stage`` choke point, a
:class:`~repro.reschedule.detector.DriftDetector` runs a windowed
ratio test (hysteresis + minimum dwell) against the platform model's
predictions, a :class:`~repro.reschedule.replanner.Replanner`
warm-starts the annealer from the current placement under calibrated
per-node costs and gates every candidate on an explicit DTL
state-transfer price, and the
:class:`~repro.reschedule.controller.RescheduleController` executes
accepted migrations at step boundaries. Drift itself is injectable
(:mod:`repro.reschedule.drift`): seeded multiplicative step/ramp
schedules styled after :mod:`repro.faults`. A run with the controller
attached and zero drift is byte-identical to a bare run.
"""

from repro.reschedule.controller import (
    RescheduleController,
    ScriptedMigration,
)
from repro.reschedule.detector import DriftAlert, DriftDetector
from repro.reschedule.drift import (
    DriftEvent,
    DriftKind,
    DriftModel,
    DriftSchedule,
    RandomDriftModel,
    StaticDriftModel,
    coerce_drift,
)
from repro.reschedule.migration import (
    ComponentMove,
    MemberBinding,
    MigrationCostModel,
    MigrationPlan,
    MigrationRecord,
)
from repro.reschedule.replanner import (
    ReplanDecision,
    Replanner,
    calibrated_remaining_makespan,
)
from repro.reschedule.telemetry import StageObservation, TelemetryFeed

__all__ = [
    "ComponentMove",
    "DriftAlert",
    "DriftDetector",
    "DriftEvent",
    "DriftKind",
    "DriftModel",
    "DriftSchedule",
    "MemberBinding",
    "MigrationCostModel",
    "MigrationPlan",
    "MigrationRecord",
    "RandomDriftModel",
    "ReplanDecision",
    "Replanner",
    "RescheduleController",
    "ScriptedMigration",
    "StageObservation",
    "StaticDriftModel",
    "TelemetryFeed",
    "calibrated_remaining_makespan",
    "coerce_drift",
]
