"""Seeded performance-drift schedules for the DES executor.

The rescheduling loop needs something to react to: nodes that slowly
(or suddenly) stop delivering the stage times the platform model
promised. Mirroring :mod:`repro.faults.models`, drift is compiled into
an immutable :class:`DriftSchedule` *before* the simulation starts —
every event is a node-attributed multiplicative slowdown pinned to a
start step — and the executor consults the schedule as the run
unfolds. Scheduling ahead of time keeps drift randomness strictly
separate from the executor's timing-noise streams: a zero-rate model
yields an empty schedule and the run is byte-identical to an
undrifted baseline.

Drift kinds
-----------
``STEP``
    From ``start_step`` on, stage times on the node are inflated by a
    constant ``magnitude`` factor (> 1, saturating at ``cap`` like a
    ramp) — a neighbour job landed, a core went into thermal
    throttling.
``RAMP``
    From ``start_step`` on, the inflation grows linearly by
    ``magnitude`` per step (saturating at ``cap``) — creeping
    contention, a memory leak in a co-tenant.

Drift multiplies the *nominal jittered* duration at the executor's
``_stage`` choke point, after the noise draw, so the RNG streams of a
drifted run are identical to the baseline's — which is what makes the
zero-drift byte-identity guarantee (and delta-style comparisons
between static and rescheduled runs) possible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.errors import ValidationError
from repro.util.rng import RandomSource

#: stage codes a drift event can target (§3.1 notation). Compute
#: stages are the default — io stages are dominated by the DTL model,
#: whose bandwidth drift is out of scope for this loop.
DRIFT_STAGES: Tuple[str, ...] = ("S", "W", "R", "A")

#: default stages a drift event inflates: the compute stages.
DEFAULT_DRIFT_STAGES: Tuple[str, ...] = ("S", "A")

#: default saturation of a drift event's inflation factor. The
#: placement service and the CLI build events with this cap, so both
#: refuse a step magnitude above it instead of silently running it as
#: the cap.
DEFAULT_DRIFT_CAP: float = 4.0


class DriftKind(enum.Enum):
    """The drift shapes the executor understands."""

    STEP = "step"
    RAMP = "ramp"


@dataclass(frozen=True)
class DriftEvent:
    """One node-attributed slowdown starting at ``start_step``.

    ``magnitude`` semantics depend on ``kind``: for ``STEP`` it is the
    constant inflation factor (> 1); for ``RAMP`` it is the per-step
    inflation increment (> 0). Both kinds saturate at ``cap``: a step
    magnitude above the cap runs as the cap, exactly like a ramp that
    has climbed past it.
    """

    node: int
    kind: DriftKind
    start_step: int
    magnitude: float
    cap: float = DEFAULT_DRIFT_CAP
    stages: Tuple[str, ...] = DEFAULT_DRIFT_STAGES

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValidationError(
                f"drift node must be >= 0, got {self.node}"
            )
        if self.start_step < 0:
            raise ValidationError(
                f"drift start_step must be >= 0, got {self.start_step}"
            )
        for stage in self.stages:
            if stage not in DRIFT_STAGES:
                raise ValidationError(
                    f"drift stage must be one of {DRIFT_STAGES}, "
                    f"got {stage!r}"
                )
        if self.kind is DriftKind.STEP:
            if self.magnitude <= 1.0:
                raise ValidationError(
                    f"step-drift magnitude is an inflation factor and "
                    f"must be > 1, got {self.magnitude!r}"
                )
        elif self.magnitude <= 0.0:
            raise ValidationError(
                f"ramp-drift magnitude is the per-step increment and "
                f"must be > 0, got {self.magnitude!r}"
            )
        if self.cap < 1.0:
            raise ValidationError(
                f"drift cap must be >= 1, got {self.cap!r}"
            )

    def factor_at(self, step: int) -> float:
        """The inflation this event contributes at ``step``."""
        if step < self.start_step:
            return 1.0
        if self.kind is DriftKind.STEP:
            return min(self.magnitude, self.cap)
        return min(
            1.0 + self.magnitude * (step - self.start_step + 1), self.cap
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DriftEvent({self.kind.value} @ n{self.node} from step "
            f"{self.start_step} x{self.magnitude:g})"
        )


class DriftSchedule:
    """An immutable set of drift events with per-node lookup.

    :meth:`factor` is evaluated against a component's *current* node —
    migrating a component off a drifted node restores its nominal
    stage times, which is the effect the rescheduler exploits.
    """

    def __init__(self, events: Iterable[DriftEvent] = ()) -> None:
        ordered = sorted(
            events, key=lambda e: (e.node, e.start_step, e.kind.value)
        )
        self._events: Tuple[DriftEvent, ...] = tuple(ordered)
        self._by_node: Dict[int, List[DriftEvent]] = {}
        for event in self._events:
            self._by_node.setdefault(event.node, []).append(event)

    @property
    def events(self) -> Tuple[DriftEvent, ...]:
        """All events in deterministic (node, start_step) order."""
        return self._events

    @property
    def is_empty(self) -> bool:
        return not self._events

    def __len__(self) -> int:
        return len(self._events)

    def factor(self, node: int, stage: str, step: int) -> float:
        """Combined inflation of ``stage`` on ``node`` at ``step``.

        Multiple events on one node compose multiplicatively (two
        independent co-tenants each cost their own factor).
        """
        events = self._by_node.get(node)
        if not events:
            return 1.0
        factor = 1.0
        for event in events:
            if stage in event.stages:
                factor *= event.factor_at(step)
        return factor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DriftSchedule({len(self._events)} events)"


class DriftModel:
    """Base class: compile a drift schedule for one run's geometry."""

    def build_schedule(
        self, num_nodes: int, n_steps: int
    ) -> DriftSchedule:  # pragma: no cover - interface
        raise NotImplementedError


class StaticDriftModel(DriftModel):
    """A fixed, explicit event list — the scripted-scenario model."""

    def __init__(self, events: Sequence[DriftEvent] = ()) -> None:
        self._schedule = DriftSchedule(events)

    def build_schedule(self, num_nodes: int, n_steps: int) -> DriftSchedule:
        for event in self._schedule.events:
            if event.node >= num_nodes:
                raise ValidationError(
                    f"drift event targets node {event.node} but the run "
                    f"spans {num_nodes} nodes"
                )
        return self._schedule


class RandomDriftModel(DriftModel):
    """Seeded random drift: each node independently drifts with ``rate``.

    A drifting node draws its kind uniformly from ``kinds``, its onset
    uniformly over the run, and its magnitude uniformly from
    ``magnitude_range`` (step factor) or scaled into a per-step
    increment (ramp). ``rate=0`` compiles an empty schedule, so the
    run is byte-identical to an undrifted baseline.
    """

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        kinds: Sequence[DriftKind] = (DriftKind.STEP, DriftKind.RAMP),
        magnitude_range: Tuple[float, float] = (1.5, 3.0),
        stages: Tuple[str, ...] = DEFAULT_DRIFT_STAGES,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(
                f"drift rate must lie in [0, 1], got {rate!r}"
            )
        if not kinds:
            raise ValidationError("kinds must be non-empty")
        lo, hi = magnitude_range
        if not 1.0 < lo <= hi:
            raise ValidationError(
                f"magnitude_range must satisfy 1 < lo <= hi, got "
                f"{magnitude_range!r}"
            )
        self.rate = rate
        self.seed = seed
        self.kinds = tuple(kinds)
        self.magnitude_range = (lo, hi)
        self.stages = tuple(stages)

    def build_schedule(self, num_nodes: int, n_steps: int) -> DriftSchedule:
        if self.rate == 0.0:
            return DriftSchedule()
        gen = RandomSource(self.seed, name="drift").generator
        lo, hi = self.magnitude_range
        events: List[DriftEvent] = []
        for node in range(num_nodes):
            if gen.random() >= self.rate:
                continue
            kind = self.kinds[int(gen.integers(0, len(self.kinds)))]
            start = int(gen.integers(0, max(1, n_steps)))
            factor = float(gen.uniform(lo, hi))
            if kind is DriftKind.STEP:
                magnitude = factor
            else:
                # spread the drawn factor over the remaining steps so a
                # ramp reaches roughly the same terminal inflation
                remaining = max(1, n_steps - start)
                magnitude = (factor - 1.0) / remaining
            events.append(
                DriftEvent(
                    node=node,
                    kind=kind,
                    start_step=start,
                    magnitude=magnitude,
                    cap=max(hi, 1.0),
                    stages=self.stages,
                )
            )
        return DriftSchedule(events)


def coerce_drift(
    drift: Optional[object], num_nodes: int, n_steps: int
) -> Optional[DriftSchedule]:
    """Normalize an executor ``drift=`` argument into a schedule.

    Accepts ``None``, a ready :class:`DriftSchedule`, or any
    :class:`DriftModel`; empty schedules collapse to ``None`` so the
    executor's hot path can gate on a single ``is None`` test.
    """
    if drift is None:
        return None
    if isinstance(drift, DriftSchedule):
        schedule = drift
    elif isinstance(drift, DriftModel):
        schedule = drift.build_schedule(num_nodes, n_steps)
    else:
        raise ValidationError(
            f"drift must be a DriftSchedule or DriftModel, got "
            f"{type(drift).__name__}"
        )
    return None if schedule.is_empty else schedule
