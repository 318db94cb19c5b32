"""The online rescheduling loop: measure → detect → re-plan → migrate.

:class:`RescheduleController` is the object the executor carries
through a run. It sits on two hooks:

- ``observe`` — called from the executor's ``_stage`` choke point for
  every scheduled stage instance with its ``(member, component,
  stage, step, duration, step_time)`` tuple. The controller folds the
  observed/modeled ratio into its
  :class:`~repro.reschedule.telemetry.TelemetryFeed` and
  :class:`~repro.reschedule.detector.DriftDetector`; when the detector
  fires, the :class:`~repro.reschedule.replanner.Replanner` runs
  *synchronously* (in zero DES time) and, past the migration-cost
  gate, a pending re-placement is staged;
- ``begin_step`` — called by each simulation process at the top of
  every step. A member with a staged re-placement adopts it here — at
  a step boundary, never mid-stage: its
  :class:`~repro.reschedule.migration.MemberBinding` is swapped to the
  new effective stages and the member pauses for its share of the
  state-transfer delay (the DTL put/get price of its moved
  components), charged in DES time.

Neither hook touches the DES :class:`~repro.des.engine.Environment` or
draws from the executor's RNG streams, so a run with the controller
attached and *no drift* is byte-identical to a bare run — the detector
cannot fire on exact 1.0 ratios, so no binding is ever swapped.

:class:`ScriptedMigration` bypasses detection and the gate entirely:
it forces a migration to a given placement at a given step, which is
how the invariant tests drive *exact-mode* (noise-free, drift-free)
runs through real migrations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.reschedule.detector import DriftDetector
from repro.reschedule.migration import (
    ComponentMove,
    MemberBinding,
    MigrationRecord,
    bindings_for,
)
from repro.reschedule.replanner import Replanner, ReplanDecision
from repro.reschedule.telemetry import (
    TELEMETRY_STAGES,
    StageObservation,
    TelemetryFeed,
)
from repro.runtime.effective import compute_effective_stages
from repro.util.errors import ValidationError
from repro.util.registry import count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dtl.base import DataTransportLayer
    from repro.platform.cluster import Cluster
    from repro.runtime.effective import EffectiveMember
    from repro.runtime.placement import EnsemblePlacement
    from repro.runtime.spec import EnsembleSpec

@dataclass(frozen=True)
class ScriptedMigration:
    """Force a migration to ``placement`` when any member begins ``step``."""

    step: int
    placement: "EnsemblePlacement"

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValidationError(
                f"scripted migrations adopt at a step boundary and need "
                f"step >= 1, got {self.step}"
            )


class _PendingSwap:
    """One member's staged re-placement awaiting its step boundary."""

    __slots__ = ("member", "delay", "moves")

    def __init__(
        self,
        member: "EffectiveMember",
        delay: float,
        moves: Tuple[ComponentMove, ...],
    ) -> None:
        self.member = member
        self.delay = delay
        self.moves = moves


class RescheduleController:
    """Close the loop: telemetry in, migrations out.

    Construct with policy knobs only; the executor binds the run
    geometry via :meth:`bind_run` before the DES starts.

    Parameters
    ----------
    window / threshold / hysteresis / min_dwell:
        Detector configuration (see :class:`DriftDetector`); ``window``
        also sizes the telemetry feed's rolling per-node windows.
    min_gain:
        Net DES-seconds a candidate must save, after paying its
        migration bill, to be adopted.
    max_migrations:
        Migration waves allowed per run (thrash guard).
    use_annealer / annealer_seed / annealer_plateau:
        Warm-started annealing inside the re-planner.
    scripted:
        Forced migrations (tests/benchmarks); detection is disabled
        when any are given.
    """

    def __init__(
        self,
        window: int = 4,
        threshold: float = 1.25,
        hysteresis: float = 0.5,
        min_dwell: int = 4,
        min_gain: float = 0.0,
        max_migrations: int = 4,
        use_annealer: bool = True,
        annealer_seed: int = 0,
        annealer_plateau: int = 30,
        scripted: Sequence[ScriptedMigration] = (),
    ) -> None:
        self.window = window
        self.threshold = threshold
        self.hysteresis = hysteresis
        self.min_dwell = min_dwell
        self.min_gain = min_gain
        self.max_migrations = max_migrations
        self.use_annealer = use_annealer
        self.annealer_seed = annealer_seed
        self.annealer_plateau = annealer_plateau
        self.scripted = tuple(
            sorted(scripted, key=lambda event: event.step)
        )
        # per-run state (populated by bind_run)
        self.bindings: Dict[str, MemberBinding] = {}
        self.telemetry = TelemetryFeed(window=window)
        self.detector = DriftDetector(
            window=window,
            threshold=threshold,
            hysteresis=hysteresis,
            min_dwell=min_dwell,
        )
        self.migration_log: List[MigrationRecord] = []
        self.replans_triggered = 0
        self.replans_accepted = 0
        self.replans_rejected = 0
        self.migrations_executed = 0
        self.components_moved = 0
        self.last_decision: Optional[ReplanDecision] = None
        self._spec: Optional["EnsembleSpec"] = None
        self._cluster: Optional["Cluster"] = None
        self._dtl: Optional["DataTransportLayer"] = None
        self._replanner: Optional[Replanner] = None
        self._current_placement: Optional["EnsemblePlacement"] = None
        self._component_info: Dict[str, Tuple[str, Optional[int]]] = {}
        self._n_steps: Dict[str, int] = {}
        self._current_step: Dict[str, int] = {}
        self._pending: Dict[str, _PendingSwap] = {}
        self._last_moves: Dict[str, Tuple[int, Tuple[ComponentMove, ...], float]] = {}
        self._scripted_cursor = 0
        self._cooldown_until = 0

    # -- run binding ----------------------------------------------------------
    def bind_run(
        self,
        spec: "EnsembleSpec",
        placement: "EnsemblePlacement",
        cluster: "Cluster",
        dtl: "DataTransportLayer",
        effective: Sequence["EffectiveMember"],
    ) -> None:
        """Attach one run's geometry; called by the executor pre-DES."""
        self._spec = spec
        self._cluster = cluster
        self._dtl = dtl
        self._current_placement = placement
        self._replanner = Replanner(
            spec,
            cluster,
            dtl,
            cores_per_node=cluster.node_spec.cores,
            use_annealer=self.use_annealer,
            annealer_seed=self.annealer_seed,
            annealer_plateau=self.annealer_plateau,
            min_gain=self.min_gain,
        )
        self.bindings = bindings_for(effective)
        self._component_info = {}
        self._n_steps = {}
        self._current_step = {}
        for member in spec.members:
            self._n_steps[member.name] = member.n_steps
            self._current_step[member.name] = 0
            self._component_info[member.simulation.name] = (member.name, None)
            for j, ana in enumerate(member.analyses):
                self._component_info[ana.name] = (member.name, j)
        self._pending = {}
        self._last_moves = {}
        self._scripted_cursor = 0
        self._cooldown_until = 0
        self.migration_log = []
        self.last_decision = None
        count("reschedule", "runs")

    @property
    def placement(self) -> Optional["EnsemblePlacement"]:
        """The placement the ensemble is (or will be) running under."""
        return self._current_placement

    # -- the _stage hook ------------------------------------------------------
    def observe(
        self,
        member_name: str,
        component: str,
        stage: str,
        step: int,
        duration: float,
        step_time: float,
    ) -> None:
        """Telemetry + detection; runs the re-planner on an alert.

        Reads only the arguments — never the DES clock, never the
        executor's RNG — so observing is trace-invisible.
        """
        info = self._component_info.get(component)
        if info is None:  # pragma: no cover - defensive
            return
        owner, index = info
        bound = self.bindings[owner].member
        model = (
            bound.simulation if index is None else bound.analyses[index]
        )
        modeled = (
            model.compute_time if stage in ("S", "A") else model.io_time
        )
        observation = StageObservation(
            member=member_name,
            component=component,
            stage=stage,
            step=step,
            node=model.node,
            observed=duration,
            modeled=modeled,
        )
        self.telemetry.observe(observation)
        if self.scripted or stage not in TELEMETRY_STAGES:
            return
        if self._pending or self.migrations_executed >= self.max_migrations:
            return
        if step < self._cooldown_until:
            return
        alert = self.detector.observe(model.node, observation.ratio, step)
        if alert is not None:
            self._attempt_replan(step)

    # -- the step-boundary hook ----------------------------------------------
    def begin_step(self, member_name: str, step: int) -> float:
        """Adopt any staged re-placement; return this member's pause.

        Called by the member's simulation process at the top of every
        step. The returned delay (0.0 almost always) is the member's
        share of the state-transfer bill; the executor charges it as a
        DES timeout *before* the step's S stage.
        """
        self._current_step[member_name] = step
        self._maybe_trigger_scripted(step)
        pending = self._pending.pop(member_name, None)
        if pending is None:
            return 0.0
        self.bindings[member_name].rebind(pending.member)
        if pending.moves:
            self.migrations_executed += 1
            self.components_moved += len(pending.moves)
            count("reschedule", "migrations")
            count("reschedule", "components_moved", len(pending.moves))
        self._last_moves[member_name] = (step, pending.moves, pending.delay)
        return pending.delay

    def note_migrated(
        self, member_name: str, step: int, start: float, end: float
    ) -> MigrationRecord:
        """Record the executed pause (the executor supplies the clocks)."""
        noted_step, moves, delay = self._last_moves.pop(member_name)
        record = MigrationRecord(
            member=member_name,
            step=noted_step,
            moves=moves,
            delay=delay,
            start=start,
            end=end,
        )
        self.migration_log.append(record)
        return record

    # -- re-planning ----------------------------------------------------------
    def _remaining_steps(self) -> Dict[str, int]:
        return {
            name: max(0, self._n_steps[name] - self._current_step[name])
            for name in self._n_steps
        }

    def _attempt_replan(self, step: int) -> None:
        assert self._replanner is not None
        self.replans_triggered += 1
        count("reschedule", "replans_triggered")
        slowdown = self.telemetry.slowdown_factors(
            self._current_placement.num_nodes
        )
        decision = self._replanner.replan(
            self._current_placement,
            slowdown,
            self._remaining_steps(),
        )
        self.last_decision = decision
        self._cooldown_until = step + self.min_dwell
        if not decision.accepted:
            self.replans_rejected += 1
            return
        self.replans_accepted += 1
        count("reschedule", "replans_accepted")
        self._stage_pending(decision.placement, decision.plan)

    def _maybe_trigger_scripted(self, step: int) -> None:
        while (
            self._scripted_cursor < len(self.scripted)
            and self.scripted[self._scripted_cursor].step <= step
        ):
            event = self.scripted[self._scripted_cursor]
            self._scripted_cursor += 1
            assert self._replanner is not None
            plan = self._replanner.cost_model.plan_moves(
                self._spec, self._current_placement, event.placement
            )
            self._stage_pending(event.placement, plan)

    def _stage_pending(self, placement: "EnsemblePlacement", plan) -> None:
        """Stage a re-placement: every member adopts at its next boundary.

        All members re-bind (a move changes node contention for
        everyone), but only members whose own components moved pay a
        transfer delay.
        """
        effective = compute_effective_stages(
            self._spec, placement, self._cluster, self._dtl
        )
        self._pending = {
            member.name: _PendingSwap(
                member=member,
                delay=plan.member_cost(member.name),
                moves=plan.member_moves(member.name),
            )
            for member in effective
        }
        self._current_placement = placement
        # the load everyone sees just changed: stale windows would
        # either mask new drift or re-alarm on pre-migration history
        self.telemetry.reset()
        for node in range(placement.num_nodes):
            self.detector.reset_node(node)

    # -- reporting ------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready counters for the CLI / service payloads."""
        return {
            "replans_triggered": self.replans_triggered,
            "replans_accepted": self.replans_accepted,
            "replans_rejected": self.replans_rejected,
            "migrations": self.migrations_executed,
            "components_moved": self.components_moved,
            "alerts": len(self.detector.alerts),
            "observations": self.telemetry.observations,
            "migration_records": [
                {
                    "member": record.member,
                    "step": record.step,
                    "delay": record.delay,
                    "moves": [
                        {
                            "component": move.component,
                            "from_node": move.from_node,
                            "to_node": move.to_node,
                            "cost": move.cost,
                        }
                        for move in record.moves
                    ],
                }
                for record in self.migration_log
            ],
        }
