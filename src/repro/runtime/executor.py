"""Discrete-event execution of a workflow ensemble.

Implements the synchronous coupling protocol of §2.1/§3.1 as DES
processes over the effective stage times:

- the simulation runs ``S -> I^S -> W`` each step, where ``I^S`` waits
  until every coupled analysis has finished *reading* the previous
  step's chunk (``W_{i+1}`` strictly after all ``R_i`` — the
  no-buffering rule);
- each analysis runs ``R -> A -> I^A``, where ``R_i`` can begin only
  once ``W_i`` completed, and ``I^A`` waits for the next write.

Every stage instance is recorded into a
:class:`~repro.monitoring.tracer.StageTracer`. Optional multiplicative
timing noise (seeded) perturbs each stage instance independently,
modeling step-to-step variation; with zero noise the run is exactly
the analytic steady state after the first step. Each component draws
its factors from its own stream
(:func:`~repro.runtime.effective.component_jitter`), all ``2 *
n_steps`` of them in one vector call before the event loop starts; a
noise-free run spawns no streams.

A member process that raises (a simulation that a recovery policy
drops, say) fails :meth:`EnsembleExecutor.run` with its exception
instead of leaving a truncated trace behind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

import numpy as np

from repro.des.engine import Environment
from repro.des.events import Event
from repro.dtl.base import DataTransportLayer
from repro.dtl.dimes import InMemoryStagingDTL
from repro.faults.injector import (
    AnalysisDropped,
    FaultInjector,
    FaultLog,
    StageContext,
)
from repro.faults.models import FailureModel
from repro.faults.recovery import RecoveryPolicy
from repro.monitoring.tracer import Stage, StageTracer
from repro.platform.cluster import Cluster
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.effective import (
    EffectiveMember,
    component_jitter,
    compute_effective_stages,
)
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.results import ExecutionResult, build_result
from repro.runtime.spec import EnsembleSpec
from repro.util.validation import require_in_range

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.reschedule.controller import RescheduleController
    from repro.reschedule.drift import DriftSchedule
    from repro.reschedule.migration import MigrationRecord
    from repro.verify.invariants import InvariantChecker, InvariantReport


class _StaticBinding:
    """The no-rescheduler binding: one member, fixed for the whole run.

    The DES processes read their member through a binding cell so a
    :class:`~repro.reschedule.controller.RescheduleController` can swap
    effective stages at a step boundary. Without a controller the cell
    simply never changes — the per-step re-read returns the same
    object, so the emitted event sequence is byte-identical to the
    pre-binding executor.
    """

    __slots__ = ("member",)

    def __init__(self, member: EffectiveMember) -> None:
        self.member = member


class EnsembleExecutor:
    """Runs one workflow ensemble configuration end to end.

    Parameters
    ----------
    spec / placement:
        What to run and where.
    cluster:
        Platform model; defaults to a Cori-like allocation sized to the
        placement.
    dtl:
        Staging tier; defaults to the DIMES-like in-memory tier wired
        to the cluster.
    seed:
        Seed for the timing-noise streams (one independent stream per
        component, laid out by :func:`~repro.runtime.effective
        .component_jitter`). Each run reads it afresh, so one executor
        runs a set of seeded trials by setting it between runs.
    timing_noise:
        Relative half-width of per-stage multiplicative jitter, in
        [0, 1] (0 = deterministic; above 1 a draw could be negative).
        A component's factors come from one vector draw per run.
    failure_model:
        Optional :class:`~repro.faults.models.FailureModel`. When set,
        its fault schedule is injected into the run: every timed stage
        is routed through a :class:`~repro.faults.injector
        .FaultInjector`, which perturbs stage events without touching
        the coupling-protocol logic. A model with an empty schedule
        (e.g. rate 0) produces a byte-identical trace to no model at
        all.
    recovery:
        Recovery policy applied to injected crashes (default:
        retry with exponential backoff). Ignored without a
        ``failure_model``.
    verify:
        When True, an :class:`~repro.verify.invariants
        .InvariantChecker` audits the run at the stage choke point
        (clock monotonicity, step ordering, Eq. 1 period consistency,
        Eq. 3 efficiency bounds) and
        :meth:`run` raises :class:`~repro.verify.invariants
        .InvariantViolation` on any violation; the report is kept on
        :attr:`invariant_report` either way. The checker only *reads*
        the clock, so a verified run's trace is byte-identical to an
        unverified one; when False the only extra cost is an
        ``is None`` test per stage.
    drift:
        Optional :class:`~repro.reschedule.drift.DriftSchedule` or
        :class:`~repro.reschedule.drift.DriftModel`: node-attributed
        multiplicative slowdowns applied to stage durations *after*
        the jitter draw, so the RNG streams of a drifted run are
        identical to the baseline's. An empty schedule (e.g. rate 0)
        produces a byte-identical trace to no drift at all.
    rescheduler:
        Optional :class:`~repro.reschedule.controller
        .RescheduleController`. When set, the controller observes
        every stage at the choke point, and members adopt accepted
        re-placements (with their DTL state-transfer pause) at step
        boundaries. With zero drift the controller never fires, and
        the trace is byte-identical to a bare run.

    Examples
    --------
    One executor runs a set of seeded trials. Only its first run prices
    the placement, and every run equals a fresh executor's at its seed:

    >>> from repro.runtime.placement import pack_members_per_node
    >>> from repro.runtime.spec import EnsembleSpec, default_member
    >>> spec = EnsembleSpec("demo", (default_member("em1", n_steps=4),))
    >>> placement = pack_members_per_node(spec)
    >>> executor = EnsembleExecutor(spec, placement, timing_noise=0.02)
    >>> makespans = []
    >>> for seed in (0, 1):
    ...     executor.seed = seed
    ...     makespans.append(executor.run().ensemble_makespan)
    >>> makespans == [
    ...     EnsembleExecutor(spec, placement, seed=seed, timing_noise=0.02)
    ...     .run().ensemble_makespan
    ...     for seed in (0, 1)
    ... ]
    True
    """

    def __init__(
        self,
        spec: EnsembleSpec,
        placement: EnsemblePlacement,
        cluster: Optional[Cluster] = None,
        dtl: Optional[DataTransportLayer] = None,
        seed: Optional[int] = 0,
        timing_noise: float = 0.0,
        failure_model: Optional[FailureModel] = None,
        recovery: Optional[RecoveryPolicy] = None,
        verify: bool = False,
        drift: Optional[object] = None,
        rescheduler: Optional[RescheduleController] = None,
    ) -> None:
        require_in_range("timing_noise", timing_noise, 0.0, 1.0)
        self.spec = spec
        self.placement = placement
        self.cluster = cluster or make_cori_like_cluster(placement.num_nodes)
        self.dtl = dtl or InMemoryStagingDTL.for_platform(
            self.cluster.network, self.cluster.node_spec
        )
        self.seed = seed
        self.timing_noise = timing_noise
        self.failure_model = failure_model
        self.recovery = recovery
        self.verify = verify
        self.drift = drift
        self.rescheduler = rescheduler
        self.fault_log: Optional[FaultLog] = None
        self.invariant_report: Optional[InvariantReport] = None
        self.drift_schedule: Optional[DriftSchedule] = None
        self.migration_log: List[MigrationRecord] = []
        self._effective: Optional[List[EffectiveMember]] = None

    def run(self) -> ExecutionResult:
        """Execute the ensemble; returns the full result bundle.

        The first run prices the placement
        (:func:`~repro.runtime.effective.compute_effective_stages`) and
        every later run reuses that pricing: the spec, placement,
        cluster and DTL are fixed at construction, so a set of trials
        pays for one platform assessment. Each run draws its timing
        noise from the current :attr:`seed`.

        A member process that fails re-raises its exception here (a
        simulation that a recovery policy drops raises
        :class:`~repro.faults.injector.AnalysisDropped`) instead of
        returning a truncated run.
        """
        if self._effective is None:
            self._effective = compute_effective_stages(
                self.spec, self.placement, self.cluster, self.dtl
            )
        effective = self._effective
        env = Environment()
        tracer = StageTracer()
        jitter = component_jitter(effective, self.seed, self.timing_noise)
        injector = None
        if self.failure_model is not None:
            schedule = self.failure_model.build_schedule(self.spec)
            injector = FaultInjector(schedule, self.recovery)
            self.fault_log = injector.log
        drift = None
        if self.drift is not None:
            from repro.reschedule.drift import coerce_drift

            max_steps = max(m.n_steps for m in effective)
            drift = coerce_drift(
                self.drift, self.placement.num_nodes, max_steps
            )
        self.drift_schedule = drift
        controller = self.rescheduler
        if controller is not None:
            controller.bind_run(
                self.spec, self.placement, self.cluster, self.dtl, effective
            )
            bindings = controller.bindings
        else:
            bindings = {
                member.name: _StaticBinding(member) for member in effective
            }
        checker = None
        if self.verify:
            from repro.verify.invariants import InvariantChecker

            checker = InvariantChecker(
                exact=(
                    self.timing_noise == 0.0
                    and injector is None
                    and drift is None
                )
            )

        member_procs = []
        for member in effective:
            member_procs.extend(
                self._launch_member(
                    env, bindings[member.name], tracer, jitter,
                    injector, checker, drift, controller,
                )
            )
        env.run()
        # a process that raises ends inside the event loop, which
        # carries on without it
        for proc in member_procs:
            if proc.triggered and not proc.ok:
                proc.value  # re-raises the exception the process died of
        self.migration_log = (
            list(controller.migration_log) if controller is not None else []
        )

        result = build_result(
            spec=self.spec,
            placement=self.placement,
            effective=effective,
            tracer=tracer,
            cluster=self.cluster,
            seed=self.seed,
            noise=self.timing_noise,
            fault_log=self.fault_log,
        )
        if checker is not None:
            from repro.verify.invariants import InvariantViolation

            checker.check_periods()
            checker.check_result(result)
            self.invariant_report = checker.report()
            if not self.invariant_report.passed:
                raise InvariantViolation(self.invariant_report.to_text())
        return result

    # -- process construction ---------------------------------------------------
    def _launch_member(
        self,
        env: Environment,
        binding,
        tracer: StageTracer,
        jitter: Dict[str, np.ndarray],
        injector: Optional[FaultInjector] = None,
        checker: Optional[InvariantChecker] = None,
        drift: Optional[DriftSchedule] = None,
        controller: Optional[RescheduleController] = None,
    ):
        member = binding.member
        n = member.n_steps
        written: List[Event] = [env.event() for _ in range(n)]
        read_done: List[List[Event]] = [
            [env.event() for _ in member.analyses] for _ in range(n)
        ]
        all_read: List[Event] = [env.all_of(evs) for evs in read_done]

        # each process takes its component's next factor per timed stage
        procs = [
            env.process(
                _simulation_process(
                    env, binding, tracer,
                    iter(jitter[member.simulation.name].tolist()).__next__,
                    written, all_read, injector, checker, drift, controller,
                )
            )
        ]
        for j, ana in enumerate(member.analyses):
            procs.append(
                env.process(
                    _analysis_process(
                        env, binding, j, tracer,
                        iter(jitter[ana.name].tolist()).__next__,
                        written, read_done, injector, checker, drift,
                        controller,
                    )
                )
            )
        return procs


def _stage(
    env: Environment,
    injector: Optional[FaultInjector],
    member_name: str,
    component: str,
    stage: str,
    step: int,
    duration: float,
    step_time: float,
    producer: Optional[str] = None,
    checker: Optional[InvariantChecker] = None,
    telemetry: Optional[RescheduleController] = None,
) -> Generator:
    """Run one timed stage, routing through the fault injector if any.

    The single choke point through which every S/W/R/A stage's waiting
    flows — injectors perturb here, and the invariant checker (when
    verification is on) observes each completed stage here, so the
    coupling-protocol logic in the process functions below never forks
    on either path. Without an injector (or with nothing scheduled at
    this site) a stage is one timeout of ``duration``; the checker
    only reads ``env.now`` and never schedules events.
    The telemetry hook (the rescheduling controller) likewise never
    touches the environment: it sees each stage's nominal duration and
    step time and reacts in zero DES time.
    """
    if telemetry is not None:
        telemetry.observe(
            member_name, component, stage, step, duration, step_time
        )
    start = env.now if checker is not None else 0.0
    if injector is None:
        yield env.timeout(duration)
    else:
        ctx = StageContext(
            member=member_name,
            component=component,
            stage=stage,
            step=step,
            duration=duration,
            step_time=step_time,
            producer=producer,
        )
        yield from injector.execute(env, ctx)
    if checker is not None:
        checker.observe_stage(
            member_name, component, stage, step, start, env.now, duration
        )


def _simulation_process(
    env: Environment,
    binding,
    tracer: StageTracer,
    jitter: Callable[[], float],
    written: List[Event],
    all_read: List[Event],
    injector: Optional[FaultInjector] = None,
    checker: Optional[InvariantChecker] = None,
    drift: Optional[DriftSchedule] = None,
    controller: Optional[RescheduleController] = None,
):
    """S -> I^S -> W per step, enforcing W_{i+1} after all R_i.

    The member's effective stages are re-read through ``binding`` at
    every step boundary: a migration swaps the binding there (and only
    there), so each step's stages come from one consistent placement.
    Without a controller the binding never changes and the re-read is
    float-identical to the hoisted original.
    """
    member = binding.member
    member_name = member.name
    n_steps = member.n_steps
    for step in range(n_steps):
        if controller is not None:
            delay = controller.begin_step(member_name, step)
            if delay > 0.0:
                pause_start = env.now
                yield env.timeout(delay)
                controller.note_migrated(
                    member_name, step, pause_start, env.now
                )
                if checker is not None:
                    checker.note_migration(
                        member_name, step, delay, pause_start, env.now
                    )
            member = binding.member
        sim = member.simulation
        step_time = sim.compute_time + sim.io_time
        s_duration = sim.compute_time * jitter()
        if drift is not None:
            s_duration *= drift.factor(sim.node, "S", step)
        t0 = env.now
        yield from _stage(
            env, injector, member_name, sim.name, "S", step,
            s_duration, step_time,
            checker=checker, telemetry=controller,
        )
        t1 = env.now
        tracer.record(sim.name, Stage.SIM_COMPUTE, step, t0, t1)

        if step > 0 and not all_read[step - 1].triggered:
            yield all_read[step - 1]
        t2 = env.now
        tracer.record(sim.name, Stage.SIM_IDLE, step, t1, t2)

        w_duration = sim.io_time * jitter()
        if drift is not None:
            w_duration *= drift.factor(sim.node, "W", step)
        yield from _stage(
            env, injector, member_name, sim.name, "W", step,
            w_duration, step_time,
            checker=checker, telemetry=controller,
        )
        t3 = env.now
        tracer.record(sim.name, Stage.SIM_WRITE, step, t2, t3)
        written[step].succeed(step)


def _analysis_process(
    env: Environment,
    binding,
    index: int,
    tracer: StageTracer,
    jitter: Callable[[], float],
    written: List[Event],
    read_done: List[List[Event]],
    injector: Optional[FaultInjector] = None,
    checker: Optional[InvariantChecker] = None,
    drift: Optional[DriftSchedule] = None,
    controller: Optional[RescheduleController] = None,
):
    """R -> A -> I^A per step; R_i gated on W_i.

    The effective analysis (node and stage times) is re-read through
    ``binding`` after the ``written[step]`` gate fires — by then the
    member's simulation has already begun this step, so any migration
    adopted at the step boundary is visible here before the step's R
    stage prices itself. Without a controller the re-read returns the
    same object every step.
    """
    member = binding.member
    member_name = member.name
    ana_name = member.analyses[index].name
    sim_name = member.simulation.name
    n_steps = member.n_steps
    try:
        for step in range(n_steps):
            wait_start = env.now
            if not written[step].triggered:
                yield written[step]
            t1 = env.now
            if step > 0:
                # the wait that just ended is the *previous* step's I^A
                tracer.record(
                    ana_name, Stage.ANA_IDLE, step - 1, wait_start, t1
                )

            member = binding.member
            ana = member.analyses[index]
            step_time = ana.io_time + ana.compute_time
            read_duration = ana.io_time * jitter()
            if drift is not None:
                read_duration *= drift.factor(ana.node, "R", step)
            try:
                yield from _stage(
                    env, injector, member_name, ana_name, "R", step,
                    read_duration, step_time, producer=sim_name,
                    checker=checker, telemetry=controller,
                )
            except AnalysisDropped:
                tracer.record(ana_name, Stage.ANA_READ, step, t1, env.now)
                raise
            t2 = env.now
            tracer.record(ana_name, Stage.ANA_READ, step, t1, t2)
            read_done[step][index].succeed(step)

            a_duration = ana.compute_time * jitter()
            if drift is not None:
                a_duration *= drift.factor(ana.node, "A", step)
            try:
                yield from _stage(
                    env, injector, member_name, ana_name, "A", step,
                    a_duration, step_time,
                    checker=checker, telemetry=controller,
                )
            except AnalysisDropped:
                tracer.record(ana_name, Stage.ANA_COMPUTE, step, t2, env.now)
                raise
            t3 = env.now
            tracer.record(ana_name, Stage.ANA_COMPUTE, step, t2, t3)
        # the final step has no subsequent write to wait for
        tracer.record(
            ana_name, Stage.ANA_IDLE, n_steps - 1, env.now, env.now
        )
    except AnalysisDropped:
        _retire_analysis(index, read_done)


def _retire_analysis(index: int, read_done: List[List[Event]]) -> None:
    """Release a dropped analysis from the member's coupling protocol.

    The degraded analysis stops gating the simulation: every pending
    read barrier it owned is released.
    """
    for events in read_done:
        event = events[index]
        if not event.triggered:
            event.succeed(None)
