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
(:func:`~repro.runtime.effective.component_streams`), all ``2 *
n_steps`` of them in one vector call before the event loop starts.

With ``stage_real_chunks=True`` the execution additionally pushes real
(small) chunk payloads through the DTL's functional store in lockstep
with the simulated time: the W stage stages a chunk, each R stage
retrieves and verifies it, and the DTL's own no-buffering checks police
the protocol *during* the run. This mode proves the timing model and
the data path implement the same protocol.
"""

from __future__ import annotations

import functools
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Set,
)

import numpy as np

from repro.des.engine import Environment
from repro.des.events import Event
from repro.des.resources import Resource
from repro.dtl.base import DataTransportLayer
from repro.dtl.chunk import Chunk, ChunkKey
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
    component_streams,
    compute_effective_stages,
)
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.results import ExecutionResult, build_result
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import ProtocolError
from repro.util.rng import RandomSource
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
        .component_streams`). Each run reads it afresh, so one executor
        runs a set of seeded trials by setting it between runs.
    timing_noise:
        Relative half-width of per-stage multiplicative jitter, in
        [0, 1] (0 = deterministic; above 1 a draw could be negative).
        A component's factors come from one vector draw per run; only
        a congestion-aware analysis draws one scalar per stage share,
        because a remote read's draw count depends on its local share.
    stage_real_chunks:
        When True, every W/R stage also performs a real chunk
        stage/retrieve against the DTL store (small sentinel payloads),
        so protocol violations surface as failures during execution.
    congestion_aware:
        When True, the network-transport share of every remote read
        serializes on the producer node's NIC (a capacity-1 DES
        resource per node): concurrent remote reads from one node
        queue instead of proceeding in parallel. Off by default — at
        the paper's chunk sizes transport is negligible, but for large
        payloads the serialization visibly stretches R.
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
        resource/DTL conservation, Eq. 3 efficiency bounds) and
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
        allow_oversubscription: bool = False,
        stage_real_chunks: bool = False,
        congestion_aware: bool = False,
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
        self.allow_oversubscription = allow_oversubscription
        self.stage_real_chunks = stage_real_chunks
        self.congestion_aware = congestion_aware
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
        """
        if self._effective is None:
            self._effective = compute_effective_stages(
                self.spec,
                self.placement,
                self.cluster,
                self.dtl,
                allow_oversubscription=self.allow_oversubscription,
            )
        effective = self._effective
        env = Environment()
        tracer = StageTracer()
        streams = component_streams(effective, self.seed)
        nics = None
        if self.congestion_aware:
            nics = {
                node: Resource(env, capacity=1, name=f"nic-n{node}")
                for node in range(self.placement.num_nodes)
            }
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
                    and not self.congestion_aware
                    and drift is None
                )
            )

        member_procs = []
        for member in effective:
            procs = self._launch_member(
                env, bindings[member.name], tracer, streams, nics,
                injector, checker, drift, controller,
            )
            member_procs.extend(procs)
        env.run()
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
            if nics is not None:
                checker.check_resources(nics.values())
            if self.stage_real_chunks:
                checker.check_dtl(self.dtl)
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
        streams: Dict[str, RandomSource],
        nics=None,
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

        noise = self.timing_noise
        dtl = self.dtl if self.stage_real_chunks else None
        dropped: Set[str] = set()
        # two timed stages per step; a congestion-aware analysis draws
        # per read share instead, so its count is not known up front
        sim_jitter = _jitter(streams[member.simulation.name], noise, 2 * n)
        procs = [
            env.process(
                _simulation_process(
                    env, binding, tracer, sim_jitter, written, all_read,
                    dtl, injector, dropped, checker, drift, controller,
                )
            )
        ]
        for j, ana in enumerate(member.analyses):
            ana_jitter = _jitter(
                streams[ana.name], noise, 2 * n if nics is None else None
            )
            procs.append(
                env.process(
                    _analysis_process(
                        env,
                        binding,
                        j,
                        tracer,
                        ana_jitter,
                        written,
                        read_done,
                        dtl,
                        nics,
                        injector,
                        dropped,
                        checker,
                        drift,
                        controller,
                    )
                )
            )
        return procs


def _jitter(
    stream: RandomSource, noise: float, count: Optional[int]
) -> Callable[[], float]:
    """A component's next jitter factor, one call per timed draw.

    With a known ``count`` the factors come from one vector draw
    (:meth:`~repro.util.rng.RandomSource.jitter_factors`); with
    ``None`` each call draws one scalar. Both yield the same doubles
    in the same order, so ``base * factor`` is the float
    ``stream.uniform_jitter(base, noise)`` would return.
    """
    if count is None:
        return functools.partial(stream.uniform_jitter, 1.0, noise)
    return iter(stream.jitter_factors(noise, count).tolist()).__next__


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
    body=None,
    checker: Optional[InvariantChecker] = None,
    telemetry: Optional[RescheduleController] = None,
) -> Generator:
    """Run one timed stage, routing through the fault injector if any.

    The single choke point through which every S/W/R/A stage's waiting
    flows — injectors perturb here, and the invariant checker (when
    verification is on) observes each completed stage here, so the
    coupling-protocol logic in the process functions below never forks
    on either path. Without an injector (or with nothing scheduled at
    this site) the emitted event sequence is exactly the baseline's;
    the checker only reads ``env.now`` and never schedules events.
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
        if body is None:
            yield env.timeout(duration)
        else:
            yield from body(1.0)
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
        yield from injector.execute(env, ctx, body)
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
    dtl: Optional[DataTransportLayer] = None,
    injector: Optional[FaultInjector] = None,
    dropped: Optional[Set[str]] = None,
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
        if dtl is not None:
            # real-data mode: stage a sentinel payload; the DTL's
            # no-buffering check fires here if the protocol were broken.
            # Dropped (degraded) analyses no longer count as consumers.
            active = len(member.analyses) - (len(dropped) if dropped else 0)
            if active > 0:
                chunk = Chunk(
                    key=ChunkKey(producer=sim.name, step=step),
                    payload=np.array([float(step), t3], dtype=np.float64),
                    metadata={"member": member.name},
                )
                dtl.stage(
                    chunk,
                    producer_node=sim.node,
                    expected_consumers=active,
                )
        written[step].succeed(step)


def _analysis_process(
    env: Environment,
    binding,
    index: int,
    tracer: StageTracer,
    jitter: Callable[[], float],
    written: List[Event],
    read_done: List[List[Event]],
    dtl: Optional[DataTransportLayer] = None,
    nics=None,
    injector: Optional[FaultInjector] = None,
    dropped: Optional[Set[str]] = None,
    checker: Optional[InvariantChecker] = None,
    drift: Optional[DriftSchedule] = None,
    controller: Optional[RescheduleController] = None,
):
    """R -> A -> I^A per step; R_i gated on W_i.

    The effective analysis (node, stage times, NIC) is re-read through
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
            nic = (
                nics.get(ana.producer_node)
                if nics is not None and ana.transport_time > 0
                else None
            )

            def read_body(scale: float) -> Generator:
                # local share first (marshal + copy), then the network
                # transport holding the producer's NIC
                local_share = ana.io_time - ana.transport_time
                if local_share > 0:
                    yield env.timeout(local_share * jitter() * scale)
                req = nic.request(1)
                yield req
                yield env.timeout(ana.transport_time * jitter() * scale)
                nic.release(req)

            if nic is None:
                read_duration = ana.io_time * jitter()
                if drift is not None:
                    read_duration *= drift.factor(ana.node, "R", step)
                body = None
            else:
                read_duration = ana.io_time
                body = read_body
            try:
                yield from _stage(
                    env, injector, member_name, ana_name, "R", step,
                    read_duration, step_time, producer=sim_name, body=body,
                    checker=checker, telemetry=controller,
                )
            except AnalysisDropped:
                tracer.record(ana_name, Stage.ANA_READ, step, t1, env.now)
                raise
            t2 = env.now
            tracer.record(ana_name, Stage.ANA_READ, step, t1, t2)
            if dtl is not None:
                chunk = dtl.retrieve(
                    ChunkKey(producer=sim_name, step=step),
                    consumer=ana_name,
                )
                if int(chunk.payload[0]) != step:  # pragma: no cover
                    raise ProtocolError(
                        f"member {member_name!r}: {ana_name} read step "
                        f"{int(chunk.payload[0])} while expecting {step}"
                    )
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
        _retire_analysis(binding.member, index, read_done, dtl, dropped)


def _retire_analysis(
    member: EffectiveMember,
    index: int,
    read_done: List[List[Event]],
    dtl: Optional[DataTransportLayer],
    dropped: Optional[Set[str]],
) -> None:
    """Release a dropped analysis from the member's coupling protocol.

    The degraded analysis stops gating the simulation: every pending
    read barrier it owned is released, and the DTL forgets it as a
    consumer (so already-staged chunks can be reclaimed and future
    stagings expect one fewer reader).
    """
    ana = member.analyses[index]
    if dropped is not None:
        dropped.add(ana.name)
    if dtl is not None:
        dtl.forget_consumer(member.simulation.name, ana.name)
    for events in read_done:
        event = events[index]
        if not event.triggered:
            event.succeed(None)
