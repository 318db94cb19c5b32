"""Batched fault replication: delta-replay robust DES scoring.

Robust ranking (:mod:`repro.scheduler.robust`) scores each candidate
placement by running ``trials`` full injected DES executions plus one
failure-free reference — re-simulating the whole ensemble from scratch
for every fault replica. This module replaces the per-replica
re-simulation with *delta replay*:

1. :func:`capture_timeline` runs the fault-free DES **once** per
   candidate with a :class:`~repro.runtime.executor.TimelineRecorder`
   attached at the ``_stage`` choke point, capturing every stage
   instance's nominal (noise-jittered) duration as a compact numeline
   — per-member, per-stage numpy arrays;
2. :func:`replay_schedules` scores each fault replica by replaying its
   :class:`~repro.faults.models.FaultSchedule` against that baseline:
   the coupling recurrence (S -> gate on all reads -> W; R gated on W;
   A after R) is advanced with vectorized float64 arithmetic across
   the replica axis, and the sparse set of faulted stage instances is
   patched with a scalar replay of the injector's exact operation
   sequence (stall delays, straggler scaling, crash burn + recovery
   delay in schedule order).

Because the DES clock only ever *adds* timeout durations to the
current time and *maxes* event times, replaying the same additions at
the same absolute times reproduces every float bit for bit: for the
stateless built-in policies (retry, restart, degrade) the batched
robust score **equals** the serial score exactly — not approximately —
which the differential-oracle tier in :mod:`repro.verify.oracles` and
the hypothesis suite in ``tests/faults/test_batched.py`` assert.
:class:`~repro.faults.recovery.AdaptiveRecoveryPolicy` is
order-dependent (its budget drains in global event order, which replay
approximates member-by-member), so it is scored within a tolerance
band instead — see :func:`replay_tier`.

Replica seeds come from :func:`repro.util.rng.derive_replica_seed`,
shared with the serial path. With common random numbers (the default)
replica ``i`` sees the *same* fault draws for every candidate, so
candidate comparisons are paired and the fault schedules are sampled
once per ranking call instead of once per candidate.

Examples
--------
The batched score is bit-identical to the serial DES score:

>>> from repro.faults.models import RandomFailureModel
>>> from repro.faults.recovery import RetryBackoffPolicy
>>> from repro.runtime.placement import pack_members_per_node
>>> from repro.runtime.spec import EnsembleSpec, default_member
>>> spec = EnsembleSpec("demo", (default_member("em1", n_steps=6),))
>>> placement = pack_members_per_node(spec)
>>> factory = lambda seed: RandomFailureModel(rate=0.4, seed=seed)
>>> fast = batched_score_placement(
...     spec, placement, factory, RetryBackoffPolicy(), trials=3)
>>> from repro.scheduler.robust import robust_score_placement
>>> slow = robust_score_placement(
...     spec, placement, factory, RetryBackoffPolicy(), trials=3)
>>> (fast.objective, fast.mean_inflation) == \
(slow.objective, slow.mean_inflation)
True
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.indicators import (
    FINAL_STAGE_ORDER,
    MemberMeasurement,
    apply_stages,
)
from repro.core.objective import objective_function
from repro.core.stages import (
    AnalysisStages,
    MemberStages,
    SimulationStages,
)
from repro.dtl.base import DataTransportLayer
from repro.faults.injector import AnalysisDropped, StageContext
from repro.faults.models import CHUNK_KINDS, FaultKind, FaultSchedule
from repro.faults.recovery import (
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RecoveryPolicy,
    RetryBackoffPolicy,
)
from repro.platform.cluster import Cluster
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import ValidationError
from repro.util.rng import derive_replica_seed
from repro.util.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scheduler.robust import ModelFactory, RobustScore


# -- engine counters ---------------------------------------------------------
# Module-global so the service's /stats endpoint and bench tooling can
# report how much replay work the engine has done without threading a
# stats object through every call.

_COUNTER_LOCK = threading.Lock()
_counters: Dict[str, int] = {
    "baseline_sims": 0,
    "replicas_replayed": 0,
}


def engine_counters() -> Dict[str, int]:
    """A snapshot of the batched engine's work counters.

    ``baseline_sims`` counts fault-free timeline captures and
    ``replicas_replayed`` the fault replicas scored by delta replay.
    """
    with _COUNTER_LOCK:
        return dict(_counters)


def reset_engine_counters() -> None:
    """Zero the counters (tests and benchmarks isolate runs with this)."""
    with _COUNTER_LOCK:
        _counters["baseline_sims"] = 0
        _counters["replicas_replayed"] = 0


def _tally(baseline: int = 0, replicas: int = 0) -> None:
    with _COUNTER_LOCK:
        _counters["baseline_sims"] += baseline
        _counters["replicas_replayed"] += replicas


def replay_tier(policy: RecoveryPolicy) -> str:
    """How faithfully delta replay reproduces a policy's serial score.

    ``"exact"`` policies are stateless functions of the crash site and
    attempt count, so replay applies the identical recovery delays at
    the identical times and the batched score equals the serial score
    bit for bit. ``"banded"`` policies carry cross-site state consulted
    in global event order (the adaptive budget), which replay visits
    member-by-member instead — scores agree within the oracle's
    ``batched_adaptive`` tolerance band, not exactly.

    Examples
    --------
    >>> from repro.faults.recovery import (AdaptiveRecoveryPolicy,
    ...                                    DropAnalysisPolicy,
    ...                                    RetryBackoffPolicy)
    >>> replay_tier(RetryBackoffPolicy())
    'exact'
    >>> replay_tier(DropAnalysisPolicy())
    'exact'
    >>> replay_tier(AdaptiveRecoveryPolicy())
    'banded'
    """
    if type(policy) in (RetryBackoffPolicy, CheckpointRestartPolicy):
        return "exact"
    if type(policy) is DropAnalysisPolicy:
        return replay_tier(policy.fallback)
    return "banded"


# -- the captured numeline ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class MemberTimeline:
    """One member's fault-free baseline as per-stage duration arrays.

    Durations are the *nominal* values handed to the ``_stage`` choke
    point (noise jitter already applied) — exactly what the injector's
    body would wait in a faulted run, which is what makes the replay's
    timeline edits exact.
    """

    name: str
    sim_name: str
    analysis_names: Tuple[str, ...]
    n_steps: int
    sim_compute: np.ndarray  # (n,) S durations per step
    sim_write: np.ndarray  # (n,) W durations per step
    ana_read: np.ndarray  # (K, n) R durations per analysis per step
    ana_compute: np.ndarray  # (K, n) A durations per analysis per step
    sim_step_time: float
    ana_step_times: Tuple[float, ...]
    total_cores: int
    placement_sets: tuple


@dataclass(frozen=True, eq=False)
class StageTimeline:
    """A candidate's full baseline numeline plus its reference scores."""

    spec_name: str
    members: Tuple[MemberTimeline, ...]
    num_nodes: int
    ideal_objective: float  # failure-free DES F(P^{U,A,P})
    baseline_makespan: float
    total_steps: int


@dataclass(frozen=True)
class ReplayOutcome:
    """Per-replica scores from one :func:`replay_schedules` call."""

    objectives: Tuple[float, ...]
    makespans: Tuple[float, ...]
    inflations: Tuple[float, ...]
    goodputs: Tuple[float, ...]


def capture_timeline(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    seed: Optional[int] = 0,
    timing_noise: float = 0.0,
) -> StageTimeline:
    """Run the fault-free DES once and distill it into a numeline.

    The run is byte-identical to the serial scorer's baseline run (the
    recorder never touches the clock), so ``ideal_objective`` and
    ``baseline_makespan`` match the serial path's reference values
    exactly.
    """
    # deferred: the executor module imports the faults submodules this
    # package loads before this one, so a top-level import would cycle.
    from repro.runtime.executor import EnsembleExecutor, TimelineRecorder

    recorder = TimelineRecorder()
    executor = EnsembleExecutor(
        spec=spec,
        placement=placement,
        cluster=cluster,
        dtl=dtl,
        seed=seed,
        timing_noise=timing_noise,
        timeline_recorder=recorder,
    )
    result = executor.run()

    durations: Dict[Tuple[str, str], Dict[int, float]] = {}
    step_times: Dict[str, float] = {}
    for _member, component, stage, step, duration, step_time in (
        recorder.records
    ):
        durations.setdefault((component, stage), {})[step] = duration
        step_times[component] = step_time

    members: List[MemberTimeline] = []
    for member, mp in zip(spec.members, placement.members):
        n = member.n_steps
        sim_name = member.simulation.name
        ana_names = tuple(a.name for a in member.analyses)
        members.append(
            MemberTimeline(
                name=member.name,
                sim_name=sim_name,
                analysis_names=ana_names,
                n_steps=n,
                sim_compute=np.array(
                    [durations[(sim_name, "S")][t] for t in range(n)]
                ),
                sim_write=np.array(
                    [durations[(sim_name, "W")][t] for t in range(n)]
                ),
                ana_read=np.array(
                    [
                        [durations[(a, "R")][t] for t in range(n)]
                        for a in ana_names
                    ]
                ),
                ana_compute=np.array(
                    [
                        [durations[(a, "A")][t] for t in range(n)]
                        for a in ana_names
                    ]
                ),
                sim_step_time=step_times[sim_name],
                ana_step_times=tuple(step_times[a] for a in ana_names),
                total_cores=member.total_cores,
                placement_sets=mp.to_placement_sets(),
            )
        )
    _tally(baseline=1)
    return StageTimeline(
        spec_name=spec.name,
        members=tuple(members),
        num_nodes=placement.num_nodes,
        ideal_objective=result.objective(FINAL_STAGE_ORDER),
        baseline_makespan=result.ensemble_makespan,
        total_steps=sum(m.n_steps for m in spec.members),
    )


# -- replica replay ----------------------------------------------------------


def _compile_replica(schedule: FaultSchedule) -> Tuple[dict, dict]:
    """Index one replica's schedule for per-site lookup during replay."""
    site_map: Dict[Tuple[str, int, str], Tuple] = {}
    chunk_map: Dict[Tuple[str, int], Tuple] = {}
    for ev in schedule.events:
        if ev.kind in CHUNK_KINDS:
            key = (ev.component, ev.step)
            if key not in chunk_map:
                chunk_map[key] = schedule.chunk_events_for(*key)
        else:
            skey = (ev.component, ev.step, ev.stage)
            if skey not in site_map:
                site_map[skey] = schedule.events_for(*skey)
    return site_map, chunk_map


def _apply_site(
    start: float,
    duration: float,
    site: Tuple,
    chunk: Tuple,
    policy: RecoveryPolicy,
    ctx: StageContext,
) -> Tuple[float, bool]:
    """Replay one faulted stage instance; returns (end time, dropped).

    Mirrors :meth:`~repro.faults.injector.FaultInjector.execute`
    operation for operation — every addition the injector's timeouts
    would perform happens here on the same absolute time in the same
    order, so the returned end time is the float the DES clock would
    hold. Costs are never pre-summed (float addition is not
    associative).
    """
    now = start
    scale = 1.0
    for ev in site:
        if ev.kind is FaultKind.STALL:
            if ev.magnitude > 0:
                now += ev.magnitude
        elif ev.kind is FaultKind.STRAGGLER:
            scale *= ev.magnitude
    attempt = 0
    for ev in site:
        if ev.kind is not FaultKind.CRASH:
            continue
        for _ in range(ev.repeats):
            lost = ctx.duration * scale * ev.magnitude
            if lost > 0:
                now += lost
            action = policy.on_crash(ctx, attempt)
            attempt += 1
            if action.mode == "drop":
                return now, True
            if action.delay > 0:
                now += action.delay
    now += duration * scale
    for ev in chunk:
        if ev.magnitude > 0:
            now += ev.magnitude
        now += duration * scale
    return now, False


@dataclass(eq=False)
class _MemberReplay:
    """One member's replayed timelines across all replicas."""

    dur_S: np.ndarray  # (R, n)
    dur_W: np.ndarray  # (R, n)
    dur_R: np.ndarray  # (K, R, n)
    dur_A: np.ndarray  # (K, R, n)
    makespan: np.ndarray  # (R,)
    r_len: np.ndarray  # (K, R) valid ANA_READ samples per replica
    a_len: np.ndarray  # (K, R) valid ANA_COMPUTE samples per replica


def _replay_member(
    mt: MemberTimeline,
    compiled: Sequence[Tuple[dict, dict]],
    policies: Sequence[RecoveryPolicy],
) -> _MemberReplay:
    """Advance one member's coupling recurrence across all replicas.

    The fault-free recurrence is vectorized over the replica axis;
    the (replica, stage instance) pairs a schedule actually touches
    are recomputed scalar-exactly via :func:`_apply_site`.
    """
    R = len(compiled)
    n = mt.n_steps
    K = len(mt.analysis_names)
    ana_index = {name: j for j, name in enumerate(mt.analysis_names)}

    # which replicas need a scalar override at each stage instance
    s_over: List[List[int]] = [[] for _ in range(n)]
    w_over: List[List[int]] = [[] for _ in range(n)]
    r_over: List[List[Set[int]]] = [
        [set() for _ in range(n)] for _ in range(K)
    ]
    a_over: List[List[List[int]]] = [
        [[] for _ in range(n)] for _ in range(K)
    ]
    for r, (site_map, chunk_map) in enumerate(compiled):
        for component, step, stage in site_map:
            if step >= n:
                continue
            if component == mt.sim_name:
                if stage == "S":
                    s_over[step].append(r)
                elif stage == "W":
                    w_over[step].append(r)
            elif component in ana_index:
                j = ana_index[component]
                if stage == "R":
                    r_over[j][step].add(r)
                elif stage == "A":
                    a_over[j][step].append(r)
        for producer, step in chunk_map:
            if producer == mt.sim_name and step < n:
                for j in range(K):
                    r_over[j][step].add(r)

    simT = np.zeros(R)
    anaT = np.zeros((K, R))
    allread = np.zeros(R)
    dropped = np.zeros((K, R), dtype=bool)
    drop_time = np.zeros((K, R))
    drop_in_read = np.zeros((K, R), dtype=bool)
    drop_step = np.full((K, R), -1, dtype=np.int64)
    dur_S = np.empty((R, n))
    dur_W = np.empty((R, n))
    dur_R = np.empty((K, R, n))
    dur_A = np.empty((K, R, n))
    contribs = np.empty((K, R))

    def _sim_stage(stage: str, t: int, nominal: float, start: np.ndarray,
                   overrides: List[int]) -> np.ndarray:
        end = start + nominal
        if overrides:
            ctx = StageContext(
                member=mt.name,
                component=mt.sim_name,
                stage=stage,
                step=t,
                duration=float(nominal),
                step_time=mt.sim_step_time,
            )
            key = (mt.sim_name, t, stage)
            for r in overrides:
                site = compiled[r][0].get(key, ())
                e, drop = _apply_site(
                    float(start[r]), float(nominal), site, (),
                    policies[r], ctx,
                )
                if drop:
                    # matches the serial run, where a simulation drop
                    # propagates out of env.run()
                    raise AnalysisDropped(mt.sim_name, t)
                end[r] = e
        return end

    for t in range(n):
        # S
        start = simT
        end = _sim_stage("S", t, mt.sim_compute[t], start, s_over[t])
        dur_S[:, t] = end - start
        simT = end
        # I^S: gate on the previous step's reads
        if t > 0:
            simT = np.maximum(simT, allread)
        # W
        start = simT
        end = _sim_stage("W", t, mt.sim_write[t], start, w_over[t])
        dur_W[:, t] = end - start
        simT = end
        w_end = simT

        for j in range(K):
            ana = mt.analysis_names[j]
            # R (gated on W of this step)
            startR = np.maximum(anaT[j], w_end)
            endR = startR + mt.ana_read[j, t]
            if r_over[j][t]:
                ctx = StageContext(
                    member=mt.name,
                    component=ana,
                    stage="R",
                    step=t,
                    duration=float(mt.ana_read[j, t]),
                    step_time=mt.ana_step_times[j],
                    producer=mt.sim_name,
                )
                for r in r_over[j][t]:
                    if dropped[j, r]:
                        continue
                    site = compiled[r][0].get((ana, t, "R"), ())
                    chunk = compiled[r][1].get((mt.sim_name, t), ())
                    e, drop = _apply_site(
                        float(startR[r]), float(mt.ana_read[j, t]),
                        site, chunk, policies[r], ctx,
                    )
                    endR[r] = e
                    if drop:
                        dropped[j, r] = True
                        drop_time[j, r] = e
                        drop_in_read[j, r] = True
                        drop_step[j, r] = t
            dur_R[j, :, t] = endR - startR
            # a replica dropped before this step released its barrier
            # at drop time; one dropped *during this R* did too (the
            # retire handler fires at env.now == the drop instant)
            contribs[j] = np.where(dropped[j], drop_time[j], endR)

            # A
            startA = endR
            endA = startA + mt.ana_compute[j, t]
            if a_over[j][t]:
                ctx = StageContext(
                    member=mt.name,
                    component=ana,
                    stage="A",
                    step=t,
                    duration=float(mt.ana_compute[j, t]),
                    step_time=mt.ana_step_times[j],
                )
                for r in a_over[j][t]:
                    if dropped[j, r]:
                        continue
                    site = compiled[r][0].get((ana, t, "A"), ())
                    e, drop = _apply_site(
                        float(startA[r]), float(mt.ana_compute[j, t]),
                        site, (), policies[r], ctx,
                    )
                    endA[r] = e
                    if drop:
                        dropped[j, r] = True
                        drop_time[j, r] = e
                        drop_step[j, r] = t
            dur_A[j, :, t] = endA - startA
            anaT[j] = np.where(dropped[j], anaT[j], endA)

        allread = contribs.max(axis=0)

    ana_end = np.where(dropped, drop_time, anaT)
    makespan = ana_end.max(axis=0)
    r_len = np.where(drop_step >= 0, drop_step + 1, n)
    a_len = np.where(
        drop_step >= 0,
        np.where(drop_in_read, drop_step, drop_step + 1),
        n,
    )
    return _MemberReplay(
        dur_S=dur_S,
        dur_W=dur_W,
        dur_R=dur_R,
        dur_A=dur_A,
        makespan=makespan,
        r_len=r_len,
        a_len=a_len,
    )


def _steady_state_rows(dur: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Vectorized :func:`estimate_steady_state` over replica rows.

    Bit-identical to running the scalar estimator on each row's first
    ``lens[r]`` samples: rows are grouped by effective length (drops
    shorten a replica's sample list), and within a group the warm-up
    skip, the sort, and the trim indices are shared, so one axis-sort
    plus one axis-mean reproduces every row's scalar float (numpy's
    pairwise summation order depends only on the element count of the
    reduced axis, not the memory layout — asserted by the
    batched-vs-serial parity tests).
    """
    out = np.empty(dur.shape[0])
    for m in np.unique(lens):
        mask = lens == m
        m = int(m)
        if m < 1:
            raise ValidationError(
                "estimate_steady_state requires at least one sample"
            )
        skip = int(m * 0.2)
        if skip >= m:
            skip = m - 1
        rest = np.sort(dur[mask, skip:m], axis=1)
        size = m - skip
        if size < 3:
            out[mask] = rest.mean(axis=1)
            continue
        k = int(math.floor(size * 0.1))
        if 2 * k >= size:
            k = (size - 1) // 2
        out[mask] = rest[:, k : size - k].mean(axis=1)
    return out


def _score_replicas(
    timeline: StageTimeline,
    replays: Sequence[_MemberReplay],
    R: int,
) -> Tuple[List[float], List[float]]:
    """Per-replica (objective, ensemble makespan) of the replayed runs.

    Steady-state estimation (:func:`estimate_steady_state`'s warm-up
    skip + trimmed mean) is vectorized across the replica axis via
    :func:`_steady_state_rows`; the indicator pipeline and Eq. 9 then
    run per replica through the *same* library functions the serial
    path uses, so agreement is structural, not numeric luck.
    """
    est = []
    for mt, rep in zip(timeline.members, replays):
        full = np.full(R, mt.n_steps)
        est.append(
            (
                _steady_state_rows(rep.dur_S, full),
                _steady_state_rows(rep.dur_W, full),
                [
                    _steady_state_rows(rep.dur_R[j], rep.r_len[j])
                    for j in range(len(mt.analysis_names))
                ],
                [
                    _steady_state_rows(rep.dur_A[j], rep.a_len[j])
                    for j in range(len(mt.analysis_names))
                ],
            )
        )

    objectives: List[float] = []
    makespans: List[float] = []
    for r in range(R):
        indicators: List[float] = []
        spans: List[float] = []
        for mt, rep, (sim_c, sim_w, reads, analyzes) in zip(
            timeline.members, replays, est
        ):
            stages = MemberStages(
                simulation=SimulationStages(
                    compute=float(sim_c[r]), write=float(sim_w[r])
                ),
                analyses=tuple(
                    AnalysisStages(
                        read=float(reads[j][r]),
                        analyze=float(analyzes[j][r]),
                    )
                    for j in range(len(mt.analysis_names))
                ),
            )
            measurement = MemberMeasurement(
                name=mt.name,
                stages=stages,
                total_cores=mt.total_cores,
                placement=mt.placement_sets,
            )
            indicators.append(
                apply_stages(
                    measurement, FINAL_STAGE_ORDER, timeline.num_nodes
                )
            )
            spans.append(float(rep.makespan[r]))
        objectives.append(objective_function(indicators))
        makespans.append(max(spans))
    return objectives, makespans


def replay_schedules(
    timeline: StageTimeline,
    schedules: Sequence[FaultSchedule],
    policy: RecoveryPolicy,
) -> ReplayOutcome:
    """Score every fault schedule against one captured baseline.

    Each replica gets a fresh deep copy of ``policy`` (reset via
    ``on_run_start``), matching the serial path's one-injector-per-run
    policy lifecycle.
    """
    R = len(schedules)
    compiled = [_compile_replica(s) for s in schedules]
    policies: List[RecoveryPolicy] = []
    for _ in range(R):
        p = copy.deepcopy(policy)
        p.on_run_start()
        policies.append(p)
    replays = [
        _replay_member(mt, compiled, policies) for mt in timeline.members
    ]

    objectives, makespans = _score_replicas(timeline, replays, R)
    inflations: List[float] = []
    goodputs: List[float] = []
    for makespan in makespans:
        inflations.append(makespan / timeline.baseline_makespan)
        goodputs.append(timeline.total_steps / makespan)
    _tally(replicas=R)
    return ReplayOutcome(
        objectives=tuple(objectives),
        makespans=tuple(makespans),
        inflations=tuple(inflations),
        goodputs=tuple(goodputs),
    )


# -- scoring entry points ----------------------------------------------------


def score_from_timeline(
    spec: EnsembleSpec,
    timeline: StageTimeline,
    placement: EnsemblePlacement,
    model_factory: "ModelFactory",
    policy: RecoveryPolicy,
    trials: int = 3,
    base_seed: int = 0,
    seed_label: str = "",
    name: str = "",
    schedules: Optional[Sequence[FaultSchedule]] = None,
) -> "RobustScore":
    """Robust-score a candidate whose baseline is already captured.

    Fault schedules are sampled via
    ``model_factory(derive_replica_seed(base_seed, t, seed_label))``
    unless pre-built ``schedules`` are passed (the common-random-
    numbers rank path samples once and shares them across candidates).
    """
    from repro.scheduler.robust import RobustScore

    if schedules is None:
        require_positive_int("trials", trials)
        schedules = [
            model_factory(
                derive_replica_seed(base_seed, t, seed_label)
            ).build_schedule(spec)
            for t in range(trials)
        ]
    outcome = replay_schedules(timeline, schedules, policy)
    return RobustScore(
        name=name or spec.name,
        placement=placement,
        objective=float(np.mean(outcome.objectives)),
        ideal_objective=timeline.ideal_objective,
        mean_inflation=float(np.mean(outcome.inflations)),
        mean_goodput=float(np.mean(outcome.goodputs)),
        num_nodes=placement.num_nodes,
        trials=len(schedules),
    )


def batched_score_placement(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    model_factory: "ModelFactory",
    policy: RecoveryPolicy,
    trials: int = 3,
    base_seed: int = 0,
    timing_noise: float = 0.0,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    name: str = "",
    seed_label: str = "",
) -> "RobustScore":
    """Drop-in replacement for :func:`~repro.scheduler.robust
    .robust_score_placement` using one DES run plus delta replay.

    Runs the fault-free DES once (the baseline capture doubles as the
    ideal reference), then replays ``trials`` fault schedules against
    the captured numeline. For exactly-replayable policies (see
    :func:`replay_tier`) the returned score equals the serial one bit
    for bit.
    """
    require_positive_int("trials", trials)
    timeline = capture_timeline(
        spec,
        placement,
        cluster=cluster,
        dtl=dtl,
        seed=base_seed,
        timing_noise=timing_noise,
    )
    return score_from_timeline(
        spec,
        timeline,
        placement,
        model_factory,
        policy,
        trials=trials,
        base_seed=base_seed,
        seed_label=seed_label,
        name=name,
    )


def rank_placements_batched(
    spec: EnsembleSpec,
    candidates: Dict[str, EnsemblePlacement],
    model_factory: "ModelFactory",
    policy: RecoveryPolicy,
    trials: int = 3,
    base_seed: int = 0,
    timing_noise: float = 0.0,
    crn: bool = True,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
) -> List["RobustScore"]:
    """Rank candidates with the batched engine; best first.

    With ``crn=True`` (the default) every candidate is scored against
    the *same* ``trials`` fault schedules — common random numbers:
    replica ``i``'s draws are shared everywhere, pairing the candidate
    comparisons (lower rank-inversion variance at equal trials, which
    the CRN test in ``tests/faults/test_batched.py`` measures) and
    letting the schedules be sampled once per call instead of once per
    candidate. ``crn=False`` decorrelates candidates by hashing each
    candidate's name into its replica seeds.
    """
    require_positive_int("trials", trials)
    shared = None
    if crn:
        shared = [
            model_factory(derive_replica_seed(base_seed, t)).build_schedule(
                spec
            )
            for t in range(trials)
        ]
    scores = []
    for cname, placement in candidates.items():
        timeline = capture_timeline(
            spec,
            placement,
            cluster=cluster,
            dtl=dtl,
            seed=base_seed,
            timing_noise=timing_noise,
        )
        scores.append(
            score_from_timeline(
                spec,
                timeline,
                placement,
                model_factory,
                policy,
                trials=trials,
                base_seed=base_seed,
                seed_label="" if crn else cname,
                name=cname,
                schedules=shared,
            )
        )
    return sorted(scores, reverse=True)
