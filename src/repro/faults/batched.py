"""Batched fault replication: delta-replay robust scoring without the DES.

Robust ranking (:mod:`repro.scheduler.robust`) scores each candidate
placement by running ``trials`` full injected DES executions plus one
failure-free reference — re-simulating the whole ensemble from scratch
for every fault replica. This module replaces every one of those runs
with *delta replay*:

1. :func:`capture_timeline` distills a candidate's fault-free baseline
   into a compact numeline — per-member, per-stage numpy arrays of
   every stage instance's nominal (noise-jittered) duration — straight
   from :func:`~repro.runtime.effective.compute_effective_stages` and
   the executor's per-component RNG streams, without running the DES;
2. :func:`replay_schedules` replays all candidates of a ranking in one
   sweep: per candidate one empty-schedule baseline row (the ideal
   reference) plus one row per :class:`~repro.faults.models
   .FaultSchedule`. The coupling recurrence (S -> gate on all reads ->
   W; R gated on W; A after R) is advanced with vectorized float64
   arithmetic across every row, and the sparse set of faulted stage
   instances is patched with a scalar replay of the injector's exact
   operation sequence (stall delays, straggler scaling, crash burn +
   recovery delay in schedule order);
3. every row's steady-state stages
   (:func:`~repro.core.stages.steady_state_rows`) are scored by one
   :func:`~repro.core.columns.score_columns` call — the Eqs. 1-9
   reducer the search kernel shares — with each row's own candidate's
   core counts, node count and ``CP`` (computed once per member at
   capture).

Because the DES clock only ever *adds* timeout durations to the
current time and *maxes* event times, replaying the same additions at
the same absolute times reproduces every float bit for bit: a baseline
row's objective and makespan equal a fault-free DES run's, and for the
stateless built-in policies (retry, restart, degrade) the batched
robust score **equals** the serial score exactly — not approximately —
which the differential-oracle tier in :mod:`repro.verify.oracles` and
the hypothesis suite in ``tests/faults/test_batched.py`` assert. The
DES stays the reference this replay is checked against.
:class:`~repro.faults.recovery.AdaptiveRecoveryPolicy` is
order-dependent (its budget drains in global event order, which replay
approximates member-by-member), so it is scored within a tolerance
band instead — see :func:`replay_tier`.

Replica seeds come from :func:`repro.util.rng.derive_replica_seed`,
shared with the serial path. With common random numbers (the default)
replica ``i`` sees the *same* fault draws for every candidate, so
candidate comparisons are paired and the fault schedules are sampled
and compiled once per ranking call instead of once per candidate.

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

from repro.core.columns import score_columns
from repro.core.indicators import placement_indicator
from repro.core.stages import steady_state_rows
from repro.dtl.base import DataTransportLayer
from repro.dtl.dimes import InMemoryStagingDTL
from repro.faults.injector import AnalysisDropped, StageContext
from repro.faults.models import CHUNK_KINDS, FaultKind, FaultSchedule
from repro.faults.recovery import (
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RecoveryPolicy,
    RetryBackoffPolicy,
)
from repro.platform.cluster import Cluster
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.effective import (
    component_jitter,
    compute_effective_stages,
)
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import ValidationError
from repro.util.registry import count
from repro.util.rng import derive_replica_seed
from repro.util.validation import require_in_range, require_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scheduler.robust import ModelFactory, RobustScore


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

    Durations are the *nominal* values the executor hands to its
    ``_stage`` choke point (noise jitter already applied) — exactly
    what the injector's body would wait in a faulted run, which is what
    makes the replay's timeline edits exact.
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
    cp: float  # the member's placement indicator CP (Eq. 6)


@dataclass(frozen=True, eq=False)
class StageTimeline:
    """A candidate's full baseline numeline (its reference scores come
    out of :func:`replay_schedules` as the candidate's baseline row)."""

    spec_name: str
    members: Tuple[MemberTimeline, ...]
    num_nodes: int
    total_steps: int


@dataclass(frozen=True)
class ReplayOutcome:
    """Scores from one :func:`replay_schedules` call.

    ``ideal_objectives`` and ``baseline_makespans`` hold one entry per
    timeline (its fault-free baseline row). The per-replica tuples
    list fault replicas only, timeline-major: timeline ``c``'s replica
    ``r`` sits at index ``c * R + r``.
    """

    objectives: Tuple[float, ...]
    makespans: Tuple[float, ...]
    inflations: Tuple[float, ...]
    goodputs: Tuple[float, ...]
    ideal_objectives: Tuple[float, ...]
    baseline_makespans: Tuple[float, ...]


def capture_timeline(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    seed: Optional[int] = 0,
    timing_noise: float = 0.0,
) -> StageTimeline:
    """Build a candidate's fault-free timeline without running the DES.

    The platform defaults, the effective stage times and the noise
    streams are the :class:`~repro.runtime.executor.EnsembleExecutor`'s:
    :func:`~repro.runtime.effective.component_jitter` lays the streams
    out and draws each component's ``2 * n_steps`` factors for both, in
    one vector call per stream (none at zero noise). The durations are
    therefore the very floats a fault-free DES run would hand its
    ``_stage`` choke point, and the same inputs raise the executor's
    typed errors (``timing_noise`` outside [0, 1], a bad seed, an
    infeasible placement).
    """
    require_in_range("timing_noise", timing_noise, 0.0, 1.0)
    cluster = cluster or make_cori_like_cluster(placement.num_nodes)
    dtl = dtl or InMemoryStagingDTL.for_platform(
        cluster.network, cluster.node_spec
    )
    effective = compute_effective_stages(spec, placement, cluster, dtl)
    jitter = component_jitter(effective, seed, timing_noise)

    def durations(name: str, first: float, second: float):
        # each step jitters ``first`` (S or R), then ``second`` (W or A)
        u = jitter[name]
        return first * u[0::2], second * u[1::2]

    members: List[MemberTimeline] = []
    for member, mp in zip(effective, placement.members):
        n = member.n_steps
        sim = member.simulation
        sim_compute, sim_write = durations(
            sim.name, sim.compute_time, sim.io_time
        )
        reads, computes = zip(*(
            durations(a.name, a.io_time, a.compute_time)
            for a in member.analyses
        ))
        members.append(
            MemberTimeline(
                name=member.name,
                sim_name=sim.name,
                analysis_names=tuple(a.name for a in member.analyses),
                n_steps=n,
                sim_compute=sim_compute,
                sim_write=sim_write,
                ana_read=np.array(reads),
                ana_compute=np.array(computes),
                sim_step_time=sim.compute_time + sim.io_time,
                ana_step_times=tuple(
                    a.io_time + a.compute_time for a in member.analyses
                ),
                total_cores=member.total_cores,
                cp=placement_indicator(mp.to_placement_sets()),
            )
        )
    count("batched", "baseline_sims")
    return StageTimeline(
        spec_name=spec.name,
        members=tuple(members),
        num_nodes=placement.num_nodes,
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
    """One member's replayed timelines across all rows."""

    dur_S: np.ndarray  # (rows, n)
    dur_W: np.ndarray  # (rows, n)
    dur_R: np.ndarray  # (K, rows, n)
    dur_A: np.ndarray  # (K, rows, n)
    makespan: np.ndarray  # (rows,)
    r_len: np.ndarray  # (K, rows) valid ANA_READ samples per row
    a_len: np.ndarray  # (K, rows) valid ANA_COMPUTE samples per row


def _replay_member(
    mts: Sequence[MemberTimeline],
    compiled: Sequence[Tuple[dict, dict]],
    policies: Sequence[Optional[RecoveryPolicy]],
) -> _MemberReplay:
    """Advance one member's coupling recurrence across every row.

    ``mts`` holds this member's timeline in each candidate. Rows are
    timeline-major: candidate ``c`` owns rows ``c * (1 + R)`` (its
    fault-free baseline) through ``c * (1 + R) + R`` (its replicas of
    the ``R`` compiled schedules). The fault-free recurrence is
    vectorized over all rows; the (row, stage instance) pairs a
    schedule actually touches are recomputed scalar-exactly via
    :func:`_apply_site`, with a :class:`StageContext` priced from the
    row's own candidate (its nominal duration and step time).
    """
    R = len(compiled)
    stride = 1 + R
    rows = len(mts) * stride
    first = mts[0]
    n = first.n_steps
    K = len(first.analysis_names)
    sim_name = first.sim_name

    # the replicas faulting each stage instance; a chunk fault of this
    # member's simulation perturbs every analysis's read of that step
    faulted: Dict[Tuple[str, int, str], Set[int]] = {}
    for r, (site_map, chunk_map) in enumerate(compiled):
        for key in site_map:
            faulted.setdefault(key, set()).add(r)
        for producer, step in chunk_map:
            if producer == sim_name:
                for ana in first.analysis_names:
                    faulted.setdefault((ana, step, "R"), set()).add(r)

    # nominal durations per row: each candidate's, repeated over its rows
    nom_S = np.repeat([mt.sim_compute for mt in mts], stride, axis=0)
    nom_W = np.repeat([mt.sim_write for mt in mts], stride, axis=0)
    nom_R = np.repeat([mt.ana_read for mt in mts], stride, axis=0)
    nom_A = np.repeat([mt.ana_compute for mt in mts], stride, axis=0)
    nom_R = nom_R.transpose(1, 0, 2)  # (K, rows, n)
    nom_A = nom_A.transpose(1, 0, 2)
    sim_steps = [mt.sim_step_time for mt in mts]
    ana_steps = [[mt.ana_step_times[j] for mt in mts] for j in range(K)]

    simT = np.zeros(rows)
    anaT = np.zeros((K, rows))
    allread = np.zeros(rows)
    dropped = np.zeros((K, rows), dtype=bool)
    drop_time = np.zeros((K, rows))
    drop_in_read = np.zeros((K, rows), dtype=bool)
    drop_step = np.zeros((K, rows), dtype=np.int64)
    dur_S = np.empty((rows, n))
    dur_W = np.empty((rows, n))
    dur_R = np.empty((K, rows, n))
    dur_A = np.empty((K, rows, n))
    contribs = np.empty((K, rows))

    def _stage(component, stage, t, nominal, start, step_times,
               skip=None, producer=None):
        """The stage instance's end per row, and its dropped rows.

        Rows flagged in ``skip`` (analyses dropped earlier) are left
        at the nominal end; a read also carries the producer's chunk
        faults."""
        end = start + nominal[:, t]
        drops: List[int] = []
        key = (component, t, stage)
        replicas = faulted.get(key)
        if not replicas:
            return end, drops
        for c, mt in enumerate(mts):
            base = c * stride
            duration = float(nominal[base, t])
            ctx = StageContext(
                member=mt.name,
                component=component,
                stage=stage,
                step=t,
                duration=duration,
                step_time=step_times[c],
                producer=producer,
            )
            for r in replicas:
                row = base + 1 + r
                if skip is not None and skip[row]:
                    continue
                site_map, chunk_map = compiled[r]
                chunk = chunk_map.get((producer, t), ()) if producer else ()
                end[row], drop = _apply_site(
                    float(start[row]), duration, site_map.get(key, ()),
                    chunk, policies[row], ctx,
                )
                if drop:
                    drops.append(row)
        return end, drops

    def _sim_stage(stage, t, nominal, start):
        end, drops = _stage(sim_name, stage, t, nominal, start, sim_steps)
        if drops:
            # matches the serial run, where the dropped simulation's
            # exception propagates out of EnsembleExecutor.run()
            raise AnalysisDropped(sim_name, t)
        return end

    def _ana_stage(j, stage, t, nominal, start, producer=None):
        end, drops = _stage(
            first.analysis_names[j], stage, t, nominal, start,
            ana_steps[j], dropped[j], producer,
        )
        for row in drops:
            dropped[j, row] = True
            drop_time[j, row] = end[row]
            drop_in_read[j, row] = stage == "R"
            drop_step[j, row] = t
        return end

    for t in range(n):
        # S
        end = _sim_stage("S", t, nom_S, simT)
        dur_S[:, t] = end - simT
        # I^S: gate on the previous step's reads
        start = np.maximum(end, allread) if t > 0 else end
        # W
        w_end = _sim_stage("W", t, nom_W, start)
        dur_W[:, t] = w_end - start
        simT = w_end

        for j in range(K):
            # R (gated on W of this step)
            startR = np.maximum(anaT[j], w_end)
            endR = _ana_stage(j, "R", t, nom_R[j], startR, producer=sim_name)
            dur_R[j, :, t] = endR - startR
            # a row dropped before this step released its barrier at
            # drop time; one dropped *during this R* did too (the
            # retire handler fires at env.now == the drop instant)
            contribs[j] = np.where(dropped[j], drop_time[j], endR)
            # A
            endA = _ana_stage(j, "A", t, nom_A[j], endR)
            dur_A[j, :, t] = endA - endR
            anaT[j] = np.where(dropped[j], anaT[j], endA)

        allread = contribs.max(axis=0)

    ana_end = np.where(dropped, drop_time, anaT)
    # a drop ends the samples with the dropped step's R; a drop during
    # that R leaves its A unsampled too
    r_len = np.where(dropped, drop_step + 1, n)
    return _MemberReplay(
        dur_S, dur_W, dur_R, dur_A, ana_end.max(axis=0), r_len,
        r_len - drop_in_read,
    )


def replay_schedules(
    timelines: Sequence[StageTimeline],
    schedules: Sequence[FaultSchedule],
    policy: RecoveryPolicy,
) -> ReplayOutcome:
    """Score every fault schedule against every captured baseline.

    ``timelines`` are the candidates of one ranking; they must share
    one spec (hence member shapes), and all ``len(timelines) x (1 +
    len(schedules))`` rows — each candidate's fault-free baseline row
    plus one row per schedule — replay in one vectorized sweep, with
    the schedules compiled once. Each fault row gets a fresh deep copy
    of ``policy`` (reset via ``on_run_start``), matching the serial
    path's one-injector-per-run policy lifecycle; baseline rows meet
    no fault, so they consult no policy.
    """
    shapes = {
        tuple((m.name, m.n_steps, m.analysis_names) for m in t.members)
        for t in timelines
    }
    if len(shapes) != 1:
        raise ValidationError(
            "replay_schedules needs one or more timelines of one spec"
        )
    R = len(schedules)
    stride = 1 + R
    compiled = [_compile_replica(s) for s in schedules]
    policies: List[Optional[RecoveryPolicy]] = []
    for _ in timelines:
        policies.append(None)
        for _ in range(R):
            p = copy.deepcopy(policy)
            p.on_run_start()
            policies.append(p)
    first = timelines[0].members
    replays = [
        _replay_member([t.members[m] for t in timelines], compiled, policies)
        for m in range(len(first))
    ]

    # each row's steady-state stages (a drop shortens an analysis's
    # samples), scored with its own candidate's cores, CP and node count
    def estimates(pairs):
        return np.column_stack([steady_state_rows(d, n) for d, n in pairs])

    def per_row(values):
        return np.repeat(np.array(values, dtype=float), stride, axis=0)

    steps = [np.full(len(timelines) * stride, mt.n_steps) for mt in first]
    scores = score_columns(
        estimates(zip((r.dur_S for r in replays), steps)),
        estimates(zip((r.dur_W for r in replays), steps)),
        estimates(p for r in replays for p in zip(r.dur_R, r.r_len)),
        estimates(p for r in replays for p in zip(r.dur_A, r.a_len)),
        couplings=[len(mt.analysis_names) for mt in first],
        cores=per_row([[mt.total_cores for mt in t.members] for t in timelines]),
        placement=per_row([[mt.cp for mt in t.members] for t in timelines]),
        total_nodes=per_row([t.num_nodes for t in timelines]),
    )
    objectives = scores.objectives.reshape(-1, stride)
    makespans = np.max([r.makespan for r in replays], axis=0).reshape(-1, stride)
    spans = makespans[:, 1:]  # column 0 holds the baselines
    count("batched", "replicas_replayed", spans.size)
    return ReplayOutcome(
        objectives=tuple(objectives[:, 1:].ravel().tolist()),
        makespans=tuple(spans.ravel().tolist()),
        inflations=tuple((spans / makespans[:, :1]).ravel().tolist()),
        goodputs=tuple((timelines[0].total_steps / spans).ravel().tolist()),
        ideal_objectives=tuple(objectives[:, 0].tolist()),
        baseline_makespans=tuple(makespans[:, 0].tolist()),
    )


# -- scoring entry points ----------------------------------------------------


def _robust_score(
    name: str,
    placement: EnsemblePlacement,
    outcome: ReplayOutcome,
    index: int,
    trials: int,
) -> "RobustScore":
    """Timeline ``index``'s :class:`RobustScore` from a replay outcome."""
    from repro.scheduler.robust import RobustScore

    replicas = slice(index * trials, (index + 1) * trials)
    return RobustScore(
        name=name,
        placement=placement,
        objective=float(np.mean(outcome.objectives[replicas])),
        ideal_objective=outcome.ideal_objectives[index],
        mean_inflation=float(np.mean(outcome.inflations[replicas])),
        mean_goodput=float(np.mean(outcome.goodputs[replicas])),
        num_nodes=placement.num_nodes,
        trials=trials,
    )


def _sample_schedules(
    spec: EnsembleSpec,
    model_factory: "ModelFactory",
    trials: int,
    base_seed: int,
    seed_label: str,
) -> List[FaultSchedule]:
    return [
        model_factory(
            derive_replica_seed(base_seed, t, seed_label)
        ).build_schedule(spec)
        for t in range(trials)
    ]


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
) -> "RobustScore":
    """Robust-score a candidate whose baseline is already captured.

    Fault schedules are sampled via
    ``model_factory(derive_replica_seed(base_seed, t, seed_label))``;
    the replay's baseline row supplies the ideal objective and the
    inflation denominator.
    """
    require_positive_int("trials", trials)
    schedules = _sample_schedules(
        spec, model_factory, trials, base_seed, seed_label
    )
    outcome = replay_schedules([timeline], schedules, policy)
    return _robust_score(name or spec.name, placement, outcome, 0, trials)


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
    .robust_score_placement` using delta replay and no DES run.

    Captures the candidate's fault-free numeline, then replays its
    baseline row (the ideal reference) and ``trials`` fault schedules
    against it. For exactly-replayable policies (see
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

    Runs no DES: every candidate's numeline is captured, then replayed.
    With ``crn=True`` (the default) every candidate is scored against
    the *same* ``trials`` fault schedules — common random numbers:
    replica ``i``'s draws are shared everywhere, pairing the candidate
    comparisons (lower rank-inversion variance at equal trials, which
    the CRN test in ``tests/faults/test_batched.py`` measures) — so
    the schedules are sampled once and all candidates replay in one
    :func:`replay_schedules` sweep. ``crn=False`` decorrelates
    candidates by hashing each candidate's name into its replica seeds,
    so each candidate replays its own schedules in its own call.
    """
    require_positive_int("trials", trials)
    timelines = {
        cname: capture_timeline(
            spec,
            placement,
            cluster=cluster,
            dtl=dtl,
            seed=base_seed,
            timing_noise=timing_noise,
        )
        for cname, placement in candidates.items()
    }
    names = list(candidates)
    groups = [names] if crn and names else [[c] for c in names]
    scores = []
    for group in groups:
        schedules = _sample_schedules(
            spec, model_factory, trials, base_seed, "" if crn else group[0]
        )
        outcome = replay_schedules(
            [timelines[c] for c in group], schedules, policy
        )
        scores.extend(
            _robust_score(c, candidates[c], outcome, i, trials)
            for i, c in enumerate(group)
        )
    return sorted(scores, reverse=True)
