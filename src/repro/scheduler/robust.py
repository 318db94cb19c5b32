"""Robust placement scoring: F(P) evaluated under a failure model.

The analytic scorer (:mod:`repro.scheduler.objectives`) ranks
placements by the ideal, failure-free F(P^{U,A,P}). This module ranks
them by *robust* F(P): the indicator objective measured from
executions with fault injection enabled, averaged over independent
fault-schedule draws. A placement that looks optimal in steady state
can lose its edge once crashes and stragglers stretch its stages —
co-location, for instance, couples a member's fate to fewer nodes but
concentrates the blast radius of a straggling simulation.

What lives where:

- :func:`rank_placements_robust` is the one ranking entry point. Its
  ``method="des"`` always delta-replays through
  :func:`repro.faults.batched.rank_placements_batched`: no DES run at
  all, each candidate's fault-free timeline is built from its
  effective stages and every candidate's baseline and fault replicas
  replay in one sweep (``BENCH_robust.json``);
- :func:`robust_score_placement` runs the serial DES — one failure-free
  execution plus one injected execution per trial. Nothing at runtime
  calls it; it is the reference the differential oracle, the tests and
  the serial arm of ``scripts/bench_robust.py`` hold the replay to
  (float-identical for the exactly-replayable recovery policies,
  within the oracle's band for the adaptive one).

Robust scores cost milliseconds per candidate, not microseconds — use
them to re-rank a shortlist (e.g. the paper's C1/C2 candidates or a
policy's top choices), not to drive inner-loop search. For inner-loop
robustness there are two cheaper routes:

- :func:`surrogate_score_placement` (or ``method="surrogate"`` on
  :func:`rank_placements_robust`) prices the same failure regime with
  the closed-form surrogate in :mod:`repro.faults.analytic` — the
  tests assert it reproduces the DES ranking of the paper's C1/C2
  placements at a >= 10x speedup;
- a :class:`~repro.faults.analytic.RobustnessTerm` handed to
  :func:`~repro.scheduler.objectives.score_placement`, the planner, or
  the annealer folds the surrogate penalty into the search objective
  itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.search.cache import StageCache

import numpy as np

from repro.core.objective import objective_function
from repro.dtl.base import DataTransportLayer
from repro.faults.analytic import surrogate_resilience
from repro.faults.batched import rank_placements_batched
from repro.faults.models import FailureModel, FaultKind, RandomFailureModel
from repro.faults.recovery import RecoveryPolicy
from repro.monitoring.resilience import compute_resilience
from repro.platform.cluster import Cluster
from repro.runtime.executor import EnsembleExecutor
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext, resolve_context
from repro.scheduler.objectives import FINAL_STAGE_ORDER
from repro.util.errors import ValidationError
from repro.util.rng import derive_replica_seed
from repro.util.validation import require_positive_int

#: builds a fresh failure model for one trial's seed.
ModelFactory = Callable[[int], FailureModel]

#: valid ``method`` values for :func:`rank_placements_robust`.
RANK_METHODS: Tuple[str, ...] = ("des", "surrogate")


def crash_straggler_factory(
    rate: float,
    kinds: Tuple[FaultKind, ...] = (FaultKind.CRASH, FaultKind.STRAGGLER),
) -> ModelFactory:
    """The default model factory: crashes + stragglers at one rate.

    Parameters
    ----------
    rate:
        Per-site per-step fault probability (>= 0).
    kinds:
        Fault kinds drawn at each faulted site.

    Returns
    -------
    ModelFactory
        ``seed -> RandomFailureModel`` for independent trial draws.

    Examples
    --------
    >>> factory = crash_straggler_factory(0.05)
    >>> factory(3).rate
    0.05
    """
    return lambda seed: RandomFailureModel(rate=rate, kinds=kinds, seed=seed)


@dataclass(frozen=True)
class RobustScore:
    """Quality of one placement when failures are part of the contract.

    Ordering matches :class:`~repro.scheduler.objectives
    .PlacementScore`: robust objective first (higher better), then
    fewer nodes, then lower mean inflation. Surrogate-derived scores
    carry ``trials=0`` (no DES executions were run).

    Examples
    --------
    >>> from repro.runtime.placement import (EnsemblePlacement,
    ...                                      MemberPlacement)
    >>> pl = EnsemblePlacement(1, (MemberPlacement(0, (0,)),))
    >>> a = RobustScore("a", pl, 0.5, 0.6, 1.1, 0.2, 1, 3)
    >>> b = RobustScore("b", pl, 0.4, 0.6, 1.3, 0.2, 1, 3)
    >>> max(a, b).name
    'a'
    """

    name: str
    placement: EnsemblePlacement
    objective: float  # mean F(P^{U,A,P}) under failures
    ideal_objective: float  # failure-free DES F(P^{U,A,P})
    mean_inflation: float  # mean makespan inflation factor
    mean_goodput: float  # mean steps per virtual second
    num_nodes: int
    trials: int

    @property
    def degradation(self) -> float:
        """How much of the ideal objective failures eroded (>= 0)."""
        return self.ideal_objective - self.objective

    def _key(self) -> Tuple[float, int, float]:
        return (self.objective, -self.num_nodes, -self.mean_inflation)

    def __lt__(self, other: "RobustScore") -> bool:
        return self._key() < other._key()

    def __gt__(self, other: "RobustScore") -> bool:
        return self._key() > other._key()


def robust_score_placement(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    model_factory: ModelFactory,
    policy: RecoveryPolicy,
    trials: int = 3,
    base_seed: int = 0,
    timing_noise: float = 0.0,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    name: str = "",
    seed_label: str = "",
) -> RobustScore:
    """Score one placement by executing it under injected failures.

    Runs one failure-free DES execution (the ideal reference), then
    ``trials`` injected executions whose fault schedules come from
    ``model_factory(derive_replica_seed(base_seed, t, seed_label))``
    — with the default empty label that is literally
    ``base_seed + t``; the robust objective is the mean F(P^{U,A,P})
    over those trials.

    Parameters
    ----------
    spec / placement:
        The ensemble and the candidate placement.
    model_factory:
        ``seed -> FailureModel`` building one independent fault draw
        per trial (see :func:`crash_straggler_factory`).
    policy:
        Recovery policy applied to every injected crash.
    trials:
        Number of injected DES runs to average over (>= 1).
    base_seed / timing_noise / cluster / dtl:
        Forwarded to the executor.
    name:
        Label for the returned score (defaults to the spec name).
    seed_label:
        Forwarded to :func:`~repro.util.rng.derive_replica_seed`; a
        non-empty label (e.g. the candidate name) decorrelates this
        placement's fault draws from other candidates'.

    Returns
    -------
    RobustScore
        Mean robust objective, inflation, and goodput over the trials.

    Raises
    ------
    ValidationError
        If ``trials`` is not a positive integer.
    """
    require_positive_int("trials", trials)

    def executor(model: Optional[FailureModel]) -> EnsembleExecutor:
        return EnsembleExecutor(
            spec=spec,
            placement=placement,
            cluster=cluster,
            dtl=dtl,
            seed=base_seed,
            timing_noise=timing_noise,
            failure_model=model,
            recovery=policy,
        )

    baseline = executor(None).run()
    ideal = baseline.objective(FINAL_STAGE_ORDER)
    baseline_makespan = baseline.ensemble_makespan

    objectives: List[float] = []
    inflations: List[float] = []
    goodputs: List[float] = []
    for t in range(trials):
        seed = derive_replica_seed(base_seed, t, seed_label)
        result = executor(model_factory(seed)).run()
        objectives.append(result.objective(FINAL_STAGE_ORDER))
        metrics = compute_resilience(result, baseline_makespan)
        inflations.append(metrics.inflation)
        goodputs.append(metrics.goodput)

    return RobustScore(
        name=name or spec.name,
        placement=placement,
        objective=float(np.mean(objectives)),
        ideal_objective=ideal,
        mean_inflation=float(np.mean(inflations)),
        mean_goodput=float(np.mean(goodputs)),
        num_nodes=placement.num_nodes,
        trials=trials,
    )


def surrogate_score_placement(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    model: FailureModel,
    policy: RecoveryPolicy,
    name: str = "",
    cache: Optional["StageCache"] = None,
) -> RobustScore:
    """Score one placement with the analytic surrogate — no DES runs.

    The robust objective is the analytic F(P^{U,A,P}) minus the
    surrogate's expected excess inflation ``E[inflation] - 1`` — the
    same penalty form a unit-weight
    :class:`~repro.faults.analytic.RobustnessTerm` applies inside the
    planner. Inflation comes straight from the surrogate; goodput is
    the nominal step count over the expected makespan. Costs
    microseconds per candidate where a DES trial set costs
    milliseconds, which is the >= 10x speedup the tests assert.

    Parameters
    ----------
    spec / placement:
        The ensemble and the candidate placement.
    model:
        Failure model with an analytic hazard profile (scheduled
        models raise).
    policy:
        Recovery policy priced by the surrogate.
    name:
        Label for the returned score (defaults to the spec name).
    cache:
        Optional :class:`~repro.search.cache.StageCache`, the platform
        the placement is priced on (a fresh Cori-like one when
        ``None``); stage predictions are memoized across candidates.

    Returns
    -------
    RobustScore
        Surrogate-derived score with ``trials=0``.

    Raises
    ------
    ValidationError
        If the model has no analytic hazard profile.
    """
    if cache is None:
        from repro.search.cache import StageCache  # import cycle guard

        cache = StageCache()
    # the cached evaluation holds the stages and each member's
    # P^{U,A,P} both, as score_placement reads them
    evaluation = cache.member_terms(spec, placement)
    stages = evaluation.stages_by_name(spec)
    ideal = objective_function(evaluation.indicators)
    report = surrogate_resilience(
        spec, placement, model, policy, stages=stages
    )
    total_steps = sum(m.n_steps for m in spec.members)
    return RobustScore(
        name=name or spec.name,
        placement=placement,
        objective=ideal - (report.expected_inflation - 1.0),
        ideal_objective=ideal,
        mean_inflation=report.expected_inflation,
        mean_goodput=total_steps / report.expected_makespan,
        num_nodes=placement.num_nodes,
        trials=0,
    )


def rank_placements_robust(
    spec: EnsembleSpec,
    candidates: Dict[str, EnsemblePlacement],
    model_factory: ModelFactory,
    policy: RecoveryPolicy,
    trials: int = 3,
    base_seed: int = 0,
    timing_noise: float = 0.0,
    method: str = "des",
    crn: bool = True,
    context: Optional[PlanningContext] = None,
) -> List[RobustScore]:
    """Score every candidate placement; best (highest robust F) first.

    Parameters
    ----------
    spec / candidates:
        The ensemble and the named candidate placements to rank.
    model_factory:
        ``seed -> FailureModel``. The DES method draws ``trials``
        independent models; the surrogate method prices the single
        representative model ``model_factory(base_seed)`` (its hazard
        profile is seed-independent for the rate-based models).
    policy:
        Recovery policy applied to crashes.
    trials / base_seed / timing_noise:
        DES-method controls (ignored by the surrogate method except
        for ``base_seed``).
    method:
        ``"des"`` averages injected trials per candidate, delta-replayed
        by :func:`repro.faults.batched.rank_placements_batched` without
        a DES run: bit-identical to ranking with
        :func:`robust_score_placement` for the exactly-replayable
        recovery policies, at >= 10x the speed (``BENCH_robust.json``).
        ``"surrogate"`` prices each candidate in closed form — the
        serial DES ranking of the paper's C1/C2 candidates, >= 10x
        faster than it.
    crn:
        Use common random numbers: every candidate's replica ``t``
        draws the same fault schedule (seeds ``base_seed + t``), so
        candidate comparisons are paired. ``False`` decorrelates
        candidates by hashing their names into the replica seeds.
    context:
        Optional :class:`~repro.scheduler.context.PlanningContext`
        (:data:`~repro.scheduler.context.DEFAULT_CONTEXT` when
        ``None``). Its ``cache`` is the platform of every scoring call
        (a fresh Cori-like one when omitted): the replay runs on the
        cache's cluster and DTL, and the surrogate method prices on
        the cache itself, sharing stage predictions across candidates
        with matching local patterns.

    Returns
    -------
    List[RobustScore]
        Candidates sorted best-first by robust objective.

    Raises
    ------
    ValidationError
        On an unknown ``method``.
    """
    if method not in RANK_METHODS:
        valid = ", ".join(repr(m) for m in RANK_METHODS)
        raise ValidationError(
            f"unknown ranking method {method!r}; valid methods: {valid}"
        )
    cache = resolve_context(context).cache
    if method == "surrogate":
        model = model_factory(base_seed)
        scores = [
            surrogate_score_placement(
                spec, placement, model, policy, name=name, cache=cache
            )
            for name, placement in candidates.items()
        ]
        return sorted(scores, reverse=True)
    return rank_placements_batched(
        spec,
        candidates,
        model_factory,
        policy,
        trials=trials,
        base_seed=base_seed,
        timing_noise=timing_noise,
        crn=crn,
        cluster=cache.cluster,
        dtl=cache.dtl,
    )
