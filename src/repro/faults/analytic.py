"""Analytic robustness surrogate: expected failure cost in closed form.

Robust placement scoring (:mod:`repro.scheduler.robust`) measures the
failure-degraded objective from full DES trials — milliseconds per
candidate, which confines robustness to *re-ranking* a shortlist. This
module prices failures analytically, in microseconds, so robustness can
sit inside the planner's search loop (greedy, annealing, exhaustive)
as just another objective term.

Derivation
----------
Let a member's steady-state stage times be ``S*, W*, R_j*, A_j*`` with
period ``sigma* = max(S*+W*, R_j*+A_j*)`` (Eq. 1) and per-component
slack ``s_c = sigma* - active_c`` (the component's idle time per step,
Eq. 1's derived idle). The failure-free makespan is
``T0 = n * sigma* + drain`` where the drain is the pipeline tail
``(S*+W*) + max_j (R_j*+A_j*) - sigma*``.

A fault at component ``c`` adds *overhead* to that component's step:

====================  ============================================
kind                  per-event overhead
====================  ============================================
crash                 ``m * d_c + delta(policy)`` — the burned
                      fraction ``m`` of the crashed stage ``d_c``
                      plus the policy's expected recovery delay
straggler             ``(m - 1) * d_c``
stall                 ``m`` seconds
chunk loss/corrupt    ``m + R_j*`` at every consumer ``j``
                      (detection latency plus a full re-read)
====================  ============================================

Overhead up to the component's slack ``s_c`` is absorbed by its idle
stage; only the excess stretches the member's critical path. With
per-site per-step fault probability ``lambda`` (the model's
:class:`~repro.faults.models.HazardProfile`) and kind mix ``w_k``, the
expected makespan is, to first order in ``lambda``,

``E[T] = T0 + sum_c lambda * n * sum_k w_k * max(0, ov(c, k) - s_c)``.

Node-level models replace the per-component sum with a per-*node* sum:
one event crashes every component on the node simultaneously, the
components recover concurrently, and the member's stretch is the
**max** of its co-located components' excesses — which is how
placement enters the robustness term: co-location fuses fault domains.

Validity envelope: the first-order expansion treats faults as rare,
non-overlapping events, so accuracy degrades once a site is likely to
fault more than once per run (``lambda * n`` approaching 1) or when
degrade policies retire analyses early (the surrogate prices a drop as
zero stretch and ignores the post-drop speedup). The validation grid
in ``docs/FAULT_MODELS.md`` quantifies the error against DES trials;
``tests/faults/test_analytic.py`` enforces the documented bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.insitu import non_overlapped_segment
from repro.core.stages import MemberStages
from repro.dtl.base import DataTransportLayer
from repro.faults.models import (
    CHUNK_KINDS,
    FailureModel,
    FaultKind,
    HazardProfile,
)
from repro.faults.recovery import (
    AdaptiveRecoveryPolicy,
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RecoveryPolicy,
    RetryBackoffPolicy,
    make_policy,
)
from repro.platform.cluster import Cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import ValidationError
from repro.util.validation import require_non_negative


@dataclass(frozen=True)
class CrashResponse:
    """Expected resolution of one crash under a recovery policy.

    ``delay`` is the expected recovery delay in virtual seconds;
    ``drop_fraction`` the probability the crash resolves by dropping
    the component (zero stretch, lost coverage) instead of re-running.

    Examples
    --------
    >>> CrashResponse(delay=0.5, drop_fraction=0.0).delay
    0.5
    """

    delay: float
    drop_fraction: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValidationError(f"delay must be >= 0, got {self.delay!r}")
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise ValidationError(
                f"drop_fraction must lie in [0, 1], got "
                f"{self.drop_fraction!r}"
            )


def _mean_lost_steps(period: int, n_steps: int) -> float:
    """Exact mean of ``step mod period`` over a run of ``n_steps``."""
    if n_steps <= 0:
        return 0.0
    return sum(s % period for s in range(n_steps)) / n_steps


def expected_crash_response(
    policy: RecoveryPolicy,
    step_time: float,
    n_steps: int,
    is_analysis: bool,
    expected_crashes: float = 0.0,
) -> CrashResponse:
    """Expected per-crash recovery delay and drop probability.

    Dispatches on the built-in policy types; unknown policies are
    *probed* — ``on_crash`` is invoked once with a synthetic mid-run
    :class:`~repro.faults.injector.StageContext` — so custom policies
    participate in the surrogate without registering anything.

    Parameters
    ----------
    policy:
        The recovery policy to price.
    step_time:
        The component's nominal full-step time (prices checkpoint
        re-computation).
    n_steps:
        Steps in the run (prices the mean checkpoint distance and the
        step-0 degrade fallback).
    is_analysis:
        Whether the crashing component is an analysis (degrade drops
        analyses only).
    expected_crashes:
        Expected number of crash *actions* in the whole run — the
        adaptive policy uses it to estimate what fraction of crashes
        its budget covers before the retry→degrade switch.

    Returns
    -------
    CrashResponse
        Expected delay (seconds) and drop probability per crash.

    Examples
    --------
    >>> from repro.faults.recovery import RetryBackoffPolicy
    >>> expected_crash_response(RetryBackoffPolicy(base_delay=1.0),
    ...                         step_time=2.0, n_steps=10,
    ...                         is_analysis=False)
    CrashResponse(delay=1.0, drop_fraction=0.0)
    """
    if isinstance(policy, AdaptiveRecoveryPolicy):
        primary = expected_crash_response(
            policy.primary, step_time, n_steps, is_analysis,
            expected_crashes,
        )
        degraded = expected_crash_response(
            policy.degraded, step_time, n_steps, is_analysis,
            expected_crashes,
        )
        spend = expected_crashes * primary.delay
        if spend <= policy.budget or spend <= 0.0:
            covered = 1.0
        else:
            covered = policy.budget / spend
        return CrashResponse(
            delay=covered * primary.delay + (1 - covered) * degraded.delay,
            drop_fraction=(
                covered * primary.drop_fraction
                + (1 - covered) * degraded.drop_fraction
            ),
        )
    if isinstance(policy, RetryBackoffPolicy):
        # rare-fault regime: almost every crash is the site's first
        return CrashResponse(
            delay=min(policy.base_delay, policy.max_delay),
            drop_fraction=0.0,
        )
    if isinstance(policy, CheckpointRestartPolicy):
        lost = _mean_lost_steps(policy.period, n_steps)
        return CrashResponse(
            delay=policy.restart_latency + lost * step_time,
            drop_fraction=0.0,
        )
    if isinstance(policy, DropAnalysisPolicy):
        fallback = expected_crash_response(
            policy.fallback, step_time, n_steps, is_analysis,
            expected_crashes,
        )
        if not is_analysis or n_steps <= 1:
            return fallback
        # analyses drop except at step 0, which falls back
        step0 = 1.0 / n_steps
        return CrashResponse(
            delay=step0 * fallback.delay,
            drop_fraction=(1.0 - step0)
            + step0 * fallback.drop_fraction,
        )
    # unknown policy: probe it once at a representative mid-run site
    from repro.faults.injector import StageContext

    ctx = StageContext(
        member="surrogate",
        component="surrogate.ana" if is_analysis else "surrogate.sim",
        stage="A" if is_analysis else "S",
        step=max(n_steps // 2, 1),
        duration=step_time,
        step_time=step_time,
    )
    action = policy.on_crash(ctx, 0)
    return CrashResponse(
        delay=action.delay if action.mode != "drop" else 0.0,
        drop_fraction=1.0 if action.mode == "drop" else 0.0,
    )


@dataclass(frozen=True)
class MemberForecast:
    """Surrogate prediction for one ensemble member.

    Examples
    --------
    >>> f = MemberForecast("em1", 10.0, 12.5, 1.0, 0.5)
    >>> round(f.expected_inflation, 2)
    1.25
    """

    name: str
    baseline_makespan: float
    expected_makespan: float
    expected_faults: float
    expected_lost_work: float

    @property
    def expected_inflation(self) -> float:
        """Expected makespan inflation factor of this member."""
        if self.baseline_makespan <= 0:
            return 1.0
        return self.expected_makespan / self.baseline_makespan


@dataclass(frozen=True)
class SurrogateReport:
    """The surrogate's full prediction for one placement.

    Mirrors the DES-side :class:`~repro.monitoring.resilience
    .ResilienceMetrics` where the quantities correspond: expected
    ensemble makespan and inflation, effective efficiency, expected
    fault count, and per-member forecasts.
    """

    members: Tuple[MemberForecast, ...]
    baseline_makespan: float
    expected_makespan: float
    effective_efficiency: float
    expected_faults: float
    node_level: bool

    @property
    def expected_inflation(self) -> float:
        """Expected ensemble makespan inflation factor (>= 1)."""
        if self.baseline_makespan <= 0:
            return 1.0
        return self.expected_makespan / self.baseline_makespan

    def to_text(self) -> str:
        """Render as an aligned block (what the CLI prints)."""
        lines = [
            f"expected makespan    {self.expected_makespan:10.2f} s  "
            f"(baseline {self.baseline_makespan:.2f} s, "
            f"inflation x{self.expected_inflation:.3f})",
            f"effective efficiency {self.effective_efficiency:10.4f}",
            f"expected faults      {self.expected_faults:10.2f}  "
            f"({'node' if self.node_level else 'component'}-level domains)",
        ]
        for m in self.members:
            lines.append(
                f"  {m.name}: T0={m.baseline_makespan:.2f}s -> "
                f"E[T]={m.expected_makespan:.2f}s "
                f"(x{m.expected_inflation:.3f}, "
                f"{m.expected_faults:.2f} faults)"
            )
        return "\n".join(lines)


def _component_rows(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    stages: Dict[str, MemberStages],
) -> List[dict]:
    """Flatten (member, component) with stage times, slack and node."""
    rows: List[dict] = []
    for member, mp in zip(spec.members, placement.members):
        ms = stages[member.name]
        sigma = non_overlapped_segment(ms)
        rows.append(
            {
                "member": member.name,
                "component": member.simulation.name,
                "is_analysis": False,
                "node": mp.simulation_node,
                "crash_stage": ms.simulation.compute,  # S
                "active": ms.simulation.active,
                "slack": sigma - ms.simulation.active,
                "step_time": ms.simulation.active,
                "n_steps": member.n_steps,
                "sigma": sigma,
            }
        )
        for j, (ana, node) in enumerate(
            zip(member.analyses, mp.analysis_nodes)
        ):
            a = ms.analyses[j]
            rows.append(
                {
                    "member": member.name,
                    "component": ana.name,
                    "is_analysis": True,
                    "node": node,
                    "crash_stage": a.analyze,  # A
                    "read": a.read,
                    "active": a.active,
                    "slack": sigma - a.active,
                    "step_time": a.active,
                    "n_steps": member.n_steps,
                    "sigma": sigma,
                }
            )
    return rows


def surrogate_resilience(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    model: FailureModel,
    policy: RecoveryPolicy,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    stages: Optional[Dict[str, MemberStages]] = None,
) -> SurrogateReport:
    """Predict expected failure cost of a placement in closed form.

    Combines the analytic steady-state stage prediction
    (:func:`~repro.runtime.analytic.predict_member_stages`) with the
    model's :class:`~repro.faults.models.HazardProfile` and the
    policy's expected crash response — no DES execution. Costs
    microseconds per candidate, which is what lets the planner search
    with robustness in the loop.

    Parameters
    ----------
    spec / placement:
        The ensemble and the candidate placement to price.
    model:
        A failure model with an analytic hazard
        (:meth:`~repro.faults.models.FailureModel.hazard`); a
        :class:`~repro.faults.models.ScheduledFailureModel` raises.
    policy:
        The recovery policy whose expected delay is priced.
    cluster / dtl:
        Platform overrides, as for the analytic predictor.
    stages:
        Precomputed :func:`~repro.runtime.analytic
        .predict_member_stages` result for this (spec, placement,
        cluster, dtl); pass it when the caller already predicted the
        stages (as :func:`~repro.scheduler.objectives.score_placement`
        does) to avoid predicting twice per candidate.

    Returns
    -------
    SurrogateReport
        Expected makespan, inflation, efficiency, and fault counts.

    Raises
    ------
    ValidationError
        If the model has no analytic hazard profile.

    Examples
    --------
    A zero-rate model predicts exactly the failure-free baseline:

    >>> from repro.faults.models import NoFailureModel
    >>> from repro.faults.recovery import RetryBackoffPolicy
    >>> from repro.runtime.placement import pack_members_per_node
    >>> from repro.runtime.spec import EnsembleSpec, default_member
    >>> spec = EnsembleSpec("demo", (default_member("em1", n_steps=8),))
    >>> report = surrogate_resilience(
    ...     spec, pack_members_per_node(spec), NoFailureModel(),
    ...     RetryBackoffPolicy())
    >>> report.expected_inflation
    1.0
    """
    hazard = model.hazard()
    if stages is None:
        stages = predict_member_stages(
            spec, placement, cluster=cluster, dtl=dtl
        )
    rows = _component_rows(spec, placement, stages)
    # the kind mix of a simulation (False) and of an analysis (True)
    weights_of = {
        side: hazard.weights_over(_allowed_kinds(side))
        for side in (False, True)
    }

    # expected number of crash actions across the run (adaptive budget)
    expected_crashes = 0.0
    for row in rows:
        if hazard.node_level:
            crash_w = 1.0
        else:
            crash_w = weights_of[row["is_analysis"]].get(FaultKind.CRASH, 0.0)
        expected_crashes += hazard.site_rate * crash_w * row["n_steps"]

    # per-component expected stretch and lost work per *event*
    per_member_stretch: Dict[str, float] = {}
    per_member_faults: Dict[str, float] = {}
    per_member_lost: Dict[str, float] = {}
    analyses_of: Dict[str, List[dict]] = {}
    for row in rows:
        if row["is_analysis"]:
            analyses_of.setdefault(row["member"], []).append(row)

    def crash_cost(row: dict) -> Tuple[float, float]:
        """(expected stretch, expected lost work) of one crash."""
        magnitude = hazard.magnitudes.get(FaultKind.CRASH, 0.5)
        burn = magnitude * row["crash_stage"]
        response = expected_crash_response(
            policy,
            step_time=row["step_time"],
            n_steps=row["n_steps"],
            is_analysis=row["is_analysis"],
            expected_crashes=expected_crashes,
        )
        overhead = burn + response.delay
        stretch = (1.0 - response.drop_fraction) * max(
            0.0, overhead - row["slack"]
        )
        return stretch, burn

    if hazard.node_level:
        # one event per (node, step): every co-located component
        # crashes; concurrent recovery means the member's stretch is
        # the max over its components on that node.
        by_node: Dict[int, List[dict]] = {}
        for row in rows:
            by_node.setdefault(row["node"], []).append(row)
        for node_rows in by_node.values():
            by_member: Dict[str, List[dict]] = {}
            for row in node_rows:
                by_member.setdefault(row["member"], []).append(row)
            for member_name, comp_rows in by_member.items():
                n_steps = comp_rows[0]["n_steps"]
                events = hazard.site_rate * n_steps
                stretches, losts = zip(*(crash_cost(r) for r in comp_rows))
                per_member_stretch[member_name] = (
                    per_member_stretch.get(member_name, 0.0)
                    + events * max(stretches)
                )
                per_member_faults[member_name] = (
                    per_member_faults.get(member_name, 0.0)
                    + events * len(comp_rows)
                )
                per_member_lost[member_name] = (
                    per_member_lost.get(member_name, 0.0)
                    + events * sum(losts)
                )
    else:
        for row in rows:
            weights = weights_of[row["is_analysis"]]
            if not weights:
                continue
            events = hazard.site_rate * row["n_steps"]
            stretch = 0.0
            lost = 0.0
            for kind, weight in weights.items():
                magnitude = hazard.magnitudes.get(kind, 0.0)
                if kind is FaultKind.CRASH:
                    crash_stretch, crash_lost = crash_cost(row)
                    stretch += weight * crash_stretch
                    lost += weight * crash_lost
                elif kind is FaultKind.STRAGGLER:
                    extra = (magnitude - 1.0) * row["crash_stage"]
                    stretch += weight * max(0.0, extra - row["slack"])
                    lost += weight * extra
                elif kind is FaultKind.STALL:
                    stretch += weight * max(0.0, magnitude - row["slack"])
                    lost += weight * magnitude
                elif kind in CHUNK_KINDS:
                    # scheduled on the producer, paid by every consumer
                    consumer_excess = [
                        max(0.0, magnitude + a["read"] - a["slack"])
                        for a in analyses_of.get(row["member"], [])
                    ]
                    if consumer_excess:
                        stretch += weight * max(consumer_excess)
                        lost += weight * sum(
                            magnitude + a["read"]
                            for a in analyses_of[row["member"]]
                        )
            per_member_stretch[row["member"]] = (
                per_member_stretch.get(row["member"], 0.0) + events * stretch
            )
            per_member_faults[row["member"]] = (
                per_member_faults.get(row["member"], 0.0) + events
            )
            per_member_lost[row["member"]] = (
                per_member_lost.get(row["member"], 0.0) + events * lost
            )

    forecasts: List[MemberForecast] = []
    useful_work = 0.0
    n_components = 0
    for member in spec.members:
        ms = stages[member.name]
        sigma = non_overlapped_segment(ms)
        drain = (
            ms.simulation.active
            + max(a.active for a in ms.analyses)
            - sigma
        )
        baseline = member.n_steps * sigma + drain
        forecasts.append(
            MemberForecast(
                name=member.name,
                baseline_makespan=baseline,
                expected_makespan=baseline
                + per_member_stretch.get(member.name, 0.0),
                expected_faults=per_member_faults.get(member.name, 0.0),
                expected_lost_work=per_member_lost.get(member.name, 0.0),
            )
        )
        useful_work += member.n_steps * (
            ms.simulation.active + sum(a.active for a in ms.analyses)
        )
        n_components += 1 + member.num_couplings

    baseline_ens = max(f.baseline_makespan for f in forecasts)
    expected_ens = max(f.expected_makespan for f in forecasts)
    return SurrogateReport(
        members=tuple(forecasts),
        baseline_makespan=baseline_ens,
        expected_makespan=expected_ens,
        effective_efficiency=useful_work / (expected_ens * n_components),
        expected_faults=sum(f.expected_faults for f in forecasts),
        node_level=hazard.node_level,
    )


def _allowed_kinds(is_analysis: bool) -> Tuple[FaultKind, ...]:
    """Kinds a component can experience (analyses skip chunk kinds)."""
    if is_analysis:
        return tuple(k for k in FaultKind if k not in CHUNK_KINDS)
    return tuple(FaultKind)


#: builds a placement-specific failure model (node-level models need
#: the candidate placement to define their fault domains).
ModelBuilder = Callable[[EnsemblePlacement], FailureModel]


@dataclass
class RobustnessTerm:
    """A robustness objective term for the planner's search loop.

    Carries the failure regime (a model, or a builder when the model
    is placement-specific — node-level domains are), the recovery
    policy, and the penalty weight. The scheduler's
    :func:`~repro.scheduler.objectives.score_placement` subtracts
    ``weight * (E[inflation] - 1)`` from F(P), so a placement that
    looks optimal in steady state but concentrates fault domains pays
    for its fragility *during* the search, not in a post-hoc re-rank.

    Parameters
    ----------
    policy:
        Recovery policy priced by the surrogate.
    model:
        Failure model shared by every candidate (component-level
        models are placement-independent).
    model_builder:
        Alternative: a callable building a model per candidate
        placement; use for :class:`~repro.faults.models
        .NodeFailureModel`. Exactly one of ``model`` /
        ``model_builder`` must be given.
    weight:
        Penalty weight on the expected excess inflation (>= 0).

    Examples
    --------
    >>> from repro.faults.models import RandomFailureModel
    >>> from repro.faults.recovery import RetryBackoffPolicy
    >>> term = RobustnessTerm(policy=RetryBackoffPolicy(),
    ...                       model=RandomFailureModel(rate=0.05))
    >>> term.weight
    1.0
    """

    policy: RecoveryPolicy
    model: Optional[FailureModel] = None
    model_builder: Optional[ModelBuilder] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if (self.model is None) == (self.model_builder is None):
            raise ValidationError(
                "exactly one of model / model_builder must be given"
            )
        require_non_negative("weight", self.weight)

    def model_for(self, placement: EnsemblePlacement) -> FailureModel:
        """The failure model to price ``placement`` under."""
        if self.model_builder is not None:
            return self.model_builder(placement)
        return self.model

    def penalty(
        self,
        spec: EnsembleSpec,
        placement: EnsemblePlacement,
        *,
        stages: Dict[str, MemberStages],
    ) -> float:
        """``weight * (E[inflation] - 1)`` for one candidate placement.

        ``stages`` are the placement's predicted stages on the scorer's
        platform; the surrogate prices the failure cost on them.
        """
        report = surrogate_resilience(
            spec,
            placement,
            self.model_for(placement),
            self.policy,
            stages=stages,
        )
        return self.weight * (report.expected_inflation - 1.0)


def node_crash_builder(
    rate: float, seed: int = 0, crash_point: float = 0.5
) -> ModelBuilder:
    """A :class:`RobustnessTerm` builder for node-level crash domains.

    Examples
    --------
    >>> build = node_crash_builder(rate=0.02)
    >>> from repro.runtime.placement import EnsemblePlacement
    >>> from repro.runtime.placement import MemberPlacement
    >>> model = build(EnsemblePlacement(1, (MemberPlacement(0, (0,)),)))
    >>> model.rate
    0.02
    """
    from repro.faults.models import NodeFailureModel

    def build(placement: EnsemblePlacement) -> FailureModel:
        return NodeFailureModel(
            placement, rate=rate, seed=seed, crash_point=crash_point
        )

    return build


def node_crash_term(
    rate: float, policy: str = "retry", weight: float = 1.0
) -> Optional[RobustnessTerm]:
    """The node-crash :class:`RobustnessTerm` at ``rate``, or None at 0.

    Node-level crash domains (:func:`node_crash_builder`) priced under
    the recovery policy named ``policy``, weighted by ``weight``: the
    term ``plan --robust-rate``, service requests and co-scheduling
    admission all search with. A rate outside ``[0, 1]`` is rejected.

    Examples
    --------
    >>> node_crash_term(0.0) is None
    True
    >>> term = node_crash_term(0.05, "restart", weight=2.0)
    >>> term.policy.name, term.weight
    ('restart', 2.0)
    >>> node_crash_term(-1.0)
    Traceback (most recent call last):
        ...
    repro.util.errors.ValidationError: rate must lie in [0, 1], got -1.0
    """
    if not 0.0 <= rate <= 1.0:
        raise ValidationError(f"rate must lie in [0, 1], got {rate!r}")
    if rate == 0:
        return None
    return RobustnessTerm(
        policy=make_policy(policy),
        model_builder=node_crash_builder(rate),
        weight=weight,
    )
