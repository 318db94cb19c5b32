"""Differential oracle harness: one scenario, every evaluation path.

The repo evaluates a placement four independent ways — the closed-form
steady-state model (:mod:`repro.runtime.analytic`, Eqs. 1-3, 5-9), the
memoized search path (:mod:`repro.search`), the analytic fault
surrogate (:mod:`repro.faults.analytic`), and the DES executor
(:mod:`repro.runtime.executor`). The paper's claims are only as
trustworthy as the agreement between those paths, so this module runs
the *same* ``(spec, placement)`` through all of them and asserts
structured agreement in three tiers:

- **Tier 0 (exact)** — paths that share the effective-stage model must
  agree bit-for-bit: :class:`~repro.search.cache.StageCache` stages vs
  the uncached predictor,
  :func:`~repro.scheduler.objectives.score_placement` vs the uncached
  :func:`~repro.search.reference.score_placement_reference`, the
  surrogate's failure-free baseline, and — when a service URL is
  given — a score obtained through the placement service's HTTP API
  (:mod:`repro.service`), proving the JSON wire format is lossless.
  Tolerance is literally 0.0. The numpy batch kernel
  (:mod:`repro.search.vectorized`) joins as its own tier, also at
  0.0: it repeats the scalar scorer's float operations in order.
- **Tier 1 (tolerance-banded)** — the DES executor adds protocol
  dynamics; its noise-free steady-state estimates must match the
  analytic prediction within per-metric relative tolerances
  (:data:`DEFAULT_TOLERANCES`).
- **Tier 2 (envelope)** — under fault injection, the first-order
  surrogate tracks the DES trial mean within the accuracy envelope
  documented in ``docs/FAULT_MODELS.md``.

Every comparison is a :class:`MetricCheck` inside a machine-readable
:class:`DivergenceReport` (``to_dict``/``to_text``), so CI, the
benchmarks, and debugging sessions all see *which* metric diverged,
by how much, and against which tolerance — a perf regression and a
correctness regression are never confused.

The ``predictor`` and ``score_fn`` hooks exist so the test suite can
prove the harness has teeth: substituting a mutated copy (e.g. an
off-by-one in the Eq. 1 period) must produce a failing report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.indicators import FINAL_STAGE_ORDER
from repro.core.insitu import non_overlapped_segment
from repro.core.stages import MemberStages
from repro.dtl.base import DataTransportLayer
from repro.faults.models import FailureModel, NoFailureModel
from repro.faults.recovery import RecoveryPolicy, RetryBackoffPolicy
from repro.platform.cluster import Cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.runner import run_ensemble
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.search.cache import StageCache
from repro.search.canonical import placement_to_assignment
from repro.util.errors import ValidationError

#: Per-metric relative tolerances of the banded tiers. ``0.0`` means
#: the comparison is exact (bit-identical floats). The values are the
#: single source the test suite's ``tests/tolerances.py`` re-exports.
DEFAULT_TOLERANCES: Dict[str, float] = {
    # tier 0: memoized/cached paths vs their reference implementations
    "cache": 0.0,
    # tier 0: the numpy batch kernel vs the scalar scorer — the kernel
    # repeats the scalar operations in order, so it is exact too
    "vectorized": 0.0,
    # tier 1: analytic steady state vs noise-free DES estimates
    "stage": 1e-6,
    "makespan": 1e-6,
    "indicator": 1e-5,
    "objective": 1e-5,
    # tier 2: first-order fault surrogate vs DES trial mean
    "surrogate": 0.15,
    # tier 0: the batched delta-replay engine vs serial DES trials —
    # exact for replayable recovery policies (retry, restart, drop)...
    "batched": 0.0,
    # ...and banded for the adaptive policy, whose budget drains in
    # global event order the per-member replay can only approximate
    "batched_adaptive": 0.05,
    # tier 0: a one-ensemble stream through the cluster co-scheduler
    # vs calling find_best_placement directly — the complete-partition
    # rule makes the degeneration float-identical
    "coschedule": 0.0,
}


@dataclass(frozen=True)
class MetricCheck:
    """One structured comparison between two evaluation paths.

    ``tolerance`` is relative; ``0.0`` demands exact float equality.
    ``scope`` names the member (or ``"ensemble"``), ``metric`` the
    quantity, and ``paths`` the two implementations compared.
    """

    scope: str
    metric: str
    paths: str
    reference: float
    candidate: float
    tolerance: float

    @property
    def error(self) -> float:
        """Relative error (absolute when the reference is ~zero)."""
        if self.reference == self.candidate:
            return 0.0
        denom = max(abs(self.reference), abs(self.candidate))
        if denom == 0.0:
            return 0.0
        return abs(self.reference - self.candidate) / denom

    @property
    def ok(self) -> bool:
        if self.tolerance == 0.0:
            return self.reference == self.candidate
        if math.isnan(self.reference) or math.isnan(self.candidate):
            return False
        return self.error <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "metric": self.metric,
            "paths": self.paths,
            "reference": self.reference,
            "candidate": self.candidate,
            "tolerance": self.tolerance,
            "error": self.error,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class DivergenceReport:
    """Machine-readable outcome of one differential-oracle run."""

    scenario: str
    checks: Tuple[MetricCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> Tuple[MetricCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "num_checks": len(self.checks),
            "num_failures": len(self.failures),
            "failures": [c.to_dict() for c in self.failures],
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self, verbose: bool = False) -> str:
        status = "ok" if self.passed else "DIVERGED"
        lines = [
            f"{self.scenario}: {status} "
            f"({len(self.checks)} checks, {len(self.failures)} failures)"
        ]
        shown = self.checks if verbose else self.failures
        for c in shown:
            mark = "ok " if c.ok else "FAIL"
            lines.append(
                f"  {mark} [{c.paths}] {c.scope}/{c.metric}: "
                f"ref={c.reference!r} got={c.candidate!r} "
                f"err={c.error:.3e} tol={c.tolerance:g}"
            )
        return "\n".join(lines)


#: Signature of the analytic stage predictor (the Tier-0/1 reference).
Predictor = Callable[..., Dict[str, MemberStages]]


def _member_drain_makespan(stages: MemberStages, n_steps: int) -> float:
    """Failure-free makespan with the pipeline tail: ``n*sigma + drain``."""
    sigma = non_overlapped_segment(stages)
    drain = (
        stages.simulation.active
        + max(a.active for a in stages.analyses)
        - sigma
    )
    return n_steps * sigma + drain


def _stage_floats(stages: MemberStages) -> List[Tuple[str, float]]:
    out = [
        ("sim.compute", stages.simulation.compute),
        ("sim.write", stages.simulation.write),
    ]
    for j, a in enumerate(stages.analyses):
        out.append((f"ana{j + 1}.read", a.read))
        out.append((f"ana{j + 1}.analyze", a.analyze))
    return out


def _service_checks(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    reference_score,
    service_url: str,
    tolerance: float,
) -> List[MetricCheck]:
    """Tier-0 checks of the HTTP service path against the direct scorer.

    The scenario travels the full wire: request serialization, HTTP
    submission, worker-side scoring, result serialization, and client
    deserialization. Every float must come back identical — the
    service tier is how the oracle proves
    :mod:`repro.service.schemas` is lossless.
    """
    from repro.service.client import PlacementClient
    from repro.service.schemas import PlacementRequest

    with PlacementClient(service_url) as client:
        snapshot = client.submit(
            PlacementRequest(
                kind="score",
                spec=spec,
                num_nodes=placement.num_nodes,
                placement=placement,
            )
        )
        service_score = client.result_score(client.wait(snapshot["id"]))
    checks = [
        MetricCheck(
            scope="ensemble",
            metric="objective",
            paths="score-vs-service",
            reference=reference_score.objective,
            candidate=service_score.objective,
            tolerance=tolerance,
        ),
        MetricCheck(
            scope="ensemble",
            metric="makespan",
            paths="score-vs-service",
            reference=reference_score.ensemble_makespan,
            candidate=service_score.ensemble_makespan,
            tolerance=tolerance,
        ),
        MetricCheck(
            scope="ensemble",
            metric="same_placement",
            paths="score-vs-service",
            reference=1.0,
            candidate=(
                1.0 if service_score.placement == placement else 0.0
            ),
            tolerance=tolerance,
        ),
    ]
    for member, ref_i, cand_i in zip(
        spec.members,
        reference_score.member_indicators,
        service_score.member_indicators,
    ):
        checks.append(
            MetricCheck(
                scope=member.name,
                metric="indicator",
                paths="score-vs-service",
                reference=ref_i,
                candidate=cand_i,
                tolerance=tolerance,
            )
        )
    return checks


def _default_coschedule_score(
    spec: EnsembleSpec, total_nodes: int, cores_per_node: int
):
    """Winning score of a one-ensemble stream through the co-scheduler."""
    from repro.coschedule import CoScheduler, EnsembleRequest

    result = CoScheduler(
        total_nodes=total_nodes, cores_per_node=cores_per_node
    ).run([EnsembleRequest(name=spec.name, spec=spec)])
    return result.completions[0].score


def run_differential_oracle(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    seed: int = 0,
    tolerances: Optional[Mapping[str, float]] = None,
    predictor: Optional[Predictor] = None,
    score_fn: Optional[Callable] = None,
    failure_model: Optional[FailureModel] = None,
    recovery: Optional[RecoveryPolicy] = None,
    fault_trials: int = 3,
    scenario: str = "adhoc",
    service_url: Optional[str] = None,
    fault_factory: Optional[Callable[[int], FailureModel]] = None,
    batched_score_fn: Optional[Callable] = None,
    coschedule_fn: Optional[Callable] = None,
) -> DivergenceReport:
    """Run one scenario through every evaluation path; report agreement.

    Parameters
    ----------
    spec / placement:
        The scenario under test.
    cluster / dtl:
        Platform context shared by all paths (Cori-like defaults).
    seed:
        DES seed (noise-free runs are seed-insensitive; kept for the
        fault tier's trial stream).
    tolerances:
        Per-metric overrides merged over :data:`DEFAULT_TOLERANCES`.
    predictor:
        Analytic stage predictor; defaults to
        :func:`~repro.runtime.analytic.predict_member_stages`. The
        hook exists so tests can inject a mutated copy and prove the
        oracle catches it.
    score_fn:
        Placement scorer compared against the reference scoring path
        (:func:`~repro.search.reference.score_placement_reference`),
        called as ``score_fn(spec, placement, context=...)`` with a
        fresh :class:`~repro.search.cache.StageCache` on the
        scenario's platform in a
        :class:`~repro.scheduler.context.PlanningContext`; defaults to
        :func:`~repro.scheduler.objectives.score_placement`. Same
        mutation hook as ``predictor``.
    failure_model / recovery / fault_trials:
        When a failure model is given, Tier 2 additionally compares
        the analytic surrogate's expected makespan against the mean of
        ``fault_trials`` DES trials.
    scenario:
        Label carried into the report.
    service_url:
        Base URL of a running placement service. When given (and the
        scenario uses the default platform context), the scenario is
        additionally scored through the HTTP API and the deserialized
        result must match the direct scorer *exactly* (tier 0) —
        objective, makespan, and every member indicator — proving the
        wire format is lossless.
    fault_factory:
        ``seed -> FailureModel``. When given, the batched delta-replay
        engine (:func:`~repro.faults.batched.batched_score_placement`)
        is compared against serial DES replication
        (:func:`~repro.scheduler.robust.robust_score_placement`) on
        the robust objective, ideal objective, mean inflation, and
        mean goodput. The tolerance is picked by
        :func:`~repro.faults.batched.replay_tier`: exact (0.0) for
        replayable recovery policies, banded for the adaptive policy.
    batched_score_fn:
        Batched scorer under test; defaults to
        :func:`~repro.faults.batched.batched_score_placement`. Same
        mutation hook as ``predictor`` — the tests substitute a scorer
        replaying a perturbed timeline and the oracle must fail.
    coschedule_fn:
        ``(spec, total_nodes, cores_per_node) -> PlacementScore``
        producing the winning score of a one-ensemble stream through
        the cluster co-scheduler; defaults to running
        :class:`~repro.coschedule.loop.CoScheduler`. Compared *exactly*
        (tier 0) against a direct
        :func:`~repro.search.engine.find_best_placement` call on the
        same cluster — the complete-partition rule guarantees the
        degeneration is float-identical. Only runs on the default
        platform context (the co-scheduler's own default). Same
        mutation hook as ``predictor``.

    Returns
    -------
    DivergenceReport
        Structured agreement report; ``passed`` is the verdict.
    """
    if fault_trials < 1:
        raise ValidationError(
            f"fault_trials must be >= 1, got {fault_trials!r}"
        )
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    predict = predictor or predict_member_stages
    score = score_fn or score_placement
    checks: List[MetricCheck] = []

    # -- reference path: the analytic steady state -------------------------
    analytic = predict(spec, placement, cluster=cluster, dtl=dtl)

    # -- tier 0: StageCache vs the uncached predictor ----------------------
    cache = StageCache(cluster, dtl)
    cached = cache.predict(spec, placement)
    for member in spec.members:
        for name, ref in _stage_floats(analytic[member.name]):
            cand = dict(_stage_floats(cached[member.name]))[name]
            checks.append(
                MetricCheck(
                    scope=member.name,
                    metric=f"stage:{name}",
                    paths="analytic-vs-cache",
                    reference=ref,
                    candidate=cand,
                    tolerance=tol["cache"],
                )
            )

    # -- tier 0: cached vs uncached scoring, and the score_fn under test ---
    from repro.search.reference import score_placement_reference

    reference_score = score_placement_reference(
        spec, placement, cluster=cluster, dtl=dtl
    )
    cached_score = score_placement(
        spec, placement, context=PlanningContext(cache=cache)
    )
    platform = PlanningContext(cache=StageCache(cluster, dtl))
    candidate_score = score(spec, placement, context=platform)
    for label, cand in (
        ("score-vs-cache", cached_score),
        ("score-vs-candidate", candidate_score),
    ):
        checks.append(
            MetricCheck(
                scope="ensemble",
                metric="objective",
                paths=label,
                reference=reference_score.objective,
                candidate=cand.objective,
                tolerance=tol["cache"],
            )
        )
        checks.append(
            MetricCheck(
                scope="ensemble",
                metric="makespan",
                paths=label,
                reference=reference_score.ensemble_makespan,
                candidate=cand.ensemble_makespan,
                tolerance=tol["cache"],
            )
        )
        for member, ref_i, cand_i in zip(
            spec.members,
            reference_score.member_indicators,
            cand.member_indicators,
        ):
            checks.append(
                MetricCheck(
                    scope=member.name,
                    metric="indicator",
                    paths=label,
                    reference=ref_i,
                    candidate=cand_i,
                    tolerance=tol["cache"],
                )
            )

    # -- tier 0: the HTTP service path vs the direct scorer ----------------
    if service_url is not None and cluster is None and dtl is None:
        checks.extend(
            _service_checks(
                spec, placement, reference_score, service_url, tol["cache"]
            )
        )

    # -- tier 0: the vectorized batch kernel vs the scalar scorer ----------
    # the kernel scores every context through the context's own models
    from repro.search.vectorized import VectorizedScorer

    scorer = VectorizedScorer(
        spec, placement.num_nodes, cache=StageCache(cluster, dtl)
    )
    batch = scorer.score_assignments([placement_to_assignment(placement)])
    checks.append(
        MetricCheck(
            scope="ensemble",
            metric="objective",
            paths="score-vs-vectorized",
            reference=reference_score.objective,
            candidate=float(batch.objectives[0]),
            tolerance=tol["vectorized"],
        )
    )
    checks.append(
        MetricCheck(
            scope="ensemble",
            metric="makespan",
            paths="score-vs-vectorized",
            reference=reference_score.ensemble_makespan,
            candidate=float(batch.makespans[0]),
            tolerance=tol["vectorized"],
        )
    )
    for member, ref_i, cand_i in zip(
        spec.members,
        reference_score.member_indicators,
        batch.indicators[0],
    ):
        checks.append(
            MetricCheck(
                scope=member.name,
                metric="indicator",
                paths="score-vs-vectorized",
                reference=ref_i,
                candidate=float(cand_i),
                tolerance=tol["vectorized"],
            )
        )

    # -- tier 1: noise-free DES vs the analytic steady state ---------------
    result = run_ensemble(
        spec, placement, cluster=cluster, dtl=dtl, seed=seed, timing_noise=0.0
    )
    des_indicators = result.indicator_values(FINAL_STAGE_ORDER)
    analytic_score = score_placement_reference(
        spec, placement, cluster=cluster, dtl=dtl, stages=analytic
    )
    for member, member_result, indicator in zip(
        spec.members, result.members, analytic_score.member_indicators
    ):
        pred = analytic[member.name]
        meas = member_result.stages
        pred_floats = dict(_stage_floats(pred))
        for name, value in _stage_floats(meas):
            checks.append(
                MetricCheck(
                    scope=member.name,
                    metric=f"stage:{name}",
                    paths="analytic-vs-des",
                    reference=pred_floats[name],
                    candidate=value,
                    tolerance=tol["stage"],
                )
            )
        checks.append(
            MetricCheck(
                scope=member.name,
                metric="makespan",
                paths="analytic-vs-des",
                reference=_member_drain_makespan(pred, member.n_steps),
                candidate=member_result.makespan,
                tolerance=tol["makespan"],
            )
        )
        checks.append(
            MetricCheck(
                scope=member.name,
                metric="indicator",
                paths="analytic-vs-des",
                reference=indicator,
                candidate=des_indicators[member.name],
                tolerance=tol["indicator"],
            )
        )
    checks.append(
        MetricCheck(
            scope="ensemble",
            metric="objective",
            paths="analytic-vs-des",
            reference=analytic_score.objective,
            candidate=result.objective(FINAL_STAGE_ORDER),
            tolerance=tol["objective"],
        )
    )

    # -- tier 0: the co-scheduler's one-ensemble degeneration --------------
    # a single-request stream must allocate the whole cluster to its
    # one resident and therefore reproduce find_best_placement's
    # winner float-for-float (only meaningful on the default context,
    # which is all the co-scheduler's admission/allocator paths use)
    if cluster is None and dtl is None:
        from repro.search.engine import find_best_placement

        cosched = coschedule_fn or _default_coschedule_score
        direct, _ = find_best_placement(
            spec,
            placement.num_nodes,
            32,
            context=PlanningContext(cache=cache),
        )
        co_score = cosched(spec, placement.num_nodes, 32)
        checks.append(
            MetricCheck(
                scope="ensemble",
                metric="objective",
                paths="search-vs-coschedule",
                reference=direct.objective,
                candidate=co_score.objective,
                tolerance=tol["coschedule"],
            )
        )
        checks.append(
            MetricCheck(
                scope="ensemble",
                metric="makespan",
                paths="search-vs-coschedule",
                reference=direct.ensemble_makespan,
                candidate=co_score.ensemble_makespan,
                tolerance=tol["coschedule"],
            )
        )
        checks.append(
            MetricCheck(
                scope="ensemble",
                metric="same_placement",
                paths="search-vs-coschedule",
                reference=1.0,
                candidate=(
                    1.0 if co_score.placement == direct.placement else 0.0
                ),
                tolerance=tol["coschedule"],
            )
        )
        for member, ref_i, cand_i in zip(
            spec.members,
            direct.member_indicators,
            co_score.member_indicators,
        ):
            checks.append(
                MetricCheck(
                    scope=member.name,
                    metric="indicator",
                    paths="search-vs-coschedule",
                    reference=ref_i,
                    candidate=cand_i,
                    tolerance=tol["coschedule"],
                )
            )

    # -- tier 0/2: the fault surrogate ------------------------------------
    from repro.faults.analytic import surrogate_resilience

    baseline = surrogate_resilience(
        spec,
        placement,
        NoFailureModel(),
        RetryBackoffPolicy(),
        cluster=cluster,
        dtl=dtl,
    )
    analytic_t0 = max(
        _member_drain_makespan(analytic[m.name], m.n_steps)
        for m in spec.members
    )
    checks.append(
        MetricCheck(
            scope="ensemble",
            metric="baseline_makespan",
            paths="analytic-vs-surrogate",
            reference=analytic_t0,
            candidate=baseline.baseline_makespan,
            tolerance=tol["cache"],
        )
    )

    if failure_model is not None:
        policy = recovery or RetryBackoffPolicy()
        report = surrogate_resilience(
            spec,
            placement,
            failure_model,
            policy,
            cluster=cluster,
            dtl=dtl,
        )
        total = 0.0
        for trial in range(fault_trials):
            trial_result = run_ensemble(
                spec,
                placement,
                cluster=cluster,
                dtl=dtl,
                seed=seed + trial,
                failure_model=failure_model,
                recovery=policy,
            )
            total += trial_result.ensemble_makespan
        checks.append(
            MetricCheck(
                scope="ensemble",
                metric="expected_makespan",
                paths="surrogate-vs-des",
                reference=total / fault_trials,
                candidate=report.expected_makespan,
                tolerance=tol["surrogate"],
            )
        )

    # -- tier 0/2: batched delta replay vs serial DES replication ----------
    if fault_factory is not None:
        from repro.faults.batched import batched_score_placement, replay_tier
        from repro.scheduler.robust import robust_score_placement

        policy = recovery or RetryBackoffPolicy()
        batched_score = batched_score_fn or batched_score_placement
        serial = robust_score_placement(
            spec,
            placement,
            fault_factory,
            policy,
            trials=fault_trials,
            base_seed=seed,
            cluster=cluster,
            dtl=dtl,
        )
        batched = batched_score(
            spec,
            placement,
            fault_factory,
            policy,
            trials=fault_trials,
            base_seed=seed,
            cluster=cluster,
            dtl=dtl,
        )
        band = (
            tol["batched"]
            if replay_tier(policy) == "exact"
            else tol["batched_adaptive"]
        )
        for metric, ref, cand in (
            ("objective", serial.objective, batched.objective),
            (
                "ideal_objective",
                serial.ideal_objective,
                batched.ideal_objective,
            ),
            ("mean_inflation", serial.mean_inflation, batched.mean_inflation),
            ("mean_goodput", serial.mean_goodput, batched.mean_goodput),
        ):
            checks.append(
                MetricCheck(
                    scope="ensemble",
                    metric=metric,
                    paths="serial-vs-batched",
                    reference=ref,
                    candidate=cand,
                    tolerance=band,
                )
            )

    return DivergenceReport(scenario=scenario, checks=tuple(checks))


def verify_scenarios(
    names: Optional[Sequence[str]] = None,
    n_steps: int = 6,
    include_faults: bool = False,
    tolerances: Optional[Mapping[str, float]] = None,
    include_service: bool = False,
) -> List[DivergenceReport]:
    """Run the oracle over the canonical Table 2 scenarios.

    ``names`` defaults to every Table 2 configuration; unknown names
    raise :class:`~repro.util.errors.ValidationError`. With
    ``include_faults`` each scenario additionally runs the Tier-2
    surrogate-vs-DES comparison under a seeded random crash/straggler
    model *and* the serial-vs-batched replication comparison (exact
    tier). With ``include_service`` an in-process placement service is
    booted on an ephemeral port and every scenario is also scored
    through its HTTP API, which must agree with the direct scorer
    exactly (tier 0).
    """
    from repro.configs.base import build_spec
    from repro.configs.table2 import TABLE2_CONFIGS
    from repro.faults.models import RandomFailureModel

    selected = list(names) if names else list(TABLE2_CONFIGS)
    unknown = [n for n in selected if n not in TABLE2_CONFIGS]
    if unknown:
        raise ValidationError(
            f"unknown Table 2 configurations: {unknown}; "
            f"valid: {sorted(TABLE2_CONFIGS)}"
        )
    server = None
    if include_service:
        from repro.service.api import make_server

        server = make_server(port=0, workers=2).start()
    try:
        reports: List[DivergenceReport] = []
        for name in selected:
            config = TABLE2_CONFIGS[name]
            spec = build_spec(config, n_steps=n_steps)
            model = (
                RandomFailureModel(rate=0.08, seed=11)
                if include_faults
                else None
            )
            factory = (
                (lambda s: RandomFailureModel(rate=0.08, seed=s))
                if include_faults
                else None
            )
            reports.append(
                run_differential_oracle(
                    spec,
                    config.placement(),
                    tolerances=tolerances,
                    failure_model=model,
                    scenario=name,
                    service_url=server.url if server is not None else None,
                    fault_factory=factory,
                )
            )
        return reports
    finally:
        if server is not None:
            server.stop()
