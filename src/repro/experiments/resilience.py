"""Resilience sweep: robust F(P) over failure rates x recovery policies.

Goes beyond the paper's ideal steady state: every configuration in the
candidate set (by default the paper's C1 placements plus two C2
book-ends) is executed under fault injection at several failure rates,
once per recovery policy, and ranked by the *robust* objective — mean
F(P^{U,A,P}) measured from the perturbed traces. The table answers two
questions the ideal analysis cannot:

1. Does the paper's co-location ranking survive failures? (Mostly yes
   at low rates; high rates compress the spread as recovery overhead
   dominates stage composition.)
2. Which recovery policy preserves the most objective per unit of
   failure rate for a given placement shape?

Columns: ``config, rate, policy, F_ideal, F_robust, inflation,
goodput, rank`` — ``rank`` orders configurations within one
``(rate, policy)`` cell by robust F, best first.

A second experiment, :func:`run_surrogate_validation`, validates the
closed-form robustness surrogate (:mod:`repro.faults.analytic`)
against DES trials: for every (config, rate) cell it tabulates the
surrogate's expected inflation, the DES mean inflation, and their
relative error — the table reproduced in ``docs/FAULT_MODELS.md``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.configs.base import build_spec
from repro.configs.table2 import TABLE2_CONFIGS
from repro.configs.table4 import TABLE4_CONFIGS
from repro.experiments.base import ExperimentResult
from repro.faults.analytic import surrogate_resilience
from repro.faults.models import FaultKind, RandomFailureModel
from repro.faults.recovery import POLICY_NAMES, make_policy
from repro.monitoring.resilience import surrogate_agreement
from repro.runtime.analytic import predict_member_stages
from repro.runtime.executor import EnsembleExecutor
from repro.scheduler.robust import (
    crash_straggler_factory,
    robust_score_placement,
)
from repro.util.errors import ValidationError
from repro.util.validation import require_positive_int

#: the paper's one-analysis C1 set plus the C2 book-ends (two analyses).
DEFAULT_CONFIGS = ("C1.1", "C1.2", "C1.3", "C1.4", "C1.5", "C2.1", "C2.8")
#: per-site fault probabilities swept (>= 3 per the acceptance bar).
DEFAULT_RATES = (0.02, 0.05, 0.10)
#: fault kinds injected by the sweep's failure model.
DEFAULT_KINDS = (FaultKind.CRASH, FaultKind.STRAGGLER)


def run_resilience(
    config_names: Sequence[str] = DEFAULT_CONFIGS,
    rates: Sequence[float] = DEFAULT_RATES,
    policies: Sequence[str] = POLICY_NAMES,
    trials: int = 2,
    n_steps: int = 10,
    base_seed: int = 0,
    timing_noise: float = 0.0,
) -> ExperimentResult:
    """Sweep failure rates x recovery policies over the candidate set."""
    require_positive_int("trials", trials)
    require_positive_int("n_steps", n_steps)
    if not rates:
        raise ValidationError("at least one failure rate required")
    if not policies:
        raise ValidationError("at least one recovery policy required")
    all_configs = {**TABLE2_CONFIGS, **TABLE4_CONFIGS}
    unknown = [n for n in config_names if n not in all_configs]
    if unknown:
        raise ValidationError(
            f"unknown configurations {unknown}; valid: {sorted(all_configs)}"
        )

    rows: List[Dict] = []
    for ci, name in enumerate(config_names):
        config = all_configs[name]
        spec = build_spec(config, n_steps=n_steps)
        placement = config.placement()
        for ri, rate in enumerate(rates):
            factory = crash_straggler_factory(rate, DEFAULT_KINDS)
            for policy_name in policies:
                score = robust_score_placement(
                    spec,
                    placement,
                    factory,
                    make_policy(policy_name),
                    trials=trials,
                    # decorrelate fault schedules across sweep cells
                    base_seed=base_seed + 1009 * ci + 101 * ri,
                    timing_noise=timing_noise,
                    name=name,
                )
                rows.append(
                    {
                        "config": name,
                        "rate": rate,
                        "policy": policy_name,
                        "F_ideal": score.ideal_objective,
                        "F_robust": score.objective,
                        "inflation": score.mean_inflation,
                        "goodput": score.mean_goodput,
                        "rank": 0,  # assigned below
                    }
                )

    # rank configurations within each (rate, policy) cell by robust F
    for rate in rates:
        for policy_name in policies:
            cell = [
                r
                for r in rows
                if r["rate"] == rate and r["policy"] == policy_name
            ]
            for rank, row in enumerate(
                sorted(cell, key=lambda r: r["F_robust"], reverse=True),
                start=1,
            ):
                row["rank"] = rank
    rows.sort(key=lambda r: (r["rate"], r["policy"], r["rank"]))

    return ExperimentResult(
        experiment_id="resilience",
        title="robust F(P) under failure rates x recovery policies",
        columns=[
            "config",
            "rate",
            "policy",
            "F_ideal",
            "F_robust",
            "inflation",
            "goodput",
            "rank",
        ],
        rows=rows,
        notes=(
            f"{trials} fault-schedule draws per cell, {n_steps} steps, "
            f"kinds={'+'.join(k.value for k in DEFAULT_KINDS)}; rank is "
            "within each (rate, policy) cell, best robust F first"
        ),
    )


#: configurations validated by :func:`run_surrogate_validation`.
VALIDATION_CONFIGS = ("C1.1", "C1.4", "C2.1")
#: rate grid for the surrogate validation (spans rare to frequent).
VALIDATION_RATES = (0.01, 0.05, 0.10)


def run_surrogate_validation(
    config_names: Sequence[str] = VALIDATION_CONFIGS,
    rates: Sequence[float] = VALIDATION_RATES,
    policy: str = "retry",
    trials: int = 4,
    n_steps: int = 12,
    base_seed: int = 0,
) -> ExperimentResult:
    """Validate the analytic surrogate against DES inflation.

    For every (config, rate) cell: the surrogate's expected makespan
    inflation, the mean inflation over ``trials`` independent DES
    fault draws, and their relative error
    (:func:`~repro.monitoring.resilience.surrogate_agreement`). Only
    crash faults are injected — the kind every recovery policy
    handles — so the table isolates the surrogate's slack-absorption
    and recovery-delay model.

    Columns: ``config, rate, inflation_surrogate, inflation_des,
    rel_error``.
    """
    require_positive_int("trials", trials)
    require_positive_int("n_steps", n_steps)
    if not rates:
        raise ValidationError("at least one failure rate required")
    all_configs = {**TABLE2_CONFIGS, **TABLE4_CONFIGS}
    unknown = [n for n in config_names if n not in all_configs]
    if unknown:
        raise ValidationError(
            f"unknown configurations {unknown}; valid: {sorted(all_configs)}"
        )

    rows: List[Dict] = []
    for ci, name in enumerate(config_names):
        config = all_configs[name]
        spec = build_spec(config, n_steps=n_steps)
        placement = config.placement()
        stages = predict_member_stages(spec, placement)
        for ri, rate in enumerate(rates):
            report = surrogate_resilience(
                spec,
                placement,
                RandomFailureModel(
                    rate=rate, kinds=(FaultKind.CRASH,), seed=0
                ),
                make_policy(policy),
                stages=stages,
            )
            baseline = EnsembleExecutor(spec, placement).run()
            inflations = []
            for t in range(trials):
                result = EnsembleExecutor(
                    spec,
                    placement,
                    failure_model=RandomFailureModel(
                        rate=rate,
                        kinds=(FaultKind.CRASH,),
                        seed=base_seed + 1009 * ci + 101 * ri + t,
                    ),
                    recovery=make_policy(policy),
                ).run()
                inflations.append(
                    result.ensemble_makespan / baseline.ensemble_makespan
                )
            des_inflation = float(np.mean(inflations))
            rows.append(
                {
                    "config": name,
                    "rate": rate,
                    "inflation_surrogate": report.expected_inflation,
                    "inflation_des": des_inflation,
                    "rel_error": surrogate_agreement(
                        report.expected_inflation, inflations
                    ),
                }
            )

    return ExperimentResult(
        experiment_id="surrogate-validation",
        title="analytic robustness surrogate vs DES inflation",
        columns=[
            "config",
            "rate",
            "inflation_surrogate",
            "inflation_des",
            "rel_error",
        ],
        rows=rows,
        notes=(
            f"{trials} DES fault draws per cell, {n_steps} steps, "
            f"crash faults only, policy={policy!r}; rel_error = "
            "|surrogate - mean(DES)| / mean(DES)"
        ),
    )
