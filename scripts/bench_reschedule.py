#!/usr/bin/env python
"""Benchmark the closed rescheduling loop against a static placement.

One drift scenario with two built-in correctness gates. The scenario
is the canonical one the suite validates end to end: three members
packed one per node on a four-node allocation (one node idle), node 0
slowing down by a constant 2.5x from step 4 on. The static run rides
the drift; the closed loop detects it (windowed ratio test), re-plans
(warm-started annealer, migration-cost gated), and migrates off the
slow node at a step boundary.

Before the improvement is reported, two things must hold:

- **zero-drift byte-identity** — a run with the controller attached
  and no drift produces a stage trace record-for-record identical to
  a bare run (the telemetry/detector hooks are trace-invisible);
- **invariants under migration** — the drifted, rescheduled run passes
  every :class:`repro.verify.invariants.InvariantChecker` check
  (clock monotonicity, step ordering, segmented Eq. 1 periods across
  migrations, Eq. 3 efficiency bounds).

Both are reported as :class:`repro.verify.oracles.DivergenceReport`
payloads exactly like the other benchmark gates.

Writes ``BENCH_reschedule.json`` (makespans, improvement, controller
summary, correctness reports) and exits non-zero on regression:

- exit **1** — the improvement floor was missed (>= 15% full mode);
- exit **2** — a correctness divergence: the controller perturbed a
  zero-drift trace, or an invariant failed under migration.

``--check`` re-validates an existing results file against the floors
(and its stored correctness verdicts) without re-running anything.

Usage:
    python scripts/bench_reschedule.py [--smoke] [--output PATH]
    python scripts/bench_reschedule.py --check [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.reschedule import (  # noqa: E402
    DriftEvent,
    DriftKind,
    RescheduleController,
    StaticDriftModel,
)
from repro.runtime import run_ensemble  # noqa: E402
from repro.runtime.executor import EnsembleExecutor  # noqa: E402
from repro.runtime.placement import (  # noqa: E402
    EnsemblePlacement,
    MemberPlacement,
)
from repro.runtime.spec import EnsembleSpec, default_member  # noqa: E402
from repro.service.workers import ENGINE_SECTIONS  # noqa: E402
from repro.util.registry import Counters, counting  # noqa: E402
from repro.verify.oracles import (  # noqa: E402
    DivergenceReport,
    MetricCheck,
)

#: required makespan improvement of the closed loop over the static
#: placement — the regression floor CI enforces. Smoke mode's shorter
#: run leaves fewer post-migration steps to amortize the transfer
#: bill, hence the lower bar (same code path, same exactness gates).
IMPROVEMENT_FLOOR = 0.15
IMPROVEMENT_FLOOR_SMOKE = 0.10

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_reschedule.json"

NUM_NODES = 4
NUM_MEMBERS = 3
TIMING_NOISE = 0.02
SEED = 0

#: the drift: node 0 slows by a constant factor from step 4 on.
DRIFT_NODE = 0
DRIFT_MAGNITUDE = 2.5
DRIFT_START = 4

#: controller knobs — the validated operating point.
WINDOW = 4
THRESHOLD = 1.2
MIN_DWELL = 4
MAX_MIGRATIONS = 4

N_STEPS_FULL = 24
N_STEPS_SMOKE = 12


def _spec(n_steps: int) -> EnsembleSpec:
    return EnsembleSpec(
        "bench-reschedule",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=n_steps)
            for i in range(NUM_MEMBERS)
        ),
    )


def _placement() -> EnsemblePlacement:
    """Members packed one per node; the last node idle (the escape)."""
    return EnsemblePlacement(
        NUM_NODES,
        tuple(MemberPlacement(i, (i,)) for i in range(NUM_MEMBERS)),
    )


def _drift() -> StaticDriftModel:
    return StaticDriftModel(
        (
            DriftEvent(
                node=DRIFT_NODE,
                kind=DriftKind.STEP,
                start_step=DRIFT_START,
                magnitude=DRIFT_MAGNITUDE,
            ),
        )
    )


def _controller() -> RescheduleController:
    return RescheduleController(
        window=WINDOW,
        threshold=THRESHOLD,
        min_dwell=MIN_DWELL,
        max_migrations=MAX_MIGRATIONS,
    )


def check_byte_identity(n_steps: int) -> DivergenceReport:
    """Zero drift: the controller must be trace-invisible."""
    spec, placement = _spec(n_steps), _placement()
    bare = run_ensemble(
        spec, placement, seed=SEED, timing_noise=TIMING_NOISE
    )
    controller = _controller()
    watched = run_ensemble(
        spec,
        placement,
        seed=SEED,
        timing_noise=TIMING_NOISE,
        rescheduler=controller,
    )
    checks = [
        MetricCheck(
            "ensemble",
            "trace_records_identical",
            "bare-vs-controller",
            1.0,
            1.0 if watched.tracer.records == bare.tracer.records else 0.0,
            0.0,
        ),
        MetricCheck(
            "ensemble",
            "makespan",
            "bare-vs-controller",
            bare.ensemble_makespan,
            watched.ensemble_makespan,
            0.0,
        ),
        MetricCheck(
            "ensemble",
            "migrations",
            "bare-vs-controller",
            0.0,
            float(controller.migrations_executed),
            0.0,
        ),
    ]
    return DivergenceReport(
        scenario="bench-reschedule-byte-identity", checks=tuple(checks)
    )


def bench_scenario(n_steps: int) -> tuple:
    """Static vs closed-loop makespans under the canonical drift."""
    spec, placement = _spec(n_steps), _placement()

    t0 = time.perf_counter()
    static = run_ensemble(
        spec,
        placement,
        seed=SEED,
        timing_noise=TIMING_NOISE,
        drift=_drift(),
    )
    t_static = time.perf_counter() - t0

    controller = _controller()
    executor = EnsembleExecutor(
        spec=spec,
        placement=placement,
        seed=SEED,
        timing_noise=TIMING_NOISE,
        drift=_drift(),
        rescheduler=controller,
        verify=True,
    )
    with counting(Counters(**ENGINE_SECTIONS)) as registry:
        t0 = time.perf_counter()
        rescheduled = executor.run()
        t_rescheduled = time.perf_counter() - t0

    invariants = executor.invariant_report
    checks = [
        MetricCheck(
            "ensemble",
            "invariants_passed",
            "migration-invariants",
            1.0,
            1.0 if invariants is not None and invariants.passed else 0.0,
            0.0,
        ),
        MetricCheck(
            "ensemble",
            "invariant_violations",
            "migration-invariants",
            0.0,
            float(len(invariants.violations)) if invariants else 1.0,
            0.0,
        ),
        MetricCheck(
            "ensemble",
            "migrations_at_least_one",
            "migration-invariants",
            1.0,
            1.0 if controller.migrations_executed >= 1 else 0.0,
            0.0,
        ),
    ]
    report = DivergenceReport(
        scenario="bench-reschedule-invariants", checks=tuple(checks)
    )

    improvement = 1.0 - (
        rescheduled.ensemble_makespan / static.ensemble_makespan
    )
    row = {
        "num_nodes": NUM_NODES,
        "members": NUM_MEMBERS,
        "n_steps": n_steps,
        "timing_noise": TIMING_NOISE,
        "seed": SEED,
        "drift": {
            "node": DRIFT_NODE,
            "kind": "step",
            "magnitude": DRIFT_MAGNITUDE,
            "start_step": DRIFT_START,
        },
        "controller": {
            "window": WINDOW,
            "threshold": THRESHOLD,
            "min_dwell": MIN_DWELL,
            "max_migrations": MAX_MIGRATIONS,
        },
        "static_makespan": static.ensemble_makespan,
        "rescheduled_makespan": rescheduled.ensemble_makespan,
        "improvement": improvement,
        "static_seconds": t_static,
        "rescheduled_seconds": t_rescheduled,
        "summary": controller.summary(),
        "counters": registry.snapshot()["reschedule"],
        "invariant_checks": (
            invariants.checks_performed if invariants else 0
        ),
    }
    return row, report


def run(smoke: bool) -> dict:
    n_steps = N_STEPS_SMOKE if smoke else N_STEPS_FULL
    identity_report = check_byte_identity(min(n_steps, 8))
    scenario, invariant_report = bench_scenario(n_steps)
    return {
        "benchmark": "reschedule",
        "mode": "smoke" if smoke else "full",
        "floors": {
            "improvement": (
                IMPROVEMENT_FLOOR_SMOKE if smoke else IMPROVEMENT_FLOOR
            )
        },
        "scenario": scenario,
        "correctness": [
            identity_report.to_dict(),
            invariant_report.to_dict(),
        ],
    }


def check_correctness(results: dict) -> bool:
    """Print stored divergence reports; False on any divergence."""
    ok = True
    for payload in results.get("correctness", []):
        status = "ok" if payload["passed"] else "DIVERGED"
        print(
            f"{payload['scenario']}: correctness {status} "
            f"({payload['num_checks']} checks, "
            f"{payload['num_failures']} failures)"
        )
        for failure in payload["failures"]:
            print(
                f"  FAIL [{failure['paths']}] "
                f"{failure['scope']}/{failure['metric']}: "
                f"ref={failure['reference']!r} got={failure['candidate']!r}"
            )
        if not payload["passed"]:
            ok = False
    return ok


def check_floors(results: dict) -> bool:
    improvement = results["scenario"]["improvement"]
    floor = results["floors"]["improvement"]
    status = "ok" if improvement >= floor else "BELOW FLOOR"
    print(
        f"improvement: {improvement:.1%} (floor {floor:.0%}) {status}"
    )
    return improvement >= floor


def main() -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the closed rescheduling loop against a static "
            "placement under drift."
        )
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shorter run (CI smoke mode)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate an existing results file against the floors",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"results file (default: {DEFAULT_OUTPUT.name})",
    )
    args = parser.parse_args()

    if args.check:
        if not args.output.exists():
            print(f"no results file at {args.output}", file=sys.stderr)
            return 1
        results = json.loads(args.output.read_text())
        if not check_correctness(results):
            return 2
        return 0 if check_floors(results) else 1

    results = run(smoke=args.smoke)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    row = results["scenario"]
    print(
        f"scenario: {row['members']} members / {row['num_nodes']} nodes, "
        f"node {row['drift']['node']} x{row['drift']['magnitude']} from "
        f"step {row['drift']['start_step']} (n_steps={row['n_steps']})"
    )
    print(
        f"  static {row['static_makespan']:.2f}s -> rescheduled "
        f"{row['rescheduled_makespan']:.2f}s "
        f"({row['summary']['migrations']} migrations, "
        f"{row['summary']['replans_triggered']} replans)"
    )
    if not check_correctness(results):
        return 2
    return 0 if check_floors(results) else 1


if __name__ == "__main__":
    sys.exit(main())
