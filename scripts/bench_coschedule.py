#!/usr/bin/env python
"""Benchmark cluster co-scheduling against FIFO-exclusive provisioning.

One scenario with two built-in correctness gates. The scenario is the
canonical mixed-deadline stream the suite validates end to end: four
ensembles with staggered arrivals — alternating tight-deadline
high-priority and lax best-effort — co-resident on a six-node
cluster. The FIFO-exclusive baseline hands each ensemble the whole
machine in arrival order (the paper's one-ensemble-at-a-time
provisioning); the co-scheduler partitions nodes across residents and
re-partitions on every membership event.

Before the utilization gain is reported, two things must hold:

- **determinism** — two independent :class:`repro.coschedule
  .CoScheduler` runs of the stream produce byte-identical admission
  logs and result digests;
- **degeneration** — a single-request stream returns a winner
  float-identical to calling the search's ``find_best_placement``
  directly (the complete-partition rule at work).

Both are reported as :class:`repro.verify.oracles.DivergenceReport`
payloads exactly like the other benchmark gates.

Writes ``BENCH_coschedule.json`` (utilizations, gain, decision
summary, correctness reports) and exits non-zero on regression:

- exit **1** — the utilization floor was missed (co-scheduled must
  beat FIFO-exclusive by >= 20%);
- exit **2** — a correctness divergence: non-deterministic decisions
  or a degeneration mismatch.

``--check`` re-validates an existing results file against the floors
(and its stored correctness verdicts) without re-running anything.

Usage:
    python scripts/bench_coschedule.py [--smoke] [--output PATH]
    python scripts/bench_coschedule.py --check [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.coschedule import (  # noqa: E402
    CoScheduler,
    EnsembleRequest,
    canonical_mixed_deadline_stream,
    fifo_exclusive_schedule,
)
from repro.coschedule.scenarios import (  # noqa: E402
    CANONICAL_ARRIVAL_SPACING,
    CANONICAL_CORES_PER_NODE,
    CANONICAL_NUM_REQUESTS,
    CANONICAL_TOTAL_NODES,
)
from repro.search.engine import find_best_placement  # noqa: E402
from repro.service.workers import ENGINE_SECTIONS  # noqa: E402
from repro.util.registry import Counters, counting  # noqa: E402
from repro.verify.oracles import (  # noqa: E402
    DivergenceReport,
    MetricCheck,
)

#: required utilization gain of the co-scheduler over FIFO-exclusive —
#: the regression floor CI enforces. Smoke mode trims the stream to
#: two ensembles (less overlap to exploit), hence the lower bar.
UTILIZATION_FLOOR = 1.20
UTILIZATION_FLOOR_SMOKE = 1.05

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_coschedule.json"

NUM_REQUESTS_FULL = CANONICAL_NUM_REQUESTS
NUM_REQUESTS_SMOKE = 2


def _stream(num_requests: int):
    return canonical_mixed_deadline_stream(num_requests=num_requests)


def check_determinism(num_requests: int) -> DivergenceReport:
    """Two independent runs must agree byte for byte."""
    runs = [
        CoScheduler(
            total_nodes=CANONICAL_TOTAL_NODES,
            cores_per_node=CANONICAL_CORES_PER_NODE,
        ).run(_stream(num_requests))
        for _ in range(2)
    ]
    checks = [
        MetricCheck(
            "cluster",
            "decisions_digest_identical",
            "run-vs-run",
            1.0,
            1.0
            if runs[0].decisions_digest() == runs[1].decisions_digest()
            else 0.0,
            0.0,
        ),
        MetricCheck(
            "cluster",
            "result_digest_identical",
            "run-vs-run",
            1.0,
            1.0 if runs[0].digest() == runs[1].digest() else 0.0,
            0.0,
        ),
        MetricCheck(
            "cluster",
            "utilization",
            "run-vs-run",
            runs[0].utilization,
            runs[1].utilization,
            0.0,
        ),
    ]
    return DivergenceReport(
        scenario="bench-coschedule-determinism", checks=tuple(checks)
    )


def check_degeneration() -> DivergenceReport:
    """A one-request stream must equal the direct search exactly."""
    spec = _stream(1)[0].spec
    direct, _ = find_best_placement(
        spec, CANONICAL_TOTAL_NODES, CANONICAL_CORES_PER_NODE
    )
    result = CoScheduler(
        total_nodes=CANONICAL_TOTAL_NODES,
        cores_per_node=CANONICAL_CORES_PER_NODE,
    ).run([EnsembleRequest(name=spec.name, spec=spec)])
    score = result.completions[0].score
    checks = [
        MetricCheck(
            "cluster",
            "objective",
            "search-vs-coschedule",
            direct.objective,
            score.objective,
            0.0,
        ),
        MetricCheck(
            "cluster",
            "makespan",
            "search-vs-coschedule",
            direct.ensemble_makespan,
            score.ensemble_makespan,
            0.0,
        ),
        MetricCheck(
            "cluster",
            "same_placement",
            "search-vs-coschedule",
            1.0,
            1.0 if score.placement == direct.placement else 0.0,
            0.0,
        ),
    ]
    return DivergenceReport(
        scenario="bench-coschedule-degeneration", checks=tuple(checks)
    )


def bench_scenario(num_requests: int) -> dict:
    """Co-scheduled vs FIFO-exclusive on the canonical stream."""
    stream = _stream(num_requests)

    t0 = time.perf_counter()
    fifo = fifo_exclusive_schedule(
        stream, CANONICAL_TOTAL_NODES, CANONICAL_CORES_PER_NODE
    )
    t_fifo = time.perf_counter() - t0

    with counting(Counters(**ENGINE_SECTIONS)) as registry:
        t0 = time.perf_counter()
        result = CoScheduler(
            total_nodes=CANONICAL_TOTAL_NODES,
            cores_per_node=CANONICAL_CORES_PER_NODE,
        ).run(stream)
        t_coscheduled = time.perf_counter() - t0

    gain = (
        result.utilization / fifo.utilization
        if fifo.utilization > 0
        else float("inf")
    )
    return {
        "total_nodes": CANONICAL_TOTAL_NODES,
        "cores_per_node": CANONICAL_CORES_PER_NODE,
        "num_requests": num_requests,
        "arrival_spacing": CANONICAL_ARRIVAL_SPACING,
        "fifo_utilization": fifo.utilization,
        "coscheduled_utilization": result.utilization,
        "utilization_gain": gain,
        "fifo_makespan": fifo.makespan,
        "coscheduled_makespan": result.makespan,
        "admitted": len(result.admitted),
        "rejected": len(result.rejected),
        "completions": len(result.completions),
        "deadlines_met": sum(
            1
            for c in result.completions
            if c.met_deadline is not False
        ),
        "decisions_digest": result.decisions_digest(),
        "result_digest": result.digest(),
        "fifo_seconds": t_fifo,
        "coscheduled_seconds": t_coscheduled,
        "counters": registry.snapshot()["coschedule"],
    }


def run(smoke: bool) -> dict:
    num_requests = NUM_REQUESTS_SMOKE if smoke else NUM_REQUESTS_FULL
    determinism_report = check_determinism(num_requests)
    degeneration_report = check_degeneration()
    scenario = bench_scenario(num_requests)
    return {
        "benchmark": "coschedule",
        "mode": "smoke" if smoke else "full",
        "floors": {
            "utilization_gain": (
                UTILIZATION_FLOOR_SMOKE if smoke else UTILIZATION_FLOOR
            )
        },
        "scenario": scenario,
        "correctness": [
            determinism_report.to_dict(),
            degeneration_report.to_dict(),
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
    gain = results["scenario"]["utilization_gain"]
    floor = results["floors"]["utilization_gain"]
    status = "ok" if gain >= floor else "BELOW FLOOR"
    print(f"utilization gain: {gain:.2f}x (floor {floor:.2f}x) {status}")
    return gain >= floor


def main() -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark cluster co-scheduling of the canonical "
            "mixed-deadline stream against FIFO-exclusive provisioning."
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
        f"scenario: {row['num_requests']} ensembles / "
        f"{row['total_nodes']} nodes, arrivals every "
        f"{row['arrival_spacing']:g}s"
    )
    print(
        f"  FIFO-exclusive {row['fifo_utilization']:.3f} -> "
        f"co-scheduled {row['coscheduled_utilization']:.3f} "
        f"({row['utilization_gain']:.2f}x, "
        f"{row['admitted']} admitted, "
        f"{row['deadlines_met']} deadlines met)"
    )
    if not check_correctness(results):
        return 2
    return 0 if check_floors(results) else 1


if __name__ == "__main__":
    sys.exit(main())
