#!/usr/bin/env python
"""Benchmark batched delta-replay robust ranking against serial DES.

One measurement with a built-in exactness check: rank the same
candidate placements under the same failure model and recovery policy

- **serially** — :func:`repro.scheduler.robust.robust_score_placement`
  per candidate, sorted best first, re-simulating every fault replica
  as a full discrete-event execution (the seed path, kept as the
  reference);
- **batched** — :func:`repro.scheduler.robust.rank_placements_robust`
  with ``method="des"``, no DES run at all: each candidate's
  fault-free stage timeline is built from its effective stages, and
  every candidate's baseline plus fault schedules are delta-replayed
  in one sweep (:mod:`repro.faults.batched`).

Retry recovery is exactly replayable, so before any speedup is
reported every candidate's robust objective, ideal objective, mean
inflation, and mean goodput must agree *bit for bit* — reported as a
:class:`repro.verify.oracles.DivergenceReport` exactly like the other
benchmark gates.

Both rankings count their DES executions (``EnsembleExecutor.run``
calls): serial runs ``candidates x (trials + 1)``, batched must run 0.

Writes ``BENCH_robust.json`` (ranking speedup, DES runs per engine,
grid sizes, engine counters, correctness report) and exits non-zero on
regression:

- exit **1** — the >= 10x ranking-speedup floor was missed, or the
  batched ranking ran a DES;
- exit **2** — a correctness divergence: the batched engine disagreed
  with serial DES replication.

``--check`` re-validates an existing results file against the floors
(and its stored correctness verdicts) without re-running anything.

Usage:
    python scripts/bench_robust.py [--smoke] [--output PATH]
    python scripts/bench_robust.py --check [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.configs.generator import enumerate_placements  # noqa: E402
from repro.faults.recovery import RetryBackoffPolicy  # noqa: E402
from repro.runtime.executor import EnsembleExecutor  # noqa: E402
from repro.runtime.spec import EnsembleSpec, default_member  # noqa: E402
from repro.scheduler.robust import (  # noqa: E402
    crash_straggler_factory,
    rank_placements_robust,
    robust_score_placement,
)
from repro.service.workers import ENGINE_SECTIONS  # noqa: E402
from repro.util.registry import Counters, counting  # noqa: E402
from repro.verify.oracles import (  # noqa: E402
    DivergenceReport,
    MetricCheck,
)

#: required ranking speedup — the regression floor CI enforces. Smoke
#: mode's small replica grid amortizes the per-candidate capture and
#: per-call replay overhead far less, hence the lower bar (same code
#: path, same exactness gate).
RANKING_FLOOR = 10.0
RANKING_FLOOR_SMOKE = 2.0

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_robust.json"

NUM_NODES = 3
CORES_PER_NODE = 32
#: per-site per-step fault probability of the benchmark's model.
FAULT_RATE = 0.08
#: candidate placements ranked (evenly spaced over the canonical
#: enumeration so the shortlist spans packed through spread layouts).
NUM_CANDIDATES = 4

#: grid sizes: full mode is the gated measurement, smoke mode is the
#: CI sanity run (same code path, small enough for a PR gate).
TRIALS_FULL = 32
TRIALS_SMOKE = 6
N_STEPS_FULL = 16
N_STEPS_SMOKE = 8


def _spec(n_steps: int) -> EnsembleSpec:
    return EnsembleSpec(
        "bench-robust",
        (
            default_member("em1", num_analyses=2, n_steps=n_steps),
            default_member("em2", num_analyses=1, n_steps=n_steps),
            default_member("em3", num_analyses=1, n_steps=n_steps),
        ),
    )


def _candidates(spec: EnsembleSpec) -> dict:
    """An evenly spaced shortlist over the canonical placement space."""
    pool = list(enumerate_placements(spec, NUM_NODES, CORES_PER_NODE))
    stride = max(1, len(pool) // NUM_CANDIDATES)
    picked = pool[::stride][:NUM_CANDIDATES]
    return {f"c{i}": placement for i, placement in enumerate(picked)}


def _timed_des_runs(rank) -> tuple:
    """``(result, seconds, DES runs)`` of one ``rank()`` call."""
    runs = 0
    original = EnsembleExecutor.run

    def counting_run(self):
        nonlocal runs
        runs += 1
        return original(self)

    EnsembleExecutor.run = counting_run
    try:
        t0 = time.perf_counter()
        result = rank()
        return result, time.perf_counter() - t0, runs
    finally:
        EnsembleExecutor.run = original


def _serial_ranking(spec, candidates, factory, policy, **common) -> list:
    """Serial DES trials per candidate, best first: the reference."""
    return sorted(
        (
            robust_score_placement(
                spec, placement, factory, policy, name=name, **common
            )
            for name, placement in candidates.items()
        ),
        reverse=True,
    )


def bench_ranking(trials: int, n_steps: int) -> tuple:
    """Serial vs batched robust ranking of one candidate shortlist."""
    spec = _spec(n_steps)
    candidates = _candidates(spec)
    factory = crash_straggler_factory(FAULT_RATE)
    policy = RetryBackoffPolicy()
    common = dict(trials=trials, base_seed=0)

    serial, t_serial, serial_runs = _timed_des_runs(
        lambda: _serial_ranking(spec, candidates, factory, policy, **common)
    )
    with counting(Counters(**ENGINE_SECTIONS)) as registry:
        batched, t_batched, batched_runs = _timed_des_runs(
            lambda: rank_placements_robust(
                spec, candidates, factory, policy, method="des", **common
            )
        )
    counters = registry.snapshot()["batched"]

    checks = [
        MetricCheck(
            "ensemble",
            "candidates",
            "serial-vs-batched",
            float(len(serial)),
            float(len(batched)),
            0.0,
        ),
        MetricCheck(
            "ensemble",
            "same_order",
            "serial-vs-batched",
            1.0,
            1.0
            if [s.name for s in serial] == [b.name for b in batched]
            else 0.0,
            0.0,
        ),
    ]
    for s, b in zip(serial, batched):
        for metric, ref, cand in (
            ("objective", s.objective, b.objective),
            ("ideal_objective", s.ideal_objective, b.ideal_objective),
            ("mean_inflation", s.mean_inflation, b.mean_inflation),
            ("mean_goodput", s.mean_goodput, b.mean_goodput),
        ):
            checks.append(
                MetricCheck(s.name, metric, "serial-vs-batched", ref, cand, 0.0)
            )
    report = DivergenceReport(
        scenario="bench-robust-ranking", checks=tuple(checks)
    )

    row = {
        "num_nodes": NUM_NODES,
        "cores_per_node": CORES_PER_NODE,
        "candidates": len(candidates),
        "trials": trials,
        "n_steps": n_steps,
        "fault_rate": FAULT_RATE,
        "policy": "retry",
        "serial_seconds": t_serial,
        "batched_seconds": t_batched,
        "speedup": t_serial / t_batched,
        "des_runs": {"serial": serial_runs, "batched": batched_runs},
        "best": serial[0].name,
        "best_objective": serial[0].objective,
        "counters": counters,
    }
    return row, report


def run(smoke: bool) -> dict:
    trials = TRIALS_SMOKE if smoke else TRIALS_FULL
    n_steps = N_STEPS_SMOKE if smoke else N_STEPS_FULL

    # warm both code paths so the timings compare steady-state costs
    warm_spec = _spec(4)
    warm_candidates = {"warm": next(iter(_candidates(warm_spec).values()))}
    for rank in (_serial_ranking, rank_placements_robust):
        rank(
            warm_spec,
            warm_candidates,
            crash_straggler_factory(FAULT_RATE),
            RetryBackoffPolicy(),
            trials=1,
        )

    ranking, report = bench_ranking(trials, n_steps)
    return {
        "benchmark": "robust",
        "mode": "smoke" if smoke else "full",
        "floors": {
            "ranking": RANKING_FLOOR_SMOKE if smoke else RANKING_FLOOR
        },
        "ranking": ranking,
        "correctness": [report.to_dict()],
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
    speedup = results["ranking"]["speedup"]
    floor = results["floors"]["ranking"]
    status = "ok" if speedup >= floor else "BELOW FLOOR"
    print(f"ranking: {speedup:.1f}x (floor {floor:.0f}x) {status}")
    runs = results["ranking"]["des_runs"]
    des_free = runs["batched"] == 0
    print(
        f"DES runs: serial {runs['serial']}, batched {runs['batched']} "
        f"({'ok' if des_free else 'batched ranking ran the DES'})"
    )
    return speedup >= floor and des_free


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark batched robust ranking against serial DES."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller replica grid (CI smoke run)",
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
    row = results["ranking"]
    print(
        f"ranking: {row['candidates']} candidates x {row['trials']} "
        f"replicas (n_steps={row['n_steps']}), serial "
        f"{row['serial_seconds']:.2f}s -> batched "
        f"{row['batched_seconds']:.2f}s"
    )
    print(
        f"  engine: {row['counters']['baseline_sims']} baselines captured, "
        f"{row['counters']['replicas_replayed']} replicas replayed"
    )
    if not check_correctness(results):
        return 2
    return 0 if check_floors(results) else 1


if __name__ == "__main__":
    sys.exit(main())
