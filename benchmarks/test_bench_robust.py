"""Benchmark: batched delta-replay robust ranking vs serial DES.

Two layers of enforcement:

- the committed ``BENCH_robust.json`` must exist, carry passing
  correctness verdicts (serial-vs-batched exact agreement), record a
  batched ranking that ran no DES, and clear its recorded >= 10x
  ranking-speedup floor — so a regression cannot be hidden by simply
  not re-running the script;
- a live pytest-benchmark measurement ranks a fresh candidate
  shortlist through the batched engine and asserts every
  :class:`~repro.scheduler.robust.RobustScore` float is bit-identical
  to serial DES replication (retry recovery replays exactly).
"""

import json
from pathlib import Path

from repro.faults.recovery import RetryBackoffPolicy
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "BENCH_robust.json"

NUM_NODES = 3
CORES = 32
TRIALS = 8


def _spec():
    return EnsembleSpec(
        "robust-bench",
        (
            default_member("em1", num_analyses=2, n_steps=8),
            default_member("em2", num_analyses=1, n_steps=8),
            default_member("em3", num_analyses=1, n_steps=8),
        ),
    )


def _candidates(spec):
    from repro.configs.generator import enumerate_placements

    pool = list(enumerate_placements(spec, NUM_NODES, CORES))
    stride = max(1, len(pool) // 4)
    return {f"c{i}": p for i, p in enumerate(pool[::stride][:4])}


def test_committed_results_pass_their_floors():
    assert RESULTS.exists(), (
        "BENCH_robust.json missing - run scripts/bench_robust.py"
    )
    results = json.loads(RESULTS.read_text())
    for payload in results["correctness"]:
        assert payload["passed"], (
            f"{payload['scenario']} recorded a correctness divergence"
        )
    speedup = results["ranking"]["speedup"]
    assert speedup >= results["floors"]["ranking"]
    assert results["ranking"]["des_runs"]["batched"] == 0
    counters = results["ranking"]["counters"]
    assert counters["baseline_sims"] == results["ranking"]["candidates"]
    assert counters["replicas_replayed"] == (
        results["ranking"]["candidates"] * results["ranking"]["trials"]
    )


def test_bench_batched_ranking(benchmark):
    spec = _spec()
    candidates = _candidates(spec)
    factory = crash_straggler_factory(0.08)
    common = dict(trials=TRIALS, base_seed=0, method="des")

    batched = benchmark(
        lambda: rank_placements_robust(
            spec,
            candidates,
            factory,
            RetryBackoffPolicy(),
            engine="batched",
            **common,
        )
    )

    serial = rank_placements_robust(
        spec,
        candidates,
        factory,
        RetryBackoffPolicy(),
        engine="serial",
        **common,
    )
    assert [b.name for b in batched] == [s.name for s in serial]
    for b, s in zip(batched, serial):
        assert b.objective == s.objective
        assert b.ideal_objective == s.ideal_objective
        assert b.mean_inflation == s.mean_inflation
        assert b.mean_goodput == s.mean_goodput
    print(
        f"\nbatched ranking of {len(candidates)} candidates x {TRIALS} "
        f"replicas == serial DES, bit-identical"
    )
