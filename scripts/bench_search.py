#!/usr/bin/env python
"""Benchmark the fast placement-search engine against the seed paths.

Four measurements, each with a built-in exactness check:

- **exhaustive**: :func:`repro.search.engine.find_best_placement`
  (canonical enumeration + stage cache) against the seed loop
  (product-then-dedup enumerator, per-candidate uncached
  :func:`~repro.search.reference.score_placement_reference`). Same
  winner, same floats, same candidate count — asserted to 1e-12 before
  any speedup is reported.
- **annealing**: :class:`~repro.scheduler.annealing
  .SimulatedAnnealingPolicy` (delta evaluation) against the seed
  annealer, :func:`~repro.search.reference.anneal_reference`, which
  runs the same schedule re-scoring every candidate in full.
  Identical placements and move statistics are asserted.
- **scaling**: the vectorized branch-and-bound search
  (:func:`~repro.search.vectorized.find_best_placement_vectorized`)
  over a nodes x members grid. Each cell times the raw column kernel
  on a capped candidate stream *and* the full search (scored + pruned
  must equal the closed-form canonical count); the table is gated on
  a search-throughput floor, on a fitted growth exponent of kernel
  time versus batch size (the scaling law — see ``docs/SCALING.md``),
  and on covering at least :data:`SCALING_MIN_NODE_SIZES` node sizes.
  A small cell is re-searched by the scalar reference loop
  (:func:`~repro.search.reference.find_best_placement_reference`) and
  must return the identical winner.
- **routing**: the column kernel ``find_best_placement`` runs at every
  size, measured on plan-mix's search sizes (:data:`ROUTING_SHAPES`,
  5 to 2 065 candidates): each shape is searched cold, best of
  :data:`ROUTING_REPEATS`, by the scalar reference loop and by the
  engine. Winners, floats and ``evaluated`` must be identical, and the
  engine's summed time must stay at or below :data:`ROUTING_CEILING`
  of the reference sum.

Writes ``BENCH_search.json`` (exhaustive speedup, annealing speedup,
the scaling table, the routing table, problem sizes, floors,
correctness reports) and
exits non-zero on regression — so CI can run
``python scripts/bench_search.py --quick`` as a regression gate. The
two failure classes are never confused:

- exit **1** — a *performance* floor was missed (speedup too small);
- exit **2** — a *correctness* divergence: the fast path disagreed
  with the seed path, reported as a
  :class:`repro.verify.oracles.DivergenceReport` on stdout and in the
  results JSON.

``--check`` re-validates an existing results file against the floors
(and its stored correctness verdicts) without re-running anything.

Usage:
    python scripts/bench_search.py [--quick] [--output PATH]
    python scripts/bench_search.py --check [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.runtime.spec import EnsembleSpec, default_member  # noqa: E402
from repro.scheduler.annealing import (  # noqa: E402
    SimulatedAnnealingPolicy,
)
from repro.scheduler.context import PlanningContext  # noqa: E402
from repro.search import find_best_placement  # noqa: E402
from repro.search.canonical import (  # noqa: E402
    component_core_demands,
    count_canonical_assignments,
    iter_assignment_chunks,
)
from repro.search.reference import (  # noqa: E402
    anneal_reference,
    enumerate_placements_reference,
    find_best_placement_reference,
    score_placement_reference,
)
from repro.search.vectorized import (  # noqa: E402
    VectorizedScorer,
    find_best_placement_vectorized,
)
from repro.verify.oracles import (  # noqa: E402
    DivergenceReport,
    MetricCheck,
)

#: required speedups — the regression floors CI enforces.
EXHAUSTIVE_FLOOR = 10.0
ANNEALING_FLOOR = 5.0

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_search.json"

CORES_PER_NODE = 32

#: the scaling sweep's node-budget axis — node-count invariance is the
#: point: canonical labels never exceed the component count, so cells
#: along this axis cost the same per candidate from 8 nodes to 512.
SCALING_NODE_SIZES = (8, 32, 128, 512)
#: member-count axis (the size axis that actually grows the space).
#: Full mode adds the 4-member column whose ~1.1M-candidate cells are
#: where the branch-and-bound throughput floor is demonstrated.
SCALING_MEMBERS_QUICK = (2, 3)
SCALING_MEMBERS_FULL = (2, 3, 4)
#: per-cell cap on raw-kernel rows (the timed batch-scoring stream);
#: the branch-and-bound search itself always covers the full space.
SCALING_KERNEL_CAP_QUICK = 40_000
SCALING_KERNEL_CAP_FULL = 400_000
#: search-throughput floors (candidates dispatched — scored or pruned
#: in closed form — per second of ``find_best_placement_vectorized``,
#: best cell). Quick mode's grid tops out at ~10k-candidate cells
#: where fixed setup dominates, hence the lower bar.
SCALING_THROUGHPUT_FLOOR_FULL = 1.0e6
SCALING_THROUGHPUT_FLOOR_QUICK = 1.0e5
#: ceiling on the fitted growth exponent of kernel seconds vs batch
#: rows (log-log least squares): the kernel must stay essentially
#: linear in the candidate count.
SCALING_EXPONENT_CEILING = 1.35
#: minimum distinct node sizes the table must cover.
SCALING_MIN_NODE_SIZES = 4
#: the exponent fit needs genuinely different sizes: cells are pooled
#: per distinct row count and the largest/smallest pooled size must
#: differ by at least this factor, else the slope is timer noise.
SCALING_FIT_MIN_SPAN = 4.0

#: (analyses per member, nodes) of the routing table: plan-mix's
#: search sizes, 5 / 40 / 148 / 474 / 1 815 / 2 065 canonical
#: candidates. ``--quick`` times the first three.
ROUTING_SHAPES = (
    ((1, 1), 2),
    ((1, 2), 5),
    ((2, 2), 6),
    ((1, 1, 2), 7),
    ((1, 2, 2), 5),
    ((1, 2, 2), 6),
)
ROUTING_QUICK_SHAPES = 3
#: cold searches per shape and route; the best one is kept.
ROUTING_REPEATS = 3
#: ceiling on (engine seconds) / (reference loop seconds), summed over
#: the table: the kernel must win by at least 2x overall.
ROUTING_CEILING = 0.5
#: plan-mix draws ``natoms`` per member; the table cycles these.
ROUTING_NATOMS = (150_000, 250_000, 350_000)

#: the markdown scaling table, shared with ``docs/SCALING.md`` — the
#: docs' worked example is golden-tested against these exact strings.
SCALING_HEADER = (
    "| nodes | members | candidates | scored | pruned "
    "| seconds | cand/s |"
)
SCALING_RULE = "|---|---|---|---|---|---|---|"
#: a representative full-mode cell, used verbatim in the docs.
SCALING_EXAMPLE_ROW = {
    "nodes": 512,
    "members": 4,
    "candidates": 1160822,
    "scored": 28599,
    "pruned": 1132223,
    "search_seconds": 0.082,
    "cand_per_s": 1.41e7,
}


def format_scaling_row(row: dict) -> str:
    """One markdown row of the scaling table (docs-golden format)."""
    return (
        f"| {row['nodes']} | {row['members']} | {row['candidates']} "
        f"| {row['scored']} | {row['pruned']} "
        f"| {row['search_seconds']:.3f} | {row['cand_per_s']:.2e} |"
    )


def _exhaustive_spec() -> EnsembleSpec:
    return EnsembleSpec(
        "bench-exhaustive",
        (
            default_member("em1", num_analyses=2, n_steps=6),
            default_member("em2", num_analyses=1, n_steps=6),
            default_member("em3", num_analyses=1, n_steps=6),
        ),
    )


def _annealing_spec() -> EnsembleSpec:
    return EnsembleSpec(
        "bench-annealing",
        tuple(
            default_member(
                f"em{i}", num_analyses=2 if i % 2 else 1, n_steps=6
            )
            for i in range(5)
        ),
    )


def bench_exhaustive(num_nodes: int) -> tuple:
    """Seed search loop vs the canonical+cached engine, one budget."""
    spec = _exhaustive_spec()

    t0 = time.perf_counter()
    seed_best = None
    seed_evaluated = 0
    for placement in enumerate_placements_reference(
        spec, num_nodes, CORES_PER_NODE
    ):
        score = score_placement_reference(spec, placement)
        seed_evaluated += 1
        if seed_best is None or score > seed_best:
            seed_best = score
    t_seed = time.perf_counter() - t0

    from repro.search.cache import StageCache

    context = PlanningContext(cache=StageCache())
    t0 = time.perf_counter()
    fast_best, fast_evaluated = find_best_placement(
        spec, num_nodes, CORES_PER_NODE, context=context
    )
    t_fast = time.perf_counter() - t0

    assert seed_best is not None
    report = DivergenceReport(
        scenario="bench-exhaustive",
        checks=(
            MetricCheck(
                "ensemble",
                "candidates",
                "seed-vs-fast",
                float(seed_evaluated),
                float(fast_evaluated),
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "same_placement",
                "seed-vs-fast",
                1.0,
                1.0 if fast_best.placement == seed_best.placement else 0.0,
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "objective",
                "seed-vs-fast",
                seed_best.objective,
                fast_best.objective,
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "makespan",
                "seed-vs-fast",
                seed_best.ensemble_makespan,
                fast_best.ensemble_makespan,
                0.0,
            ),
        ),
    )

    row = {
        "num_nodes": num_nodes,
        "cores_per_node": CORES_PER_NODE,
        "candidates": seed_evaluated,
        "seed_seconds": t_seed,
        "fast_seconds": t_fast,
        "speedup": t_seed / t_fast,
        "objective": fast_best.objective,
        "stage_cache": context.cache.stats(),
    }
    return row, report


def bench_annealing(seed: int = 0) -> tuple:
    """The seed (full re-scoring) annealer vs the delta-evaluation one."""
    spec = _annealing_spec()
    num_nodes = 6
    kwargs = dict(
        seed=seed, plateau=30, cooling=0.9, min_temperature_ratio=1e-3
    )

    full = SimulatedAnnealingPolicy(**kwargs)
    t0 = time.perf_counter()
    full_placement = anneal_reference(full, spec, num_nodes, CORES_PER_NODE)
    t_full = time.perf_counter() - t0

    fast = SimulatedAnnealingPolicy(**kwargs)
    t0 = time.perf_counter()
    fast_placement = fast.place(spec, num_nodes, CORES_PER_NODE)
    t_fast = time.perf_counter() - t0

    report = DivergenceReport(
        scenario="bench-annealing",
        checks=(
            MetricCheck(
                "ensemble",
                "same_placement",
                "full-vs-incremental",
                1.0,
                1.0 if fast_placement == full_placement else 0.0,
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "evaluations",
                "full-vs-incremental",
                float(full.stats.evaluations),
                float(fast.stats.evaluations),
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "accepted",
                "full-vs-incremental",
                float(full.stats.accepted),
                float(fast.stats.accepted),
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "improved",
                "full-vs-incremental",
                float(full.stats.improved),
                float(fast.stats.improved),
                0.0,
            ),
        ),
    )

    row = {
        "num_nodes": num_nodes,
        "cores_per_node": CORES_PER_NODE,
        "seed": seed,
        "evaluations": fast.stats.evaluations,
        "full_seconds": t_full,
        "incremental_seconds": t_fast,
        "speedup": t_full / t_fast,
    }
    return row, report


def _scaling_spec(num_members: int) -> EnsembleSpec:
    return EnsembleSpec(
        f"bench-scaling-{num_members}",
        tuple(
            default_member(f"em{i}", num_analyses=2, n_steps=6)
            for i in range(num_members)
        ),
    )


def bench_scaling_cell(
    num_members: int, num_nodes: int, kernel_cap: int
) -> dict:
    """One (members, nodes) cell: raw kernel timing + full B&B search."""
    spec = _scaling_spec(num_members)
    cores = component_core_demands(spec)
    candidates = count_canonical_assignments(
        cores, num_nodes, CORES_PER_NODE
    )

    # raw column-kernel throughput over a capped candidate stream;
    # chunks are materialized first so the timing covers scoring only
    chunks = []
    rows = 0
    for chunk in iter_assignment_chunks(
        cores, num_nodes, CORES_PER_NODE, chunk_size=16384
    ):
        take = min(chunk.shape[0], kernel_cap - rows)
        chunks.append(chunk[:take])
        rows += take
        if rows >= kernel_cap:
            break
    scorer = VectorizedScorer(spec, num_nodes)
    scorer.score_chunk(chunks[0])  # warm the signature-code table
    # repeat tiny cells so each measurement spans milliseconds
    repeats = max(1, 20_000 // max(rows, 1))
    t0 = time.perf_counter()
    for _ in range(repeats):
        for chunk in chunks:
            scorer.score_chunk(chunk)
    kernel_seconds = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    result = find_best_placement_vectorized(
        spec, num_nodes, CORES_PER_NODE
    )
    search_seconds = time.perf_counter() - t0
    assert result.scored + result.pruned == candidates, (
        f"B&B accounting mismatch: {result.scored}+{result.pruned} "
        f"!= {candidates}"
    )

    return {
        "nodes": num_nodes,
        "members": num_members,
        "candidates": candidates,
        "kernel_rows": rows,
        "kernel_seconds": kernel_seconds,
        "kernel_rows_per_s": rows / kernel_seconds,
        "scored": result.scored,
        "pruned": result.pruned,
        "search_seconds": search_seconds,
        "cand_per_s": (result.scored + result.pruned) / search_seconds,
        "objective": result.best.objective,
        "assessed_codes": scorer.assessed_codes,
    }


def fit_growth_exponent(rows: list) -> float | None:
    """Log-log slope of kernel seconds vs kernel rows across cells.

    Cells are pooled per distinct row count (node-size variations of
    the same member count score the same stream, so their timings are
    repeated measurements of one size, not new sizes) and the slope is
    fit over the pooled geometric means. Returns None when the pooled
    sizes span less than :data:`SCALING_FIT_MIN_SPAN` — a slope over
    near-identical sizes would be pure timer noise.
    """
    pooled: dict = {}
    for r in rows:
        if r["kernel_rows"] > 0 and r["kernel_seconds"] > 0:
            pooled.setdefault(r["kernel_rows"], []).append(
                r["kernel_seconds"]
            )
    if len(pooled) < 2:
        return None
    sizes = sorted(pooled)
    if sizes[-1] < SCALING_FIT_MIN_SPAN * sizes[0]:
        return None
    x = np.log(sizes)
    y = [np.mean(np.log(pooled[s])) for s in sizes]
    return float(np.polyfit(x, y, 1)[0])


def bench_scaling(quick: bool) -> tuple:
    """The nodes x members sweep plus its exactness report."""
    members_axis = SCALING_MEMBERS_QUICK if quick else SCALING_MEMBERS_FULL
    kernel_cap = (
        SCALING_KERNEL_CAP_QUICK if quick else SCALING_KERNEL_CAP_FULL
    )
    rows = [
        bench_scaling_cell(m, n, kernel_cap)
        for m in members_axis
        for n in SCALING_NODE_SIZES
    ]

    # correctness cell: the vectorized B&B winner must be the scalar
    # reference loop's winner, bit for bit, with the full space
    # accounted for
    check_spec = _scaling_spec(2)
    check_nodes = 4
    vec = find_best_placement_vectorized(
        check_spec, check_nodes, CORES_PER_NODE
    )
    scalar_best, scalar_evaluated = find_best_placement_reference(
        check_spec, check_nodes, CORES_PER_NODE
    )
    report = DivergenceReport(
        scenario="bench-scaling",
        checks=(
            MetricCheck(
                "ensemble",
                "candidates",
                "scalar-vs-vectorized",
                float(scalar_evaluated),
                float(vec.scored + vec.pruned),
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "same_placement",
                "scalar-vs-vectorized",
                1.0,
                1.0 if vec.best.placement == scalar_best.placement else 0.0,
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "objective",
                "scalar-vs-vectorized",
                scalar_best.objective,
                vec.best.objective,
                0.0,
            ),
            MetricCheck(
                "ensemble",
                "makespan",
                "scalar-vs-vectorized",
                scalar_best.ensemble_makespan,
                vec.best.ensemble_makespan,
                0.0,
            ),
        ),
    )

    section = {
        "node_sizes": list(SCALING_NODE_SIZES),
        "members_axis": list(members_axis),
        "kernel_cap": kernel_cap,
        "floors": {
            "throughput": (
                SCALING_THROUGHPUT_FLOOR_QUICK
                if quick
                else SCALING_THROUGHPUT_FLOOR_FULL
            ),
            "exponent": SCALING_EXPONENT_CEILING,
            "min_node_sizes": SCALING_MIN_NODE_SIZES,
        },
        "rows": rows,
        "growth_exponent": fit_growth_exponent(rows),
        "best_cand_per_s": max(r["cand_per_s"] for r in rows),
    }
    return section, report


def _routing_spec(pattern: tuple) -> EnsembleSpec:
    return EnsembleSpec(
        "bench-routing-" + "".join(map(str, pattern)),
        tuple(
            default_member(
                f"em{i}",
                num_analyses=k,
                n_steps=8,
                natoms=ROUTING_NATOMS[i % len(ROUTING_NATOMS)],
            )
            for i, k in enumerate(pattern)
        ),
    )


def _best_of(search) -> tuple:
    """(fastest seconds, result) over :data:`ROUTING_REPEATS` runs."""
    best = None
    for _ in range(ROUTING_REPEATS):
        t0 = time.perf_counter()
        result = search()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_routing(quick: bool) -> tuple:
    """Scalar reference loop vs the engine on plan-mix's search sizes.

    Every search starts from a cold cache (each call builds its own),
    as a service worker's first search of a new spec does.
    """
    shapes = ROUTING_SHAPES[:ROUTING_QUICK_SHAPES] if quick else ROUTING_SHAPES
    rows = []
    checks = []
    for pattern, num_nodes in shapes:
        spec = _routing_spec(pattern)
        scalar_seconds, (scalar, scalar_n) = _best_of(
            lambda: find_best_placement_reference(
                spec, num_nodes, CORES_PER_NODE
            )
        )
        kernel_seconds, (fast, fast_n) = _best_of(
            lambda: find_best_placement(spec, num_nodes, CORES_PER_NODE)
        )
        scope = f"{spec.name}@{num_nodes}"
        checks.extend(
            (
                MetricCheck(scope, "candidates", "scalar-vs-kernel",
                            float(scalar_n), float(fast_n), 0.0),
                MetricCheck(
                    scope, "same_placement", "scalar-vs-kernel", 1.0,
                    1.0 if fast.placement == scalar.placement else 0.0, 0.0,
                ),
                MetricCheck(scope, "objective", "scalar-vs-kernel",
                            scalar.objective, fast.objective, 0.0),
                MetricCheck(scope, "makespan", "scalar-vs-kernel",
                            scalar.ensemble_makespan,
                            fast.ensemble_makespan, 0.0),
            )
        )
        checks.extend(
            MetricCheck(scope, f"indicator[{i}]", "scalar-vs-kernel",
                        ref, got, 0.0)
            for i, (ref, got) in enumerate(
                zip(scalar.member_indicators, fast.member_indicators)
            )
        )
        rows.append(
            {
                "analyses": list(pattern),
                "nodes": num_nodes,
                "candidates": scalar_n,
                "scalar_seconds": scalar_seconds,
                "kernel_seconds": kernel_seconds,
            }
        )
    scalar_total = sum(r["scalar_seconds"] for r in rows)
    kernel_total = sum(r["kernel_seconds"] for r in rows)
    section = {
        "repeats": ROUTING_REPEATS,
        "ceiling": ROUTING_CEILING,
        "rows": rows,
        "scalar_seconds": scalar_total,
        "kernel_seconds": kernel_total,
        "ratio": kernel_total / scalar_total,
    }
    report = DivergenceReport(scenario="bench-routing", checks=tuple(checks))
    return section, report


def format_routing_table(rows: list) -> str:
    """Markdown routing table (the one ``docs/PERFORMANCE.md`` §8 shows)."""
    lines = [
        "| candidates | analyses per member | nodes "
        "| scalar ms | kernel ms |",
        "|---|---|---|---|---|",
    ]
    lines.extend(
        f"| {r['candidates']} "
        f"| {', '.join(map(str, r['analyses']))} | {r['nodes']} "
        f"| {r['scalar_seconds'] * 1e3:.1f} "
        f"| {r['kernel_seconds'] * 1e3:.1f} |"
        for r in rows
    )
    return "\n".join(lines)


def format_scaling_table(rows: list) -> str:
    """The full markdown table (as uploaded by the CI artifact)."""
    lines = [SCALING_HEADER, SCALING_RULE]
    lines.extend(format_scaling_row(r) for r in rows)
    return "\n".join(lines)


def run(quick: bool) -> dict:
    # warm both code paths (imports, numpy, profile construction) so
    # the timings compare steady-state costs, not first-call overheads
    warm = EnsembleSpec(
        "warm", (default_member("em1", n_steps=4),)
    )
    find_best_placement(warm, 2, CORES_PER_NODE)
    find_best_placement_reference(warm, 2, CORES_PER_NODE)
    next(iter(enumerate_placements_reference(warm, 2, CORES_PER_NODE)))
    score_placement_reference(
        warm, find_best_placement(warm, 2, CORES_PER_NODE)[0].placement
    )

    exhaustive, exhaustive_report = bench_exhaustive(
        num_nodes=6 if quick else 7
    )
    annealing, annealing_report = bench_annealing()
    scaling, scaling_report = bench_scaling(quick)
    routing, routing_report = bench_routing(quick)
    return {
        "benchmark": "search",
        "mode": "quick" if quick else "full",
        "floors": {
            "exhaustive": EXHAUSTIVE_FLOOR,
            "annealing": ANNEALING_FLOOR,
        },
        "exhaustive": exhaustive,
        "annealing": annealing,
        "scaling": scaling,
        "routing": routing,
        "correctness": [
            exhaustive_report.to_dict(),
            annealing_report.to_dict(),
            scaling_report.to_dict(),
            routing_report.to_dict(),
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
    ok = True
    for section, floor in (
        ("exhaustive", EXHAUSTIVE_FLOOR),
        ("annealing", ANNEALING_FLOOR),
    ):
        speedup = results[section]["speedup"]
        status = "ok" if speedup >= floor else "BELOW FLOOR"
        print(
            f"{section}: {speedup:.1f}x "
            f"(floor {floor:.0f}x) {status}"
        )
        if speedup < floor:
            ok = False
    scaling_ok = check_scaling_floors(results)
    return check_routing_ceiling(results) and scaling_ok and ok


def check_routing_ceiling(results: dict) -> bool:
    """Gate the routing table: the kernel route's share of scalar time.

    The ceiling is read from the results file, like the scaling floors.
    """
    routing = results.get("routing")
    if routing is None:
        print("routing: MISSING section")
        return False
    ok = routing["ratio"] <= routing["ceiling"]
    print(
        f"routing: kernel route {routing['kernel_seconds'] * 1e3:.1f} ms vs "
        f"scalar {routing['scalar_seconds'] * 1e3:.1f} ms over "
        f"{len(routing['rows'])} shapes, ratio {routing['ratio']:.2f} "
        f"(ceiling {routing['ceiling']:g}) "
        f"{'ok' if ok else 'ABOVE CEILING'}"
    )
    return ok


def check_scaling_floors(results: dict) -> bool:
    """Gate the scaling table: throughput, growth exponent, coverage.

    Floors are read from the results file itself (quick and full runs
    carry different throughput bars), so ``--check`` re-validates any
    stored table against the bars it was produced under.
    """
    scaling = results.get("scaling")
    if scaling is None:
        print("scaling: MISSING section")
        return False
    ok = True
    floors = scaling["floors"]

    node_sizes = {r["nodes"] for r in scaling["rows"]}
    coverage_ok = len(node_sizes) >= floors["min_node_sizes"]
    print(
        f"scaling: {len(scaling['rows'])} cells over "
        f"{len(node_sizes)} node sizes "
        f"(floor {floors['min_node_sizes']}) "
        f"{'ok' if coverage_ok else 'BELOW FLOOR'}"
    )
    ok = ok and coverage_ok

    best = scaling["best_cand_per_s"]
    throughput_ok = best >= floors["throughput"]
    print(
        f"scaling: best search throughput {best:.2e} cand/s "
        f"(floor {floors['throughput']:.0e}) "
        f"{'ok' if throughput_ok else 'BELOW FLOOR'}"
    )
    ok = ok and throughput_ok

    exponent = scaling["growth_exponent"]
    if exponent is None:
        print("scaling: growth exponent not fittable (too few sizes)")
        ok = False
    else:
        exponent_ok = exponent <= floors["exponent"]
        print(
            f"scaling: growth exponent {exponent:.3f} "
            f"(ceiling {floors['exponent']:g}) "
            f"{'ok' if exponent_ok else 'ABOVE CEILING'}"
        )
        ok = ok and exponent_ok
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the placement-search engine."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller exhaustive budget (CI smoke run)",
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

    results = run(quick=args.quick)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(
        f"exhaustive: {results['exhaustive']['candidates']} candidates, "
        f"seed {results['exhaustive']['seed_seconds']:.2f}s -> fast "
        f"{results['exhaustive']['fast_seconds']:.2f}s"
    )
    cache_stats = results["exhaustive"]["stage_cache"]
    print(
        f"  stage cache: {cache_stats['stage_hits']} hits / "
        f"{cache_stats['stage_misses']} misses (member level), "
        f"{cache_stats['node_hits']} / {cache_stats['node_misses']} "
        f"(node level)"
    )
    print(
        f"annealing: {results['annealing']['evaluations']} evaluations, "
        f"full {results['annealing']['full_seconds']:.2f}s -> "
        f"incremental {results['annealing']['incremental_seconds']:.2f}s"
    )
    print(format_scaling_table(results["scaling"]["rows"]))
    print(format_routing_table(results["routing"]["rows"]))
    if not check_correctness(results):
        return 2
    return 0 if check_floors(results) else 1


if __name__ == "__main__":
    sys.exit(main())
