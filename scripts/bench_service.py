#!/usr/bin/env python
"""Benchmark the placement service: throughput, caching, latency.

Four measurements, each with a built-in exactness check:

- **throughput**: a batch of distinct search jobs driven through the
  in-process :class:`~repro.service.workers.PlacementService` worker
  pool; sustained jobs/s must clear the floor. Every pooled result is
  compared against a serial :func:`~repro.service.workers
  .execute_request` pass — exact payload equality, the service
  determinism contract.
- **cached**: the same batch resubmitted; every job must resolve from
  the :class:`~repro.service.cache.ResultCache` (``cached=True``) and
  the second pass must be at least the floor times faster than the
  first.
- **rank-des**: one DES-method rank job (batched delta-replay engine)
  through the pool; the payload must equal the direct execution
  exactly and the ``/stats`` engine counters must account for every
  captured baseline and replayed replica.
- **http**: submit+wait round trips over the real HTTP API
  (:class:`~repro.service.api.PlacementServer` on an ephemeral port);
  p50/p99 latency recorded, and the served score must deserialize to
  exactly what the direct scorer computes (the oracle's tier-0
  service check).

Writes ``BENCH_service.json`` and exits non-zero on regression, with
the same failure-class split as ``bench_search.py``:

- exit **1** — a *performance* floor was missed (throughput or cached
  speedup too small);
- exit **2** — a *correctness* divergence: the pooled or HTTP path
  disagreed with the direct path, reported as a
  :class:`repro.verify.oracles.DivergenceReport` on stdout and in the
  results JSON.

``--check`` re-validates an existing results file against the floors
(and its stored correctness verdicts) without re-running anything.

Usage:
    python scripts/bench_service.py [--smoke] [--output PATH]
    python scripts/bench_service.py --check [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime.spec import EnsembleSpec, default_member  # noqa: E402
from repro.scheduler.objectives import score_placement  # noqa: E402
from repro.service.api import make_server  # noqa: E402
from repro.service.client import PlacementClient  # noqa: E402
from repro.service.schemas import (  # noqa: E402
    PlacementRequest,
    canonical_digest,
    score_from_dict,
)
from repro.service.workers import (  # noqa: E402
    PlacementService,
    execute_request,
)
from repro.verify.oracles import (  # noqa: E402
    DivergenceReport,
    MetricCheck,
)

#: required floors — the regression gates CI enforces.
THROUGHPUT_FLOOR = 50.0  # sustained jobs/s through the pool
CACHED_SPEEDUP_FLOOR = 10.0  # resubmission vs first computation

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_service.json"

WORKERS = 4


def _bench_spec() -> EnsembleSpec:
    return EnsembleSpec(
        "bench-service",
        (
            default_member("em1", num_analyses=2, n_steps=4),
            default_member("em2", num_analyses=1, n_steps=4),
        ),
    )


def _job_batch(num_jobs: int) -> list:
    """``num_jobs`` distinct search requests of identical difficulty.

    ``base_seed`` enters the canonical digest but not the failure-free
    search, so varying it yields distinct cache keys over the same
    workload — every job computes, none coalesce.
    """
    spec = _bench_spec()
    return [
        PlacementRequest(
            kind="search", spec=spec, num_nodes=4, base_seed=seed
        )
        for seed in range(num_jobs)
    ]


def _drain(service: PlacementService, requests: list) -> dict:
    """Submit every request; wait for all; results by digest."""
    jobs = [service.submit(r) for r in requests]
    return {
        job.digest: service.wait(job.id, timeout=120.0)
        for job in jobs
    }


def bench_throughput(num_jobs: int) -> tuple:
    """Pooled first pass (throughput) + resubmission (cached) pass."""
    requests = _job_batch(num_jobs)

    # serial reference: one uncached execution per distinct request
    serial = {
        canonical_digest(r): execute_request(r) for r in requests
    }

    service = PlacementService(workers=WORKERS)
    with service:
        t0 = time.perf_counter()
        pooled = _drain(service, requests)
        t_pool = time.perf_counter() - t0

        t0 = time.perf_counter()
        resubmitted = _drain(service, requests)
        t_cached = time.perf_counter() - t0
        cache_stats = service.result_cache.stats()

    pooled_payloads = {d: job.result for d, job in pooled.items()}
    all_cached = all(job.cached for job in resubmitted.values())
    cached_payloads = {d: job.result for d, job in resubmitted.items()}

    report = DivergenceReport(
        scenario="bench-service-pool",
        checks=(
            MetricCheck(
                "service",
                "pool_matches_serial",
                "serial-vs-pool",
                1.0,
                1.0 if pooled_payloads == serial else 0.0,
                0.0,
            ),
            MetricCheck(
                "service",
                "resubmission_matches_serial",
                "serial-vs-cached",
                1.0,
                1.0 if cached_payloads == serial else 0.0,
                0.0,
            ),
            MetricCheck(
                "service",
                "all_resubmissions_cached",
                "cache-vs-queue",
                1.0,
                1.0 if all_cached else 0.0,
                0.0,
            ),
        ),
    )

    row = {
        "jobs": num_jobs,
        "workers": WORKERS,
        "pool_seconds": t_pool,
        "throughput_jobs_per_s": num_jobs / t_pool,
        "cached_seconds": t_cached,
        "cached_speedup": t_pool / t_cached,
        "result_cache": cache_stats,
    }
    return row, report


def bench_rank_des(trials: int) -> tuple:
    """One DES-rank job through the pool, with its engine counters.

    The request routes through the batched delta-replay engine
    (``rank_method="des"``); the pooled payload must equal a direct
    :func:`~repro.service.workers.execute_request` pass exactly, and
    the service's ``/stats`` counters must account for every baseline
    sim and replayed replica.
    """
    from repro.configs.generator import enumerate_placements

    spec = _bench_spec()
    pool = list(enumerate_placements(spec, 2, 32))
    candidates = {f"c{i}": p for i, p in enumerate(pool[:3])}
    request = PlacementRequest(
        kind="rank",
        spec=spec,
        num_nodes=2,
        candidates=candidates,
        robust_rate=0.08,
        rank_method="des",
        trials=trials,
    )
    direct = execute_request(request)

    service = PlacementService(workers=WORKERS)
    with service:
        t0 = time.perf_counter()
        job = service.wait(service.submit(request).id, timeout=120.0)
        seconds = time.perf_counter() - t0
        counters = service.stats()["batched"]

    report = DivergenceReport(
        scenario="bench-service-rank-des",
        checks=(
            MetricCheck(
                "service",
                "rank_matches_direct",
                "serial-vs-pool",
                1.0,
                1.0 if job.result == direct else 0.0,
                0.0,
            ),
            MetricCheck(
                "service",
                "baseline_sims",
                "stats-vs-request",
                float(len(candidates)),
                float(counters["baseline_sims"]),
                0.0,
            ),
            MetricCheck(
                "service",
                "replicas_replayed",
                "stats-vs-request",
                float(len(candidates) * trials),
                float(counters["replicas_replayed"]),
                0.0,
            ),
        ),
    )

    row = {
        "candidates": len(candidates),
        "trials": trials,
        "seconds": seconds,
        "counters": counters,
    }
    return row, report


def bench_http(num_requests: int) -> tuple:
    """Submit+wait round trips over real sockets; p50/p99 latency."""
    spec = _bench_spec()
    request = PlacementRequest(kind="search", spec=spec, num_nodes=4)

    with make_server(port=0, workers=WORKERS) as server:
        client = PlacementClient(server.url)
        # first round trip computes; the rest are cache hits — the
        # latency distribution reflects the served (steady-state) path
        first = client.wait(client.submit(request)["id"], timeout=120.0)
        latencies = []
        for _ in range(num_requests):
            t0 = time.perf_counter()
            snapshot = client.wait(
                client.submit(request)["id"], timeout=120.0
            )
            latencies.append(time.perf_counter() - t0)
        served = score_from_dict(snapshot["result"]["score"])

    direct = score_placement(spec, served.placement)
    report = DivergenceReport(
        scenario="bench-service-http",
        checks=(
            MetricCheck(
                "service",
                "objective",
                "score-vs-service",
                direct.objective,
                served.objective,
                0.0,
            ),
            MetricCheck(
                "service",
                "makespan",
                "score-vs-service",
                direct.ensemble_makespan,
                served.ensemble_makespan,
                0.0,
            ),
            MetricCheck(
                "service",
                "first_vs_cached_payload",
                "compute-vs-cache",
                1.0,
                1.0 if snapshot["result"] == first["result"] else 0.0,
                0.0,
            ),
        ),
    )

    latencies.sort()
    row = {
        "requests": num_requests,
        "p50_ms": 1000 * statistics.median(latencies),
        "p99_ms": 1000 * latencies[int(0.99 * (len(latencies) - 1))],
        "mean_ms": 1000 * statistics.fmean(latencies),
    }
    return row, report


def run(smoke: bool) -> dict:
    # warm the search path so the timed pass measures steady state
    execute_request(_job_batch(1)[0])

    throughput, pool_report = bench_throughput(
        num_jobs=40 if smoke else 200
    )
    rank_des, rank_report = bench_rank_des(trials=4 if smoke else 8)
    http, http_report = bench_http(num_requests=20 if smoke else 100)
    return {
        "benchmark": "service",
        "mode": "smoke" if smoke else "full",
        "floors": {
            "throughput_jobs_per_s": THROUGHPUT_FLOOR,
            "cached_speedup": CACHED_SPEEDUP_FLOOR,
        },
        "throughput": throughput,
        "rank_des": rank_des,
        "http": http,
        "correctness": [
            pool_report.to_dict(),
            rank_report.to_dict(),
            http_report.to_dict(),
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
    throughput = results["throughput"]["throughput_jobs_per_s"]
    status = "ok" if throughput >= THROUGHPUT_FLOOR else "BELOW FLOOR"
    print(
        f"throughput: {throughput:.0f} jobs/s "
        f"(floor {THROUGHPUT_FLOOR:.0f}) {status}"
    )
    if throughput < THROUGHPUT_FLOOR:
        ok = False
    speedup = results["throughput"]["cached_speedup"]
    status = "ok" if speedup >= CACHED_SPEEDUP_FLOOR else "BELOW FLOOR"
    print(
        f"cached: {speedup:.1f}x "
        f"(floor {CACHED_SPEEDUP_FLOOR:.0f}x) {status}"
    )
    if speedup < CACHED_SPEEDUP_FLOOR:
        ok = False
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the placement service."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller batches (CI smoke run)",
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
    print(
        f"pool: {results['throughput']['jobs']} jobs on "
        f"{results['throughput']['workers']} workers in "
        f"{results['throughput']['pool_seconds']:.2f}s; resubmission "
        f"{results['throughput']['cached_seconds']:.3f}s"
    )
    rank = results["rank_des"]
    print(
        f"rank-des: {rank['candidates']} candidates x {rank['trials']} "
        f"replicas in {rank['seconds']:.2f}s "
        f"({rank['counters']['baseline_sims']} baselines captured, "
        f"{rank['counters']['replicas_replayed']} replicas replayed)"
    )
    print(
        f"http: p50 {results['http']['p50_ms']:.1f}ms, "
        f"p99 {results['http']['p99_ms']:.1f}ms over "
        f"{results['http']['requests']} round trips"
    )
    if not check_correctness(results):
        return 2
    return 0 if check_floors(results) else 1


if __name__ == "__main__":
    sys.exit(main())
