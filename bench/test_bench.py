"""Smoke tests of the repo benchmark; run with ``pytest bench``.

Tier-1 collects ``tests/`` only, so these run on demand. Every run
uses ``--smoke`` job counts (one start per child, a dozen jobs).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import figures_worker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _metrics(section: str):
    return {m["name"]: m["unit"] for m in run.spec()[section]}


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _smoke_seed(name: str) -> int:
    """First seed whose smoke jobs reach every layer mapped to ``name``."""
    for seed in range(100):
        mix = workloads.describe(
            workloads.make_jobs(name, seed, run.SMOKE_JOBS)[1]
        )
        kinds = mix["kinds"]
        if name == "plan-mix":
            ok = "coschedule" in kinds and mix["search_vectorized_share"]
        elif name == "des-mix":
            ok = {"rank", "reschedule"} <= set(kinds)
        elif name == "hot-cache":
            ok = {"search", "score"} <= set(kinds)
        else:
            ok = True
        if ok:
            return seed
    raise AssertionError(f"no smoke seed reaches every layer of {name}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_job_list(name):
    first = workloads.digests(workloads.make_jobs(name, 3, 40)[1])
    again = workloads.digests(workloads.make_jobs(name, 3, 40)[1])
    other = workloads.digests(workloads.make_jobs(name, 4, 40)[1])
    assert first == again
    assert first != other


def _shape(job) -> tuple:
    """What a deck fixes about one job; the seed varies the rest."""
    if not isinstance(job, workloads.PlacementRequest):
        return ("figures",)
    if job.kind == "search":
        size = workloads.count_canonical_assignments(
            workloads.component_core_demands(job.spec),
            job.num_nodes,
            job.cores_per_node,
        )
        return (job.kind, job.num_nodes, size)
    if job.kind == "coschedule":
        return (job.kind, job.num_nodes, len(job.coschedule.requests))
    if job.kind == "rank":
        return (job.kind, job.trials, len(job.candidates))
    if job.kind == "reschedule":
        return (job.kind, job.reschedule.drift_magnitude)
    return (job.kind, job.num_nodes)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_sends_the_same_shapes(name):
    workload = workloads.WORKLOADS[name]
    count = workload.job_count(run.spec()["run_seconds"], run.ROUNDS)
    assert count % workload.block == 0
    first, other = (
        sorted(map(_shape, workloads.make_jobs(name, seed, count)[1]))
        for seed in (0, 1)
    )
    assert first == other


def test_probe_orders_every_core_fastest_first():
    cores = sorted(os.sched_getaffinity(0))
    speeds = run.cores_by_speed(cores)
    assert sorted(core for _, core in speeds) == cores
    assert speeds == sorted(speeds)


def test_plan_mix_searches_are_feasible_and_distinct():
    jobs = workloads.make_jobs("plan-mix", 0, 200)[1]
    assert len(set(workloads.digests(jobs))) == len(jobs)
    assert all(
        1 <= count <= workloads.MAX_SEARCH_CANDIDATES
        for _, _, count in workloads.search_shapes()
    )
    share = workloads.describe(jobs)["search_vectorized_share"]
    assert 0.1 < share < 0.4


def test_end_to_end_metrics_are_printed_with_units(capsys):
    assert run.main(["--smoke"]) == 0
    out = capsys.readouterr().out
    line = _last_json(out)
    assert line["correct"] and line["failed"] == 0
    for name in workloads.WORKLOADS:
        block = out.split(f"== {name} ")[1].split("\n== ")[0]
        for metric, unit in _metrics("end_to_end").items():
            assert f" {metric} " in block
            value = line["metrics"][f"{name}.{metric}"]
            assert value["unit"] == unit
            # a dozen jobs can finish inside one 10 ms CPU clock tick
            if metric != "cpu_ms_per_job":
                assert value["value"] > 0
            assert any(
                row.split()[0] == metric and row.split()[-1] == unit
                for row in block.splitlines()
                if row.split()
            )


def test_single_workload_result_line_has_exactly_four_keys(capsys):
    cores = os.sched_getaffinity(0)
    assert run.main(
        ["--smoke", "--workload", "hot-cache", "--seed", "1", "--trace", "0"]
    ) == 0
    # the load generator gets its cores back after the rounds
    assert os.sched_getaffinity(0) == cores
    line = _last_json(capsys.readouterr().out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == run.SMOKE_JOBS and line["failed"] == 0
    units = _metrics("end_to_end")
    assert set(line["metrics"]) == set(units)
    for metric, value in line["metrics"].items():
        assert value["unit"] == units[metric]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_fires_its_spans_and_accounts_for_latency(name, capsys):
    seed = _smoke_seed(name)
    result = run.run_workload(name, seed, 1.0, trace=True, smoke=True)
    assert result.correct and result.failed == 0
    assert set(result.metrics) == set(_metrics("per_layer"))
    silent = [
        span
        for span in run.SPANS_BY_WORKLOAD[name]
        if not result.span_counts.get(span)
    ]
    assert not silent, f"spans that never fired on {name}: {silent}"
    if workloads.WORKLOADS[name].service:
        assert result.metrics["trace.unaccounted_ratio"] <= 0.10
    run.report(result, seed, trace=True)
    out = capsys.readouterr().out
    for metric, unit in _metrics("per_layer").items():
        assert any(
            row.split()[0] == metric and row.split()[2] == unit
            for row in out.splitlines()
            if len(row.split()) >= 3
        ), metric


def test_perturbed_service_payload_exits_2(monkeypatch, capsys):
    import repro.service.workers as service_workers

    original = service_workers.execute_request

    def perturbed(request, stage_cache=None):
        return {**original(request, stage_cache=stage_cache), "extra": 1}

    monkeypatch.setattr(service_workers, "execute_request", perturbed)
    assert run.main(["--smoke", "--workload", "hot-cache"]) == 2
    assert _last_json(capsys.readouterr().out)["correct"] is False


def test_perturbed_artifact_text_exits_2(monkeypatch, capsys):
    original = figures_worker.reproduce
    monkeypatch.setattr(
        figures_worker, "reproduce", lambda seed: original(seed) + " "
    )
    assert run.main(["--smoke", "--workload", "paper-figures"]) == 2
    assert _last_json(capsys.readouterr().out)["correct"] is False


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "plan-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _record(path: Path, values, failed=0) -> None:
    with path.open("a") as out:
        for value in values:
            result = {
                "correct": True,
                "attempted": 100,
                "failed": failed,
                "metrics": {
                    "latency_p50_ms": {"value": value, "unit": "ms"}
                },
            }
            out.write(
                json.dumps(
                    {"workload": "w", "seed": 0, "trace": 0, "result": result}
                )
                + "\n"
            )


def test_compare_applies_bounds_spread_and_failures(tmp_path, capsys):
    bound = next(
        m["bound"]
        for m in run.spec()["end_to_end"]
        if m["name"] == "latency_p50_ms"
    )
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    a, same, slow, noisy, failing, fast = (
        tmp_path / f"{n}.jsonl"
        for n in ("a", "same", "slow", "noisy", "failing", "fast")
    )
    _record(a, base)
    _record(same, [v * (1 + bound / 4) for v in base])
    _record(slow, [v * (1 + 2 * bound) for v in base])
    _record(
        noisy, [v * f for v, f in zip(base, [1 - bound, 1 + bound] * 5)]
    )
    _record(failing, base, failed=1)
    _record(fast, [v * (1 - bound / 2) for v in base])

    assert compare.main([str(a), str(same)]) == 0
    assert " ok" in capsys.readouterr().out
    assert compare.main([str(a), str(slow)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([str(a), str(noisy)]) == 1
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([str(a), str(failing)]) == 1
    assert "failure share rose" in capsys.readouterr().out
    assert compare.main([str(a), str(fast)]) == 0
    assert "gain" in capsys.readouterr().out
