"""Benchmarks for the design-choice ablations (DESIGN.md §5).

Each ablation disables one mechanism of the platform/DTL model and
asserts the paper's ordering changes in the predicted direction —
evidence that the mechanism, not a tuning accident, produces the
result.
"""

from repro.experiments.ablation import (
    run_contention_ablation,
    run_locality_ablation,
    run_tax_ablation,
)


def _spans(result, variant):
    return {
        row["configuration"]: row["ensemble_makespan"]
        for row in result.rows
        if row["variant"] == variant
    }


def test_bench_contention_ablation(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_contention_ablation(**bench_settings), **cold_rounds
    )
    on, off = _spans(result, "contention-on"), _spans(result, "contention-off")
    # with contention on, C1.4's analysis co-location costs > 15%
    gap_on = on["C1.4"] / on["C1.5"]
    assert gap_on > 1.15
    # with contention off, only the locality/tax share of the gap
    # remains (C1.4 still reads remotely), so the gap collapses to a
    # small fraction of its contended size
    gap_off = off["C1.4"] / off["C1.5"]
    assert gap_off < 1.08
    assert (gap_off - 1.0) < 0.4 * (gap_on - 1.0)
    print("\n" + result.to_text())


def test_bench_locality_ablation(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_locality_ablation(**bench_settings), **cold_rounds
    )
    dimes, bb = _spans(result, "dimes"), _spans(result, "burst-buffer")
    assert dimes["Cc"] < dimes["Cf"]  # locality rewards co-location
    assert bb["Cc"] > bb["Cf"]  # placement-insensitive tier does not
    print("\n" + result.to_text())


def test_bench_tax_ablation(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_tax_ablation(**bench_settings), **cold_rounds
    )
    on, off = _spans(result, "tax-on"), _spans(result, "tax-off")
    assert on["Cc"] < on["Cf"]
    assert off["Cf"] < off["Cc"]
    print("\n" + result.to_text())
