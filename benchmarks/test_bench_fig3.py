"""Benchmark: regenerate Figure 3 (component-level metrics).

Asserts the paper's three Figure-3 claims hold in the regenerated data:
co-location elevates miss ratios over Cf; analysis-analysis co-location
beats simulation-simulation on misses; heterogeneous co-location peaks
highest.
"""

from repro.experiments.fig3 import max_miss_ratio, mean_miss_ratio, run_fig3


def test_bench_fig3(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_fig3(**bench_settings), **cold_rounds
    )

    baseline = mean_miss_ratio(result, "Cf")
    for config in ("Cc", "C1.1", "C1.2", "C1.3", "C1.4", "C1.5"):
        assert mean_miss_ratio(result, config) > baseline

    assert mean_miss_ratio(result, "C1.1") > mean_miss_ratio(result, "C1.2")
    assert mean_miss_ratio(result, "C1.4") > mean_miss_ratio(result, "C1.2")

    het = min(max_miss_ratio(result, "C1.3"), max_miss_ratio(result, "C1.5"))
    homo = max(
        max_miss_ratio(result, c) for c in ("C1.1", "C1.2", "C1.4")
    )
    assert het > homo

    print("\n" + result.to_text())
