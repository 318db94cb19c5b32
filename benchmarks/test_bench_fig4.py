"""Benchmark: regenerate Figure 4 (ensemble member makespans).

Asserts the paper's claim that C1.5 yields the shortest member
makespan, with the analysis-contended configurations (C1.1, C1.4) as
the stragglers.
"""

from repro.experiments.fig4 import (
    best_member_makespan,
    run_fig4,
    worst_member_makespan,
)


def test_bench_fig4(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_fig4(**bench_settings), **cold_rounds
    )

    c15_worst = worst_member_makespan(result, "C1.5")
    for straggler in ("C1.1", "C1.2", "C1.4"):
        assert c15_worst < best_member_makespan(result, straggler)
    # C1.3's co-located member ties C1.5 (same local placement)
    assert c15_worst <= worst_member_makespan(result, "C1.3") * 1.001

    print("\n" + result.to_text())
