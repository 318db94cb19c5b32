"""Benchmark: regenerate Figure 5 (workflow ensemble makespans).

Asserts C1.5 has the shortest ensemble makespan of the two-member
configurations and that the ensemble makespan ordering matches the
member-level story (C1.1/C1.4 worst).
"""

from repro.experiments.fig5 import run_fig5


def test_bench_fig5(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_fig5(**bench_settings), **cold_rounds
    )

    spans = {
        row["configuration"]: row["ensemble_makespan"] for row in result.rows
    }
    for other in ("C1.1", "C1.2", "C1.3", "C1.4"):
        assert spans["C1.5"] < spans[other]
    # the analysis-contended configurations are the worst
    assert min(spans["C1.1"], spans["C1.4"]) > max(
        spans["C1.2"], spans["C1.3"], spans["C1.5"]
    )

    print("\n" + result.to_text())
