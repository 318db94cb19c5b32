"""Benchmark: regenerate Figure 8 (F(P) stage paths, set 1).

Asserts the three §5.2 claims for the one-analysis-per-simulation set:
P^{U,P} cannot separate C1.4/C1.5; P^{U,A} can; the final indicator
ranks C1.5 > C1.4 > {C1.1, C1.2, C1.3}.
"""

from repro.experiments.fig8 import ranking, run_fig8


def test_bench_fig8(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_fig8(**bench_settings), **cold_rounds
    )

    c14 = result.row_for("configuration", "C1.4")
    c15 = result.row_for("configuration", "C1.5")

    # P^{U,P}: indistinguishable (both 2-node, similar efficiency)
    assert abs(c14["U,P"] - c15["U,P"]) / max(c14["U,P"], c15["U,P"]) < 0.10
    # P^{U,A}: clearly separated (placement indicator 0.5 vs 1.0)
    assert c15["U,A"] > 1.5 * c14["U,A"]
    # final ranking
    order = ranking(result, "U,A,P")
    assert order[0] == "C1.5"
    assert order[1] == "C1.4"
    assert set(order[2:]) == {"C1.1", "C1.2", "C1.3"}
    # both stage orders converge at the final value
    for row in result.rows:
        assert abs(row["U,A,P"] - row["U,P,A"]) < 1e-12

    print("\n" + result.to_text())
