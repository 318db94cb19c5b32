"""Benchmark: regenerate Figure 9 (F(P) stage paths, set 2).

Asserts the §5.2 claims for the two-analyses-per-simulation set:
P^{U,P} splits the configurations by node count; adding A isolates
C2.8; the final indicator ranks C2.8 first.
"""

from repro.experiments.fig8 import ranking
from repro.experiments.fig9 import run_fig9

TWO_NODE = {"C2.6", "C2.7", "C2.8"}


def test_bench_fig9(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_fig9(**bench_settings), **cold_rounds
    )

    up = {row["configuration"]: row["U,P"] for row in result.rows}
    worst_two_node = min(up[c] for c in TWO_NODE)
    best_three_node = max(v for c, v in up.items() if c not in TWO_NODE)
    assert worst_two_node > best_three_node

    ua = {row["configuration"]: row["U,A"] for row in result.rows}
    c28 = ua.pop("C2.8")
    assert c28 > max(ua.values())

    assert ranking(result, "U,A,P")[0] == "C2.8"

    print("\n" + result.to_text())
