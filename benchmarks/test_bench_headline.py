"""Benchmark: the abstract's headline improvement spread.

Asserts that (a) the best co-located configuration wins both sets at
the final indicator stage and the spread grows as layers are added,
and (b) the extended straggler scenario demonstrates the unbounded
(>= four orders of magnitude) dynamic range the abstract refers to.
"""

import math

from repro.experiments.headline import run_headline, run_headline_extended


def test_bench_headline(benchmark, bench_settings, cold_rounds):
    result = benchmark.pedantic(
        lambda: run_headline(**bench_settings), **cold_rounds
    )

    for set_name in ("set1 (K=1)", "set2 (K=2)"):
        rows = {
            row["stage"]: row
            for row in result.rows
            if row["set"] == set_name
        }
        # the fully co-located configuration wins the final stage
        assert rows["U,A,P"]["best_config"] in ("C1.5", "C2.8")
        # each added layer widens the separation
        assert (
            rows["U"]["improvement_ratio"]
            < rows["U,A"]["improvement_ratio"]
            <= rows["U,A,P"]["improvement_ratio"] + 1e-9
        )

    print("\n" + result.to_text())


def test_bench_headline_extended(benchmark, bench_settings):
    result = benchmark(lambda: run_headline_extended(n_steps=bench_settings["n_steps"]))

    one, two = result.rows
    assert one["improvement_ratio"] > 10  # over an order of magnitude
    assert math.isinf(two["improvement_ratio"])  # unbounded (F <= 0)

    print("\n" + result.to_text())
