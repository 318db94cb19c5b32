"""Shared settings for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts,
asserts its qualitative shape (who wins, where crossovers fall), and
prints the regenerated rows/series so ``pytest benchmarks/
--benchmark-only -s`` reproduces the paper's tables on stdout.

The ``bench_settings`` fixture keeps individual timed runs fast
(2 trials, 8 in situ steps) — stage times are step-invariant in steady
state, so the shapes are unaffected; EXPERIMENTS.md records the
full-protocol (5-trial, 37-step) numbers.
"""

import pytest

from repro.experiments.base import _shared_trials


@pytest.fixture
def bench_settings():
    return dict(trials=2, n_steps=8, timing_noise=0.02)


@pytest.fixture
def cold_rounds():
    """``benchmark.pedantic`` settings for the figures that share trials.

    The shared trial memo is cleared before each of 5 rounds, so every
    round runs its trials instead of timing cache hits.
    """
    return dict(setup=_shared_trials.cache_clear, rounds=5)
