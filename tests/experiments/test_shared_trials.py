"""Tests for the shared default-platform trial sets of the figures.

Figures 3-5 and 8-9, the headline and the ablations' default-platform
variants read their trials from one bounded memo, so a reproduction
runs each distinct trial set once. These tests pin how many DES runs a
reproduction makes, that sharing leaves every artifact unchanged, and
that the memo stays bounded and private to the figure functions.
"""

import pytest

from repro.configs.table2 import get_config
from repro.dtl.dimes import InMemoryStagingDTL
from repro.experiments import (
    ablation,
    fig3,
    fig4,
    fig5,
    fig8,
    fig9,
    run_contention_ablation,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig7,
    run_fig8,
    run_fig9,
    run_headline,
    run_locality_ablation,
    run_tax_ablation,
)
from repro.experiments.base import (
    _shared_trials,
    run_configuration_trials,
    trial_mean,
)
from repro.experiments.headline import run_headline_extended
from repro.platform.specs import make_cori_like_cluster
from repro.runtime import results
from repro.runtime.executor import EnsembleExecutor

#: the trial settings of ``figures --fast``
FIGURES_FAST = dict(trials=2, n_steps=6)

SEEDED = (run_fig3, run_fig4, run_fig5, run_fig8, run_fig9, run_headline)
ABLATIONS = (run_contention_ablation, run_locality_ablation, run_tax_ablation)


def _reproduce(base_seed, **settings):
    """The artifacts of ``figures``, in its order, seeded at ``base_seed``."""
    seeded = dict(settings, base_seed=base_seed)
    return (
        [run(**seeded) for run in SEEDED[:3]]
        + [run_fig7()]
        + [run(**seeded) for run in SEEDED[3:]]
        + [run_headline_extended()]
        + [run(**settings) for run in ABLATIONS]
    )


@pytest.fixture(autouse=True)
def cold_memo():
    _shared_trials.cache_clear()
    yield
    _shared_trials.cache_clear()


@pytest.fixture
def executor_runs(monkeypatch):
    """Seeds of every ``EnsembleExecutor.run`` call, in call order."""
    seeds = []
    real_run = EnsembleExecutor.run

    def counted(self):
        seeds.append(self.seed)
        return real_run(self)

    monkeypatch.setattr(EnsembleExecutor, "run", counted)
    return seeds


class TestRunsPerReproduction:
    def test_fresh_then_repeated(self, executor_runs):
        # 14 Table 2 + 16 Table 4 runs, 8 default-platform ablation
        # runs, 12 runs on ablated platforms
        _reproduce(base_seed=1, **FIGURES_FAST)
        assert len(executor_runs) == 50
        # the ablations run at base seed 0 every time, so their
        # default-platform sets carry over
        _reproduce(base_seed=2, **FIGURES_FAST)
        assert len(executor_runs) == 50 + 42

    def test_base_seed_zero_shares_the_ablations_with_table2(
        self, executor_runs
    ):
        # at base seed 0 (``figures --fast``), contention-on C1.4/C1.5
        # and DIMES/tax-on Cf/Cc are Table 2 sets
        _reproduce(base_seed=0, **FIGURES_FAST)
        assert len(executor_runs) == 42

    def test_each_trial_set_prices_once(self, executor_runs, pricings):
        # 21 sets of 2 trials: 7 Table 2, 8 Table 4, 6 on ablated platforms
        _reproduce(base_seed=0, **FIGURES_FAST)
        assert len(executor_runs) == 42
        assert len(pricings) == 21

    def test_only_what_figure3_reads_synthesizes_counters(
        self, monkeypatch, executor_runs
    ):
        # Figure 3 reads the 24 components of the 7 Table 2 sets, 2
        # trials each; the 128 of the other 28 runs are never read
        syntheses = []
        real = results.synthesize_counters

        def counted(*args, **kwargs):
            syntheses.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(results, "synthesize_counters", counted)
        _reproduce(base_seed=0, **FIGURES_FAST)
        assert len(executor_runs) == 42
        assert len(syntheses) == 48

    def test_without_the_memo_every_figure_reruns(
        self, monkeypatch, executor_runs
    ):
        for module in (fig3, fig4, fig5, fig8, fig9, ablation):
            monkeypatch.setattr(
                module, "_shared_trials", _shared_trials.__wrapped__
            )
        _reproduce(base_seed=1, **FIGURES_FAST)
        assert len(executor_runs) == 118
        _reproduce(base_seed=2, **FIGURES_FAST)
        assert len(executor_runs) == 2 * 118


@pytest.mark.parametrize(
    "run", SEEDED + ABLATIONS, ids=lambda run: run.__name__
)
def test_text_independent_of_what_ran_before(run):
    fast = dict(trials=2, n_steps=4)
    cold = run(**fast).to_text()
    _shared_trials.cache_clear()
    for other in SEEDED + ABLATIONS:
        if other is not run:
            other(**fast)
    assert run(**fast).to_text() == cold
    assert run(**fast).to_text() == cold


@pytest.mark.parametrize("trials", [2, 5])
@pytest.mark.parametrize("name", ["C1.4", "C1.5", "Cf", "Cc"])
def test_ablation_default_variant_equals_explicit_platform(name, trials):
    config = get_config(name)
    cluster = make_cori_like_cluster(config.num_nodes)
    dtl = InMemoryStagingDTL(
        network=cluster.network,
        memory_bandwidth=cluster.node_spec.memory_bandwidth,
    )
    explicit = run_configuration_trials(
        config,
        trials=trials,
        n_steps=4,
        timing_noise=0.02,
        cluster=cluster,
        dtl=dtl,
    )
    shared = _shared_trials(config, trials, 4, 0, 0.02)
    assert [r.ensemble_makespan for r in shared] == [
        r.ensemble_makespan for r in explicit
    ]
    assert [r.member_makespans for r in shared] == [
        r.member_makespans for r in explicit
    ]
    assert ablation._makespan(name, trials, 4, 0.02) == trial_mean(
        [r.ensemble_makespan for r in explicit]
    )


def test_memo_stays_within_its_bound(executor_runs):
    bound = _shared_trials.cache_info().maxsize
    for base_seed in range(10):
        _reproduce(base_seed, trials=1, n_steps=4)
        assert _shared_trials.cache_info().currsize <= bound
        # 7 Table 2 + 8 Table 4 + 6 ablated-platform runs: eviction
        # never drops the ablations' default-platform sets
        assert len(executor_runs) == 21 * (base_seed + 1)
    assert _shared_trials.cache_info().currsize == bound


def test_public_trial_runner_is_not_cached():
    config = get_config("C1.5")
    first = run_configuration_trials(config, trials=2, n_steps=4)
    second = run_configuration_trials(config, trials=2, n_steps=4)
    assert first is not second
    assert all(a is not b for a, b in zip(first, second))
    assert [r.ensemble_makespan for r in first] == [
        r.ensemble_makespan for r in second
    ]
