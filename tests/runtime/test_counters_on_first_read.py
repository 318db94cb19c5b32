"""Table-1 products are synthesized on first read; noise-free runs draw nothing.

A run's :attr:`~repro.runtime.results.ExecutionResult.counters` and
``component_metrics`` are computed when first read, from the run's
spec, pricing, node clock, seed and noise. :func:`eager_table1` is the
loop ``build_result`` ran after every run before that: the values read
must equal it for every Table 2 and Table 4 configuration at noisy
seeds, also when read after the same executor has run later seeds.
"""

import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import get_config, table2
from repro.configs.table4 import table4
from repro.faults.batched import capture_timeline
from repro.monitoring.counters import synthesize_counters
from repro.monitoring.metrics import component_metrics
from repro.runtime import results as results_module
from repro.runtime.effective import component_jitter, compute_effective_stages
from repro.runtime.executor import EnsembleExecutor
from repro.util.rng import RandomSource

NOISE = 0.02
SEEDS = (3, 4, 5)


def eager_table1(spec, effective, tracer, cluster, seed, noise):
    """The counters and metrics ``build_result`` synthesized for every
    run, with its loop (the reference)."""
    counter_rng = RandomSource(seed, name="counters")
    freq = cluster.node_spec.core_freq_hz
    counters, metrics = {}, {}
    for member_spec, member_eff in zip(spec.members, effective):
        models = [member_spec.simulation] + list(member_spec.analyses)
        assessments = [member_eff.simulation.assessment] + [
            a.assessment for a in member_eff.analyses
        ]
        for model, assessment in zip(models, assessments):
            cnt = synthesize_counters(
                model,
                assessment,
                core_freq_hz=freq,
                n_steps=member_spec.n_steps,
                rng=counter_rng.spawn(model.name),
                noise=noise,
            )
            counters[model.name] = cnt
            metrics[model.name] = component_metrics(model.name, tracer, cnt)
    return counters, metrics


def component_names(spec):
    return [
        model.name
        for member in spec.members
        for model in (member.simulation, *member.analyses)
    ]


@pytest.fixture
def syntheses(monkeypatch):
    """Component names of every counter synthesis, in call order."""
    calls = []
    real = results_module.synthesize_counters

    def counted(model, *args, **kwargs):
        calls.append(model.name)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(results_module, "synthesize_counters", counted)
    return calls


@pytest.fixture
def spawns(monkeypatch):
    """Names of every child stream spawned, in call order."""
    names = []
    real = RandomSource.spawn

    def counted(self, name):
        names.append(name)
        return real(self, name)

    monkeypatch.setattr(RandomSource, "spawn", counted)
    return names


@pytest.mark.parametrize(
    "config", table2() + table4(), ids=lambda config: config.name
)
def test_first_read_equals_the_eager_loop(config):
    spec = build_spec(config, n_steps=4)
    executor = EnsembleExecutor(spec, config.placement(), timing_noise=NOISE)
    effective = compute_effective_stages(
        spec, executor.placement, executor.cluster, executor.dtl
    )

    def expected(seed, result):
        return eager_table1(
            spec, effective, result.tracer, executor.cluster, seed, NOISE
        )

    results = []
    for seed in SEEDS:
        executor.seed = seed
        results.append(executor.run())
        if seed == SEEDS[0]:  # read before the executor runs again
            first = results[0]
            assert (first.counters, first.component_metrics) == expected(
                seed, first
            )
    # the rest are read after the executor has run every later seed
    for seed, result in zip(SEEDS, results):
        assert (result.counters, result.component_metrics) == expected(
            seed, result
        )


def c15_executor(noise):
    config = get_config("C1.5")
    spec = build_spec(config, n_steps=4)
    return EnsembleExecutor(spec, config.placement(), timing_noise=noise)


class TestOnFirstRead:
    def test_nothing_is_synthesized_until_read(self, syntheses):
        executor = c15_executor(NOISE)
        result = executor.run()
        assert syntheses == []
        metrics = result.component_metrics
        assert syntheses == component_names(executor.spec)
        assert list(metrics) == component_names(executor.spec)

    def test_values_are_kept(self, syntheses):
        executor = c15_executor(NOISE)
        result = executor.run()
        counters, metrics = result.counters, result.component_metrics
        assert result.counters is counters
        assert result.component_metrics is metrics
        assert syntheses == component_names(executor.spec)


class TestNoiseFreeDrawsNothing:
    """At zero timing noise every factor is 1.0, so no child stream is
    spawned: not for the executor's jitter, the capture's, or the
    counters."""

    def test_zero_noise_run_spawns_no_stream(self, spawns):
        result = c15_executor(0.0).run()
        result.counters, result.component_metrics
        assert spawns == []

    def test_zero_noise_capture_spawns_no_stream(self, spawns):
        config = get_config("C1.3")
        capture_timeline(build_spec(config, n_steps=4), config.placement())
        assert spawns == []

    def test_noisy_run_spawns_per_component_and_per_read(self, spawns):
        executor = c15_executor(NOISE)
        result = executor.run()
        assert spawns == component_names(executor.spec)
        result.counters
        assert spawns == 2 * component_names(executor.spec)

    def test_noise_free_factors_are_ones(self):
        executor = c15_executor(0.0)
        effective = compute_effective_stages(
            executor.spec, executor.placement, executor.cluster, executor.dtl
        )
        jitter = component_jitter(effective, 9, 0.0)
        assert list(jitter) == component_names(executor.spec)
        assert all(factors.tolist() == [1.0] * 8 for factors in jitter.values())
