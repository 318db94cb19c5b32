"""Tests for synthetic hardware counters."""

import pytest

from repro.components.analysis import EigenAnalysisModel
from repro.components.simulation import MDSimulationModel
from repro.monitoring.counters import HardwareCounters, synthesize_counters
from repro.platform.contention import ContentionModel
from repro.platform.node import NodeSpec
from repro.util.errors import ValidationError
from repro.util.rng import RandomSource

FREQ = 2.3e9


@pytest.fixture
def model():
    return ContentionModel(core_freq_hz=FREQ)


def solo(model, component):
    """The assessment of ``component`` alone on a one-socket node."""
    node = NodeSpec(cores=component.cores, sockets=1)
    return model.assess(node, [(component.profile, component.cores)])[0]


@pytest.fixture
def sim():
    return MDSimulationModel("sim")


@pytest.fixture
def ana():
    return EigenAnalysisModel("ana")


class TestHardwareCounters:
    def test_derived_metrics(self):
        c = HardwareCounters(
            instructions=1000.0,
            cycles=2000.0,
            llc_references=100.0,
            llc_misses=25.0,
        )
        assert c.llc_miss_ratio == pytest.approx(0.25)
        assert c.memory_intensity == pytest.approx(0.025)
        assert c.ipc == pytest.approx(0.5)

    def test_zero_denominators(self):
        c = HardwareCounters(0.0, 0.0, 0.0, 0.0)
        assert c.llc_miss_ratio == 0.0
        assert c.memory_intensity == 0.0
        assert c.ipc == 0.0

    def test_misses_cannot_exceed_references(self):
        with pytest.raises(ValidationError):
            HardwareCounters(100.0, 100.0, 10.0, 20.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            HardwareCounters(-1.0, 0.0, 0.0, 0.0)


class TestSynthesis:
    def test_solo_counters_reflect_profile(self, model, sim):
        assessment = solo(model, sim)
        counters = synthesize_counters(sim, assessment, FREQ, n_steps=10)
        assert counters.llc_miss_ratio == pytest.approx(
            sim.profile.solo_llc_miss_ratio
        )
        assert counters.ipc == pytest.approx(1.0 / sim.profile.solo_cpi())

    def test_instructions_scale_with_steps(self, model, sim):
        assessment = solo(model, sim)
        c10 = synthesize_counters(sim, assessment, FREQ, n_steps=10)
        c20 = synthesize_counters(sim, assessment, FREQ, n_steps=20)
        assert c20.instructions == pytest.approx(2 * c10.instructions)

    def test_contended_assessment_lowers_ipc(self, model, sim, ana):
        shared = model.assess(
            NodeSpec(cores=24, sockets=1),
            [(sim.profile, 16), (ana.profile, 8)],
        )[0]
        c_solo = synthesize_counters(sim, solo(model, sim), FREQ, n_steps=5)
        c_shared = synthesize_counters(sim, shared, FREQ, n_steps=5)
        assert c_shared.ipc < c_solo.ipc
        assert c_shared.llc_miss_ratio > c_solo.llc_miss_ratio
        # instructions retired are placement-invariant
        assert c_shared.instructions == pytest.approx(c_solo.instructions)

    def test_noise_seeded(self, model, sim):
        assessment = solo(model, sim)
        a = synthesize_counters(
            sim, assessment, FREQ, 5, rng=RandomSource(1), noise=0.05
        )
        b = synthesize_counters(
            sim, assessment, FREQ, 5, rng=RandomSource(1), noise=0.05
        )
        c = synthesize_counters(
            sim, assessment, FREQ, 5, rng=RandomSource(2), noise=0.05
        )
        assert a.instructions == b.instructions
        assert a.instructions != c.instructions

    def test_noisy_misses_never_exceed_references(self, model, ana):
        assessment = solo(model, ana)
        for seed in range(20):
            c = synthesize_counters(
                ana, assessment, FREQ, 5, rng=RandomSource(seed), noise=0.2
            )
            assert c.llc_misses <= c.llc_references

    def test_invalid_args(self, model, sim):
        assessment = solo(model, sim)
        with pytest.raises(ValidationError):
            synthesize_counters(sim, assessment, FREQ, n_steps=0)
        with pytest.raises(ValidationError):
            synthesize_counters(sim, assessment, FREQ, 5, noise=-0.1)
