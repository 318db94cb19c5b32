"""Tests for the co-location interference model."""

import dataclasses

import pytest

from repro.components.profiles import analysis_profile, simulation_profile
from repro.platform.cache import CacheSpec
from repro.platform.contention import ContentionModel, WorkloadProfile
from repro.platform.node import NodeSpec
from repro.util.errors import ValidationError
from repro.util.units import MIB


@pytest.fixture
def cache():
    return CacheSpec(size_bytes=40 * MIB)


@pytest.fixture
def model():
    return ContentionModel()


@pytest.fixture
def sim():
    return simulation_profile("sim")


@pytest.fixture
def ana():
    return analysis_profile("ana")


class TestWorkloadProfile:
    def test_solo_cpi(self):
        p = WorkloadProfile(
            name="x",
            llc_refs_per_instr=0.01,
            solo_llc_miss_ratio=0.1,
            base_cpi=0.5,
            miss_penalty_cycles=100.0,
        )
        assert p.solo_cpi() == pytest.approx(0.5 + 0.01 * 0.1 * 100)

    def test_max_below_solo_rejected(self):
        with pytest.raises(ValidationError):
            WorkloadProfile(
                name="x", solo_llc_miss_ratio=0.5, max_llc_miss_ratio=0.4
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            WorkloadProfile(name="")

    def test_scaled_multiplies_instructions(self):
        p = WorkloadProfile(name="x", instructions_per_unit=1e9)
        q = p.scaled("y", 2.0)
        assert q.instructions_per_unit == 2e9
        assert q.name == "y"


class TestMissRatios:
    def test_solo_component_keeps_solo_ratio(self, model, cache, sim):
        assert model.miss_ratios(cache, [sim]) == [sim.solo_llc_miss_ratio]

    def test_empty_list(self, model, cache):
        assert model.miss_ratios(cache, []) == []

    def test_contention_raises_miss_ratios(self, model, cache, sim, ana):
        solo = model.miss_ratios(cache, [sim])[0]
        shared = model.miss_ratios(cache, [sim, ana])[0]
        assert shared > solo

    def test_miss_ratios_bounded_by_profile_max(self, model, cache, sim, ana):
        ratios = model.miss_ratios(cache, [sim, ana, ana, ana])
        assert ratios[0] <= sim.max_llc_miss_ratio + 1e-12
        for r in ratios[1:]:
            assert r <= ana.max_llc_miss_ratio + 1e-12

    def test_symmetric_competitors_get_equal_ratios(self, model, cache, ana):
        ana2 = dataclasses.replace(ana, name="ana2")
        r1, r2 = model.miss_ratios(cache, [ana, ana2])
        assert r1 == pytest.approx(r2)

    def test_disabled_model_returns_solo(self, cache, sim, ana):
        off = ContentionModel(enabled=False)
        assert off.miss_ratios(cache, [sim, ana]) == [
            sim.solo_llc_miss_ratio,
            ana.solo_llc_miss_ratio,
        ]

    def test_aggressive_streamer_crushes_quiet_kernel(self, model, cache, sim, ana):
        """The paper's Figure 3 asymmetry: the analysis barely notices the
        simulation, while the simulation's miss ratio spikes."""
        r_sim, r_ana = model.miss_ratios(cache, [sim, ana])
        sim_increase = (r_sim - sim.solo_llc_miss_ratio) / sim.solo_llc_miss_ratio
        ana_increase = (r_ana - ana.solo_llc_miss_ratio) / ana.solo_llc_miss_ratio
        assert sim_increase > 10 * ana_increase


def one_socket(cache, cores=32, **spec):
    """A node whose cores all share ``cache``."""
    return NodeSpec(cores=cores, sockets=1, llc=cache, **spec)


class TestAssessNode:
    def test_dilation_is_cpi_ratio(self, model, cache, sim, ana):
        a, _ = model.assess(one_socket(cache), [(sim, 16), (ana, 8)])
        assert a.dilation == pytest.approx(a.cpi / sim.solo_cpi())
        assert a.dilation >= 1.0

    def test_solo_assessment_has_unit_dilation(self, model, cache, sim):
        [a] = model.assess(one_socket(cache), [(sim, 16)])
        assert a.dilation == pytest.approx(1.0)
        assert a.llc_miss_ratio == pytest.approx(sim.solo_llc_miss_ratio)

    def test_memory_intensity_and_ipc(self, model, cache, ana):
        [a] = model.assess(one_socket(cache), [(ana, 8)])
        assert a.memory_intensity == pytest.approx(
            ana.llc_refs_per_instr * a.llc_miss_ratio
        )
        assert a.ipc == pytest.approx(1.0 / a.cpi)

    def test_bandwidth_overload_stretches_all(self, cache):
        hog = WorkloadProfile(
            name="hog",
            working_set_bytes=200 * MIB,
            llc_refs_per_instr=0.1,
            solo_llc_miss_ratio=0.9,
            max_llc_miss_ratio=0.95,
            base_cpi=0.5,
        )
        tight = one_socket(cache, memory_bandwidth=1e9)
        [a] = ContentionModel().assess(tight, [(hog, 16)])
        assert a.bandwidth_stretch > 1.0
        assert a.dilation > 1.0

    def test_two_sockets_do_not_share_cache(self, model, cache, sim, ana):
        # same node, different sockets: no cache contention between them
        node = NodeSpec(cores=2, sockets=2, llc=cache)
        s, a = model.assess(node, [(sim, 1), (ana, 1)])
        assert s.llc_miss_ratio == pytest.approx(sim.solo_llc_miss_ratio)
        assert a.llc_miss_ratio == pytest.approx(ana.solo_llc_miss_ratio)


class TestPaperProfiles:
    def test_simulation_is_compute_intensive(self):
        sim = simulation_profile("s")
        ana = analysis_profile("a")
        assert sim.llc_refs_per_instr < ana.llc_refs_per_instr
        assert sim.solo_llc_miss_ratio < ana.solo_llc_miss_ratio

    def test_simulation_has_convex_response(self):
        assert simulation_profile("s").contention_exponent > 1.0
        assert analysis_profile("a").contention_exponent == pytest.approx(1.0)

    def test_working_set_scales_with_atoms(self):
        small = simulation_profile("s", natoms=1000)
        big = simulation_profile("b", natoms=100_000)
        assert big.working_set_bytes == 100 * small.working_set_bytes
