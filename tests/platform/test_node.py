"""Tests for NodeSpec / Node allocation and assessment."""

import dataclasses

import pytest

from repro.components.profiles import analysis_profile, simulation_profile
from repro.platform.contention import ContentionModel
from repro.platform.node import CoreAllocation, Node, NodeSpec
from repro.util.errors import PlacementError, ValidationError


@pytest.fixture
def spec():
    return NodeSpec(cores=32, sockets=2)


@pytest.fixture
def node(spec):
    return Node(0, spec)


@pytest.fixture
def model():
    return ContentionModel()


SIM = simulation_profile("sim")
ANA = analysis_profile("ana")


class TestNodeSpec:
    def test_cores_per_socket(self, spec):
        assert spec.cores_per_socket == 16

    def test_socket_of_core(self, spec):
        assert spec.socket_of_core(0) == 0
        assert spec.socket_of_core(15) == 0
        assert spec.socket_of_core(16) == 1
        assert spec.socket_of_core(31) == 1

    def test_socket_of_core_out_of_range(self, spec):
        with pytest.raises(ValidationError):
            spec.socket_of_core(32)
        with pytest.raises(ValidationError):
            spec.socket_of_core(-1)

    def test_uneven_socket_split_rejected(self):
        with pytest.raises(ValidationError):
            NodeSpec(cores=30, sockets=4)

    def test_invalid_placement_policy_rejected(self):
        with pytest.raises(ValidationError):
            NodeSpec(placement_policy="random")


class TestAllocation:
    def test_scatter_interleaves_sockets(self, node):
        alloc = node.allocate("sim", 4, SIM)
        sockets = [node.spec.socket_of_core(c) for c in alloc.cores]
        assert sockets == [0, 1, 0, 1]

    def test_compact_fills_socket_zero_first(self):
        node = Node(0, NodeSpec(cores=32, sockets=2, placement_policy="compact"))
        alloc = node.allocate("sim", 4, SIM)
        assert all(node.spec.socket_of_core(c) == 0 for c in alloc.cores)

    def test_accounting(self, node):
        node.allocate("sim", 16, SIM)
        assert node.used_cores == 16
        assert node.free_cores == 16
        node.allocate("ana", 8, ANA)
        assert node.used_cores == 24
        assert node.residents == ["sim", "ana"]

    def test_release_returns_cores(self, node):
        node.allocate("sim", 16, SIM)
        node.release("sim")
        assert node.free_cores == 32
        assert node.residents == []

    def test_release_unknown_component_rejected(self, node):
        with pytest.raises(PlacementError):
            node.release("ghost")

    def test_double_allocate_rejected(self, node):
        node.allocate("sim", 8, SIM)
        with pytest.raises(PlacementError):
            node.allocate("sim", 8, SIM)

    def test_over_allocation_rejected(self, node):
        node.allocate("sim", 30, SIM)
        with pytest.raises(PlacementError):
            node.allocate("ana", 8, ANA)

    def test_oversubscribed_request_above_node_capacity_rejected(self, node):
        with pytest.raises(PlacementError, match=r"32 free cores.*33.*'ana'"):
            node.allocate("ana", 33, ANA)

    def test_allocation_of(self, node):
        alloc = node.allocate("sim", 8, SIM)
        assert node.allocation_of("sim") is alloc
        with pytest.raises(PlacementError):
            node.allocation_of("nope")

    def test_reallocation_after_release_reuses_cores(self, node):
        a1 = node.allocate("sim", 32, SIM)
        node.release("sim")
        a2 = node.allocate("sim2", 32, SIM)
        assert sorted(a2.cores) == sorted(a1.cores)


class TestCoreAllocation:
    def test_duplicate_cores_rejected(self):
        with pytest.raises(ValidationError):
            CoreAllocation("x", 0, (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            CoreAllocation("x", 0, ())


class TestNodeAssessment:
    def test_solo_component_unit_dilation(self, node, model):
        node.allocate("sim", 16, SIM)
        out = node.assess(model)
        assert out["sim"].dilation == pytest.approx(1.0)

    def test_scatter_colocated_components_contend(self, node, model):
        node.allocate("sim", 16, SIM)
        node.allocate("ana", 8, ANA)
        out = node.assess(model)
        assert out["sim"].llc_miss_ratio > SIM.solo_llc_miss_ratio
        assert out["sim"].dilation > 1.0

    def test_socket_residency_shape(self, node):
        node.allocate("sim", 16, SIM)
        node.allocate("ana", 8, ANA)
        residency = node.socket_residency()
        assert len(residency) == 2  # two sockets
        for _cache, residents in residency:
            names = [p.name for p, _ in residents]
            assert names == ["sim", "ana"]
            # scatter: 8 sim cores + 4 ana cores per socket
            assert [n for _, n in residents] == [8, 4]

    def test_assessment_covers_all_residents(self, node, model):
        node.allocate("sim", 16, SIM)
        node.allocate("ana", 8, ANA)
        ana2 = dataclasses.replace(ANA, name="ana2")
        node.allocate("ana2", 8, ana2)
        assert set(node.assess(model)) == {"sim", "ana", "ana2"}
