"""Tests for NodeSpec: socket shares and the assessment of residents."""

import dataclasses

import pytest

from repro.components.profiles import analysis_profile, simulation_profile
from repro.platform.contention import ContentionModel
from repro.platform.node import NodeSpec
from repro.util.errors import PlacementError, ValidationError


@pytest.fixture
def spec():
    return NodeSpec(cores=32, sockets=2)


@pytest.fixture
def model():
    return ContentionModel()


SIM = simulation_profile("sim")
ANA = analysis_profile("ana")


class TestNodeSpec:
    def test_cores_per_socket(self, spec):
        assert spec.cores_per_socket == 16

    def test_uneven_socket_split_rejected(self):
        with pytest.raises(ValidationError):
            NodeSpec(cores=30, sockets=4)


class TestAllocation:
    def test_scatter_interleaves_sockets(self, spec):
        assert spec.socket_shares([4]) == [[2, 2]]
        assert spec.socket_shares([3]) == [[2, 1]]

    def test_accounting(self, spec):
        shares = spec.socket_shares([16, 8])
        assert [sum(share) for share in shares] == [16, 8]
        # 24 of 32 cores taken, 4 left on each socket
        assert [16 - sum(col) for col in zip(*shares)] == [4, 4]

    def test_over_allocation_rejected(self, spec):
        with pytest.raises(PlacementError):
            spec.socket_shares([30, 8])

    def test_oversubscribed_request_above_node_capacity_rejected(self, spec):
        with pytest.raises(
            PlacementError, match=r"nodes oversubscribed \(capacity 32\)"
        ):
            spec.socket_shares([33])

    def test_non_positive_demand_rejected(self, spec):
        with pytest.raises(ValidationError):
            spec.socket_shares([0])

    def test_full_socket_is_skipped(self):
        # the first two residents leave socket 0 one free core, so the
        # last resident's later rounds take socket 1 alone
        spec = NodeSpec(cores=8, sockets=2)
        assert spec.socket_shares([3, 1, 4]) == [[2, 1], [1, 0], [1, 3]]


class TestNodeAssessment:
    def test_solo_component_unit_dilation(self, spec, model):
        [out] = model.assess(spec, [(SIM, 16)])
        assert out.dilation == pytest.approx(1.0)

    def test_scatter_colocated_components_contend(self, spec, model):
        sim, _ = model.assess(spec, [(SIM, 16), (ANA, 8)])
        assert sim.llc_miss_ratio > SIM.solo_llc_miss_ratio
        assert sim.dilation > 1.0

    def test_socket_residency_shape(self, spec):
        # scatter: 8 sim cores + 4 ana cores per socket, so both
        # residents share both LLCs
        assert spec.socket_shares([16, 8]) == [[8, 8], [4, 4]]

    def test_assessment_covers_all_residents(self, spec, model):
        ana2 = dataclasses.replace(ANA, name="ana2")
        out = model.assess(spec, [(SIM, 16), (ANA, 8), (ana2, 8)])
        assert [a.profile.name for a in out] == ["sim", "ana", "ana2"]

    def test_residents_are_positional(self, spec, model):
        # two residents may share a profile name: only order matters
        twin = model.assess(spec, [(ANA, 8), (ANA, 8)])
        renamed = model.assess(
            spec, [(ANA, 8), (dataclasses.replace(ANA, name="other"), 8)]
        )
        assert [a.cpi for a in twin] == [a.cpi for a in renamed]

    def test_spanning_resident_takes_its_primary_socket(self, model):
        # 3 cores over 2 sockets: 2 on socket 0, shared with the second
        # resident, and 1 alone on socket 1
        spec = NodeSpec(cores=6, sockets=2)
        assert spec.socket_shares([3, 1]) == [[2, 1], [1, 0]]
        big, _ = model.assess(spec, [(SIM, 3), (ANA, 1)])
        shared = model.miss_ratios(spec.llc, [SIM, ANA])[0]
        assert big.llc_miss_ratio == shared
        assert big.bandwidth_demand == model.bandwidth_demand(
            SIM, shared, spec, 2
        )

    def test_tied_sockets_go_to_the_lower_one(self, model):
        spec = NodeSpec(cores=4, sockets=2)
        assert spec.socket_shares([2, 1]) == [[1, 1], [1, 0]]
        tied, _ = model.assess(spec, [(SIM, 2), (ANA, 1)])
        assert tied.llc_miss_ratio == model.miss_ratios(spec.llc, [SIM, ANA])[0]
        assert tied.llc_miss_ratio > SIM.solo_llc_miss_ratio
