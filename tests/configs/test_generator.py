"""Tests for placement enumeration."""

import pytest

from repro.configs.generator import (
    count_feasible_placements,
    enumerate_placements,
)
from repro.runtime.spec import EnsembleSpec, default_member
from repro.util.errors import ValidationError


@pytest.fixture
def one_member():
    return EnsembleSpec("e", (default_member("em1", n_steps=1),))


@pytest.fixture
def two_members(two_member_spec):
    return two_member_spec


class TestEnumeration:
    def test_single_member_two_nodes(self, one_member):
        """sim+ana over 2 interchangeable nodes: co-located or split."""
        placements = list(enumerate_placements(one_member, 2, 32))
        assert len(placements) == 2
        patterns = {
            (p.members[0].simulation_node, p.members[0].analysis_nodes)
            for p in placements
        }
        assert patterns == {(0, (0,)), (0, (1,))}

    def test_capacity_filters_infeasible(self, two_members):
        # 1 node of 32 cores cannot hold 48 cores of components
        assert list(enumerate_placements(two_members, 1, 32)) == []

    def test_two_members_two_nodes(self, two_members):
        """Valid 2-node placements must keep <=32 cores per node."""
        placements = list(enumerate_placements(two_members, 2, 32))
        assert placements  # C1.4- and C1.5-like patterns exist
        for p in placements:
            spec_demand = {}
            for mp, member in zip(p.members, two_members.members):
                spec_demand[mp.simulation_node] = (
                    spec_demand.get(mp.simulation_node, 0)
                    + member.simulation.cores
                )
                for node, ana in zip(mp.analysis_nodes, member.analyses):
                    spec_demand[node] = spec_demand.get(node, 0) + ana.cores
            assert max(spec_demand.values()) <= 32

    def test_includes_paper_configurations(self, two_members):
        """The canonical enumeration over 3 nodes covers C1.1-C1.5's
        equivalence classes."""
        placements = list(enumerate_placements(two_members, 3, 32))
        signatures = {
            tuple(
                (mp.simulation_node, mp.analysis_nodes) for mp in p.members
            )
            for p in placements
        }
        # C1.5 canonical form: ((0,(0,)), (1,(1,)))
        assert ((0, (0,)), (1, (1,))) in signatures
        # C1.4 canonical form: ((0,(1,)), (0,(1,)))
        assert ((0, (1,)), (0, (1,))) in signatures

    def test_deterministic_order(self, two_members):
        a = [
            tuple((m.simulation_node, m.analysis_nodes) for m in p.members)
            for p in enumerate_placements(two_members, 2, 32)
        ]
        b = [
            tuple((m.simulation_node, m.analysis_nodes) for m in p.members)
            for p in enumerate_placements(two_members, 2, 32)
        ]
        assert a == b

    def test_count_helper(self, one_member):
        assert count_feasible_placements(one_member, 2, 32) == 2

    def test_invalid_args(self, one_member):
        with pytest.raises(ValidationError):
            list(enumerate_placements(one_member, 0, 32))
        with pytest.raises(ValidationError):
            list(enumerate_placements(one_member, 2, 0))

    def test_invalid_args_raise_at_the_call(self, one_member):
        # no list(): the arguments are checked before a generator exists
        with pytest.raises(ValidationError):
            enumerate_placements(one_member, 0, 32)
        with pytest.raises(ValidationError):
            enumerate_placements(one_member, 2, 0)
