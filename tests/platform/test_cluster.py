"""Tests for the Cluster platform description."""

import pytest

from repro.dtl.dimes import InMemoryStagingDTL
from repro.platform.cluster import Cluster
from repro.platform.specs import (
    cori_like_node,
    make_cori_like_cluster,
    small_test_cluster,
)
from repro.runtime.effective import compute_effective_stages
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.util.errors import PlacementError, ValidationError
from repro.util.units import GIB, MIB


def dimes_for(cluster):
    return InMemoryStagingDTL.for_platform(cluster.network, cluster.node_spec)


class TestClusterBasics:
    def test_node_out_of_range_rejected(self, cori2):
        # pricing rejects a placement naming node 2 of a 2-node cluster
        spec = EnsembleSpec("one", (default_member("em1", n_steps=2),))
        placement = EnsemblePlacement(3, (MemberPlacement(0, (2,)),))
        with pytest.raises(PlacementError):
            compute_effective_stages(spec, placement, cori2, dimes_for(cori2))

    def test_assess_all_covers_every_resident(self, cori2):
        spec = EnsembleSpec("one", (default_member("em1", n_steps=2),))
        placement = EnsemblePlacement(2, (MemberPlacement(0, (1,)),))
        [member] = compute_effective_stages(
            spec, placement, cori2, dimes_for(cori2)
        )
        assert member.simulation.assessment.profile.name == "em1.sim"
        assert member.analyses[0].assessment.profile.name == "em1.ana1"

    def test_memory_copy_time(self, cori2):
        # an in-node staging read pays one memory-bandwidth pass
        read = dimes_for(cori2).read_cost(0, 0, 120e9)  # one second of bytes
        assert read.transport == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            dimes_for(cori2).read_cost(0, 0, -1)

    def test_local_copy_beats_network(self, cori2):
        dtl = dimes_for(cori2)
        nbytes = 3 * MIB
        assert dtl.read_cost(0, 0, nbytes).total < dtl.read_cost(0, 1, nbytes).total

    def test_node_count_validated(self, cori2):
        with pytest.raises(ValidationError):
            Cluster(cori2.node_spec, 0)


class TestSpecs:
    def test_cori_node_matches_paper_platform(self):
        spec = cori_like_node()
        # Cori Haswell: 2x16 cores, 128 GB DRAM, 40 MB LLC/socket
        assert spec.cores == 32
        assert spec.sockets == 2
        assert spec.memory_bytes == 128 * GIB
        assert spec.llc.size_bytes == 40 * MIB

    def test_make_cori_like_cluster(self):
        cl = make_cori_like_cluster(3)
        assert cl.num_nodes == 3
        assert cl.contention.enabled

    def test_contention_can_be_disabled(self):
        cl = make_cori_like_cluster(2, contention_enabled=False)
        assert not cl.contention.enabled

    def test_small_test_cluster(self):
        cl = small_test_cluster(2)
        assert cl.num_nodes == 2
        assert cl.node_spec.cores == 8
