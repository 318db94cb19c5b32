"""Tests for effective stage-time computation under placements."""

import sys
import threading

import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import get_config
from repro.dtl.burstbuffer import BurstBufferDTL
from repro.dtl.dimes import InMemoryStagingDTL
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.effective import compute_effective_stages
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.util.errors import PlacementError


def dimes_for(cluster):
    return InMemoryStagingDTL(
        network=cluster.network,
        memory_bandwidth=cluster.node_spec.memory_bandwidth,
    )


class TestEffectiveStages:
    def test_colocated_member(self, single_member_spec):
        cluster = make_cori_like_cluster(1)
        placement = EnsemblePlacement(1, (MemberPlacement(0, (0,)),))
        [member] = compute_effective_stages(
            single_member_spec, placement, cluster, dimes_for(cluster)
        )
        sim_model = single_member_spec.members[0].simulation
        # co-located: no progress tax, but contention dilation
        assert member.simulation.compute_time > sim_model.solo_compute_time()
        assert member.analyses[0].io_time < 1e-3  # local read: fast

    def test_split_member(self, single_member_spec):
        cluster = make_cori_like_cluster(2)
        placement = EnsemblePlacement(2, (MemberPlacement(0, (1,)),))
        dtl = dimes_for(cluster)
        [member] = compute_effective_stages(
            single_member_spec, placement, cluster, dtl
        )
        sim_model = single_member_spec.members[0].simulation
        solo = sim_model.solo_compute_time()
        # no contention, but the remote consumer taxes the producer
        expected = solo * (1 + dtl.producer_progress_tax) + dtl.read_cost(
            0, 1, sim_model.payload_bytes()
        ).producer_overhead
        assert member.simulation.compute_time == pytest.approx(expected)
        # remote read slower than local
        assert member.analyses[0].io_time > 1e-4

    def test_colocation_beats_split_on_sim_side(self, single_member_spec):
        """The calibrated model's key property: the co-location dilation
        costs less than the remote-serving tax."""
        cluster1 = make_cori_like_cluster(1)
        colocated = compute_effective_stages(
            single_member_spec,
            EnsemblePlacement(1, (MemberPlacement(0, (0,)),)),
            cluster1,
            dimes_for(cluster1),
        )[0]
        cluster2 = make_cori_like_cluster(2)
        split = compute_effective_stages(
            single_member_spec,
            EnsemblePlacement(2, (MemberPlacement(0, (1,)),)),
            cluster2,
            dimes_for(cluster2),
        )[0]
        assert colocated.simulation.compute_time < split.simulation.compute_time

    def test_burst_buffer_has_no_tax(self, single_member_spec):
        cluster = make_cori_like_cluster(2)
        placement = EnsemblePlacement(2, (MemberPlacement(0, (1,)),))
        [member] = compute_effective_stages(
            single_member_spec, placement, cluster, BurstBufferDTL()
        )
        sim_model = single_member_spec.members[0].simulation
        assert member.simulation.compute_time == pytest.approx(
            sim_model.solo_compute_time()
        )

    def test_write_time_is_placement_invariant(self, two_member_spec):
        cluster = make_cori_like_cluster(3)
        dtl = dimes_for(cluster)
        for placement in (
            EnsemblePlacement(
                3, (MemberPlacement(0, (0,)), MemberPlacement(1, (2,)))
            ),
            EnsemblePlacement(
                3, (MemberPlacement(0, (1,)), MemberPlacement(2, (2,)))
            ),
        ):
            members = compute_effective_stages(
                two_member_spec, placement, cluster, dtl
            )
            writes = {m.simulation.io_time for m in members}
            assert len(writes) == 1  # identical for everyone

    def test_placement_exceeding_cluster_rejected(self, single_member_spec):
        cluster = make_cori_like_cluster(1)
        placement = EnsemblePlacement(2, (MemberPlacement(0, (1,)),))
        with pytest.raises(PlacementError):
            compute_effective_stages(
                single_member_spec, placement, cluster, dimes_for(cluster)
            )

    def test_total_cores_carried(self, two_member_spec):
        cluster = make_cori_like_cluster(2)
        placement = EnsemblePlacement(
            2, (MemberPlacement(0, (0,)), MemberPlacement(1, (1,)))
        )
        members = compute_effective_stages(
            two_member_spec, placement, cluster, dimes_for(cluster)
        )
        assert all(m.total_cores == 24 for m in members)


class TestSharedCluster:
    def test_concurrent_pricing_matches_a_private_cluster(self):
        """Pricing reads its cluster and never writes it, so threads may
        share one (a :class:`~repro.scheduler.context.PlanningContext`
        is a frozen value meant to be shared)."""
        shared = make_cori_like_cluster(4)
        dtl = dimes_for(shared)
        cases = []
        for name in ("Cf", "C1.1", "C1.3", "C1.5"):
            config = get_config(name)
            spec, placement = build_spec(config, n_steps=4), config.placement()
            private = make_cori_like_cluster(4)
            expected = compute_effective_stages(
                spec, placement, private, dimes_for(private)
            )
            cases.append((spec, placement, expected))
        wrong, raised = [], []

        def price(spec, placement, expected):
            for _ in range(300):
                try:
                    got = compute_effective_stages(spec, placement, shared, dtl)
                except Exception as exc:
                    raised.append(exc)
                    continue
                if got != expected:
                    wrong.append(spec.name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pool = [threading.Thread(target=price, args=case) for case in cases]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not raised, f"{len(raised)} of 1200 raised, first {raised[0]!r}"
        assert not wrong, f"{len(wrong)} of 1200 priced wrong"
