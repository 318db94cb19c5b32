"""Property-based tests of the platform model's monotonicity guarantees."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.platform.cache import CacheSpec
from repro.platform.contention import ContentionModel, WorkloadProfile
from repro.platform.network import DragonflyNetwork, NetworkSpec
from repro.platform.node import NodeSpec
from repro.util.errors import PlacementError
from repro.util.units import MIB

profiles = st.builds(
    WorkloadProfile,
    name=st.just("p"),
    working_set_bytes=st.floats(min_value=1 * MIB, max_value=500 * MIB),
    llc_refs_per_instr=st.floats(min_value=1e-5, max_value=0.1),
    solo_llc_miss_ratio=st.floats(min_value=0.0, max_value=0.5),
    max_llc_miss_ratio=st.floats(min_value=0.5, max_value=1.0),
    contention_exponent=st.floats(min_value=0.5, max_value=3.0),
    base_cpi=st.floats(min_value=0.2, max_value=2.0),
    miss_penalty_cycles=st.floats(min_value=0.0, max_value=400.0),
)


class TestMissRatioProperties:
    @given(profiles, profiles)
    @settings(max_examples=80)
    def test_ratios_within_profile_bounds(self, p1, p2):
        p2 = dataclasses.replace(p2, name="q")
        model = ContentionModel()
        cache = CacheSpec()
        ratios = model.miss_ratios(cache, [p1, p2])
        for profile, ratio in zip([p1, p2], ratios):
            assert profile.solo_llc_miss_ratio - 1e-12 <= ratio
            assert ratio <= profile.max_llc_miss_ratio + 1e-12

    @given(profiles, profiles)
    @settings(max_examples=80)
    def test_co_location_never_helps(self, p1, p2):
        """Adding a neighbor can only raise (or keep) a miss ratio."""
        p2 = dataclasses.replace(p2, name="q")
        model = ContentionModel()
        cache = CacheSpec()
        solo = model.miss_ratios(cache, [p1])[0]
        shared = model.miss_ratios(cache, [p1, p2])[0]
        assert shared >= solo - 1e-12

    @given(profiles)
    @settings(max_examples=50)
    def test_more_neighbors_more_misses(self, p):
        model = ContentionModel()
        cache = CacheSpec()
        neighbors = [
            dataclasses.replace(p, name=f"n{i}") for i in range(4)
        ]
        prev = -1.0
        for k in range(4):
            ratio = model.miss_ratios(cache, [p] + neighbors[:k])[0]
            assert ratio >= prev - 1e-12
            prev = ratio

    @given(profiles, profiles)
    @settings(max_examples=80)
    def test_dilation_at_least_one(self, p1, p2):
        p2 = dataclasses.replace(p2, name="q")
        model = ContentionModel()
        node = NodeSpec(cores=16, sockets=1, llc=CacheSpec())
        for a in model.assess(node, [(p1, 8), (p2, 8)]):
            assert a.dilation >= 1.0 - 1e-12


def scatter_shares(node, demands):
    """Socket shares by handing out cores one by one: each demand takes
    the free cores round-robin across sockets, lowest core first per
    socket, cores ``[s * cores_per_socket, (s + 1) * cores_per_socket)``
    belonging to socket ``s``."""
    per = node.cores_per_socket
    free = list(range(node.cores))
    shares = []
    for demand in demands:
        buckets = [[c for c in free if c // per == s] for s in range(node.sockets)]
        buckets = [b for b in buckets if b]
        order = []
        while buckets:
            for bucket in buckets:
                order.append(bucket.pop(0))
            buckets = [b for b in buckets if b]
        granted = order[:demand]
        free = [c for c in free if c not in granted]
        share = [0] * node.sockets
        for core in granted:
            share[core // per] += 1
        shares.append(share)
    return shares


nodes = st.builds(
    lambda sockets, per: NodeSpec(cores=sockets * per, sockets=sockets),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=8),
)


class TestSocketShareProperties:
    @given(nodes, st.lists(st.integers(min_value=1, max_value=12), max_size=6))
    @settings(max_examples=150)
    def test_shares_are_the_core_by_core_scatter(self, node, demands):
        fits = []
        for demand in demands:
            if sum(fits) + demand > node.cores:
                with pytest.raises(PlacementError, match="oversubscribed"):
                    node.socket_shares(fits + [demand])
                break
            fits.append(demand)
        assert node.socket_shares(fits) == scatter_shares(node, fits)


class TestNetworkProperties:
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0, max_value=1e9),
    )
    @settings(max_examples=100)
    def test_transfer_time_symmetric_and_nonnegative(self, a, b, nbytes):
        net = DragonflyNetwork()
        t_ab = net.transfer_time(a, b, nbytes)
        t_ba = net.transfer_time(b, a, nbytes)
        assert t_ab == t_ba
        assert t_ab >= 0.0

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100)
    def test_hops_bounded_by_minimal_route(self, a, b):
        net = DragonflyNetwork(
            NetworkSpec(nodes_per_router=2, routers_per_group=3)
        )
        h = net.hops(a, b)
        assert 0 <= h <= 5
        assert (h == 0) == (a == b)
