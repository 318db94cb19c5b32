"""Machine specifications, including the paper's platform.

:func:`cori_like_node` mirrors the evaluation platform of the paper:
NERSC Cori (Cray XC40) Haswell nodes — two Intel Xeon E5-2698 v3
sockets (16 cores each, 2.3 GHz, 40 MB shared LLC per socket), 128 GB
DRAM (~120 GB/s STREAM-class bandwidth), joined by a Cray Aries
dragonfly.
"""

from __future__ import annotations

from repro.platform.cache import CacheSpec
from repro.platform.cluster import Cluster
from repro.platform.contention import ContentionModel
from repro.platform.network import DragonflyNetwork, NetworkSpec
from repro.platform.node import NodeSpec
from repro.util.units import GIB, MIB


def cori_like_node() -> NodeSpec:
    """A Cori Haswell compute node (2x Xeon E5-2698 v3, 128 GB)."""
    return NodeSpec(
        cores=32,
        sockets=2,
        core_freq_hz=2.3e9,
        llc=CacheSpec(size_bytes=40 * MIB, line_bytes=64, associativity=20),
        memory_bytes=128 * GIB,
        memory_bandwidth=120e9,
    )


def cori_like_network() -> DragonflyNetwork:
    """A Cray Aries dragonfly (4 nodes/router, 96 routers/group)."""
    return DragonflyNetwork(
        NetworkSpec(
            nodes_per_router=4,
            routers_per_group=96,
            link_bandwidth=10e9,
            base_latency=1.3e-6,
            per_hop_latency=0.1e-6,
        )
    )


def make_cori_like_cluster(
    num_nodes: int, contention_enabled: bool = True
) -> Cluster:
    """A ready-to-use Cori-like allocation of ``num_nodes`` nodes."""
    return Cluster(
        node_spec=cori_like_node(),
        num_nodes=num_nodes,
        network=cori_like_network(),
        contention=ContentionModel(enabled=contention_enabled),
    )


def small_test_cluster(num_nodes: int = 2) -> Cluster:
    """A small, fast node spec for unit tests (8 cores, 2 sockets)."""
    spec = NodeSpec(
        cores=8,
        sockets=2,
        core_freq_hz=2.0e9,
        llc=CacheSpec(size_bytes=8 * MIB, line_bytes=64, associativity=16),
        memory_bytes=16 * GIB,
        memory_bandwidth=40e9,
    )
    return Cluster(node_spec=spec, num_nodes=num_nodes, network=DragonflyNetwork())
