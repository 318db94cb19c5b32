"""Cluster hardware model: nodes, caches, memory bandwidth, network.

This subpackage describes the aspects of an HPC machine that the paper's
evaluation depends on:

- **nodes** with a fixed core count split across sockets, each socket
  with a shared last-level cache (LLC), and a node-wide memory
  bandwidth (:mod:`repro.platform.node`);
- a **contention model** translating co-location of components into
  elevated LLC miss ratios, reduced IPC, and execution-time dilation
  (:mod:`repro.platform.contention`): a pure function from a node spec
  and its residents, in allocation order, to their assessments;
- a **dragonfly-style network** giving hop-dependent latency and link
  bandwidth for inter-node staging transfers
  (:mod:`repro.platform.network`);
- machine **specs**, including a Cori-like default matching the paper's
  platform (:mod:`repro.platform.specs`).

The defining behaviours preserved from the real machine are (a) cache
and memory-bandwidth interference between co-located components and
(b) the locality gap between in-node memory copies and cross-node
network transfers. Those two effects drive every figure in the paper.

Everything here is a read-only description: a
:class:`~repro.platform.cluster.Cluster` holds no occupancy, and pricing
a placement never mutates it.
"""

from repro.platform.cache import CacheSpec
from repro.platform.cluster import Cluster
from repro.platform.contention import (
    ContentionAssessment,
    ContentionModel,
    WorkloadProfile,
)
from repro.platform.network import DragonflyNetwork, NetworkSpec
from repro.platform.node import NodeSpec
from repro.platform.specs import (
    cori_like_node,
    cori_like_network,
    make_cori_like_cluster,
    small_test_cluster,
)

__all__ = [
    "CacheSpec",
    "Cluster",
    "ContentionAssessment",
    "ContentionModel",
    "DragonflyNetwork",
    "NetworkSpec",
    "NodeSpec",
    "WorkloadProfile",
    "cori_like_network",
    "cori_like_node",
    "make_cori_like_cluster",
    "small_test_cluster",
]
