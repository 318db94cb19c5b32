"""Cluster: a set of identical nodes joined by a network."""

from __future__ import annotations

from typing import Optional

from repro.platform.contention import ContentionModel
from repro.platform.network import DragonflyNetwork
from repro.platform.node import NodeSpec
from repro.util.validation import require_positive_int


class Cluster:
    """A homogeneous allocation of compute nodes.

    This models the *allocation* granted to a workflow ensemble (the
    ``M`` nodes of the paper), not the whole machine: node indexes used
    in placements are relative to this allocation, starting at 0.

    A cluster is a read-only platform description — node spec, node
    count, network and contention model. It holds no occupancy: pricing
    a placement (:func:`~repro.runtime.effective
    .compute_effective_stages`) never mutates it, so one cluster may be
    shared across threads.
    """

    def __init__(
        self,
        node_spec: NodeSpec,
        num_nodes: int,
        network: Optional[DragonflyNetwork] = None,
        contention: Optional[ContentionModel] = None,
    ) -> None:
        self.node_spec = node_spec
        self.num_nodes = require_positive_int("num_nodes", num_nodes)
        self.network = network or DragonflyNetwork()
        self.contention = contention or ContentionModel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster({self.num_nodes} x {self.node_spec.cores} cores)"
