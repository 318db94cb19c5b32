"""DIMES-like in-memory staging tier.

DIMES (Zhang et al. 2017) keeps staged data *in the memory of the node
where the producer runs* and serves remote consumers over the network
(RDMA) on request. Three consequences, all modeled here:

1. **Writes are always local**: marshal + one memory-bandwidth pass.
2. **Reads are locality-sensitive**: a co-located consumer performs a
   local memory copy; a remote consumer pays network latency plus link
   bandwidth.
3. **Remote reads tax the producer**: the staging service thread runs
   within the producer's application (DIMES links a DataSpaces server
   into the simulation), and the NIC's DMA engine crosses the
   producer's memory bus. Each remote read therefore charges
   ``producer_overhead`` — time effectively stolen from the producer's
   step. Local reads do not wake the service path and charge nothing.

Effect (1)+(2)+(3) together create the co-location advantage the paper
measures: placing an analysis on its simulation's node converts an
expensive remote read *and* a producer tax into one cheap memory copy.
"""

from __future__ import annotations

from typing import Optional

from repro.dtl.base import DataTransportLayer, TransferCost
from repro.platform.network import DragonflyNetwork
from repro.platform.node import NodeSpec
from repro.util.validation import require_non_negative, require_positive


class InMemoryStagingDTL(DataTransportLayer):
    """In-memory staging with producer-side data residency.

    Parameters
    ----------
    network:
        Interconnect used for remote reads.
    memory_bandwidth:
        Node memory bandwidth (bytes/s) for local copies.
    marshal_bandwidth:
        Serialization throughput (bytes/s) — chunk packing/unpacking.
    service_latency:
        Fixed per-remote-read cost on the producer (server wakeup,
        index lookup, RDMA registration handshake).
    service_bandwidth:
        Producer-side effective throughput of serving remote data
        (NIC DMA + server thread); charged as producer overhead.
    producer_progress_tax:
        Fractional dilation of the producer's compute stage per remote
        consumer served. DIMES links a staging server into the
        simulation executable; while remote consumers poll and pull,
        its progress thread periodically preempts simulation ranks.
        Measurements of DataSpaces/DIMES-coupled applications put this
        steady overhead at several percent of step time; the default is
        6%. Co-located consumers never enter the remote path, so they
        impose no tax — one of the two locality advantages (with the
        cheaper read itself) that reward co-location.
    """

    def __init__(
        self,
        network: Optional[DragonflyNetwork] = None,
        memory_bandwidth: float = 120e9,
        marshal_bandwidth: float = 8e9,
        service_latency: float = 250e-6,
        service_bandwidth: float = 5e9,
        producer_progress_tax: float = 0.06,
        name: str = "dimes",
    ) -> None:
        super().__init__(name)
        self.producer_progress_tax = require_non_negative(
            "producer_progress_tax", producer_progress_tax
        )
        self.network = network or DragonflyNetwork()
        self.memory_bandwidth = require_positive(
            "memory_bandwidth", memory_bandwidth
        )
        self.marshal_bandwidth = require_positive(
            "marshal_bandwidth", marshal_bandwidth
        )
        self.service_latency = require_non_negative(
            "service_latency", service_latency
        )
        self.service_bandwidth = require_positive(
            "service_bandwidth", service_bandwidth
        )

    @classmethod
    def for_platform(
        cls, network: DragonflyNetwork, node_spec: NodeSpec
    ) -> "InMemoryStagingDTL":
        """The default tier of a platform: every parameter but the
        network and the node's memory bandwidth at its default."""
        return cls(
            network=network, memory_bandwidth=node_spec.memory_bandwidth
        )

    # -- cost model ------------------------------------------------------------
    def write_cost(self, producer_node: int, nbytes: float) -> TransferCost:
        """Marshal + local memory write; identical for every placement."""
        require_non_negative("nbytes", nbytes)
        return TransferCost(
            marshal=nbytes / self.marshal_bandwidth,
            transport=nbytes / self.memory_bandwidth,
            producer_overhead=0.0,
        )

    def read_cost(
        self, producer_node: int, consumer_node: int, nbytes: float
    ) -> TransferCost:
        """Local memory copy if co-located, otherwise network + service."""
        require_non_negative("nbytes", nbytes)
        unmarshal = nbytes / self.marshal_bandwidth
        if producer_node == consumer_node:
            return TransferCost(
                marshal=unmarshal,
                transport=nbytes / self.memory_bandwidth,
                producer_overhead=0.0,
            )
        return TransferCost(
            marshal=unmarshal,
            transport=self.network.transfer_time(
                producer_node, consumer_node, nbytes
            ),
            producer_overhead=self.service_latency
            + nbytes / self.service_bandwidth,
        )
