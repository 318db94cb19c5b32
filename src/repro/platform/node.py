"""Compute-node model: cores, sockets, memory.

A :class:`NodeSpec` describes the hardware. Cores are split evenly
across sockets, and a node's residents take their cores in allocation
order by scatter: each takes free cores round-robin across sockets, the
way unbound MPI ranks of one executable spread over a node. A 16-rank
simulation on a 2-socket node gets 8 cores on each socket, so *any* two
components sharing a node also share both LLCs — this is the regime of
the paper's experiments, where every co-location scenario shows
elevated LLC miss ratios.

The split is a pure function of the residents' core demands in
allocation order (:meth:`NodeSpec.socket_shares`), so repeated runs
produce identical contention and identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.platform.cache import CacheSpec
from repro.util.errors import PlacementError, ValidationError
from repro.util.units import GIB
from repro.util.validation import require_positive, require_positive_int


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one compute node."""

    cores: int = 32
    sockets: int = 2
    core_freq_hz: float = 2.3e9
    llc: CacheSpec = field(default_factory=CacheSpec)
    memory_bytes: int = 128 * GIB
    memory_bandwidth: float = 120e9  # bytes/s, node-wide

    def __post_init__(self) -> None:
        require_positive_int("cores", self.cores)
        require_positive_int("sockets", self.sockets)
        require_positive("core_freq_hz", self.core_freq_hz)
        require_positive_int("memory_bytes", self.memory_bytes)
        require_positive("memory_bandwidth", self.memory_bandwidth)
        if self.cores % self.sockets != 0:
            raise ValidationError(
                f"cores ({self.cores}) must divide evenly into "
                f"sockets ({self.sockets})"
            )

    @property
    def cores_per_socket(self) -> int:
        return self.cores // self.sockets

    def socket_shares(self, demands: Sequence[int]) -> List[List[int]]:
        """Each demand's core count per socket, allocated in order.

        A demand takes free cores round-robin across the sockets that
        still have one, lowest socket first in every round:

        >>> NodeSpec(cores=8, sockets=2).socket_shares([3, 2, 3])
        [[2, 1], [1, 1], [1, 2]]

        Raises :class:`PlacementError` when a demand exceeds the cores
        still free.
        """
        free = [self.cores_per_socket] * self.sockets
        shares: List[List[int]] = []
        for demand in demands:
            require_positive_int("cores", demand)
            if demand > sum(free):
                raise PlacementError(
                    f"nodes oversubscribed (capacity {self.cores})"
                )
            share = [0] * self.sockets
            while demand:
                for s in range(self.sockets):
                    if share[s] < free[s]:
                        share[s] += 1
                        demand -= 1
                        if not demand:
                            break
            for s in range(self.sockets):
                free[s] -= share[s]
            shares.append(share)
        return shares
