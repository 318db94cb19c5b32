"""Compute-node model: cores, sockets, memory.

A :class:`NodeSpec` describes the hardware; a :class:`Node` is one
instance inside a cluster, tracking which components currently occupy
which cores. Cores are numbered 0..cores-1 and socket ``s`` owns the
contiguous block ``[s*cores_per_socket, (s+1)*cores_per_socket)``.

Two deterministic placement policies are supported:

- ``"scatter"`` (default): an allocation takes free cores round-robin
  across sockets, the way unbound MPI ranks of one executable spread
  over a node. A 16-rank simulation on a 2-socket node gets 8 cores on
  each socket, so *any* two components sharing a node also share both
  LLCs — this is the regime of the paper's experiments, where every
  co-location scenario shows elevated LLC miss ratios.
- ``"compact"``: lowest-numbered free cores first (socket 0 fills
  before socket 1), the behaviour of explicit ``--cpu-bind=cores``
  pinning. Useful as a counterfactual in ablation studies.

Either way the assignment is a pure function of the placement order,
so repeated runs produce identical contention and identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.platform.cache import CacheSpec
from repro.platform.contention import (
    ContentionAssessment,
    ContentionModel,
    WorkloadProfile,
)
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
    placement_policy: str = "scatter"

    def __post_init__(self) -> None:
        require_positive_int("cores", self.cores)
        require_positive_int("sockets", self.sockets)
        require_positive("core_freq_hz", self.core_freq_hz)
        require_positive_int("memory_bytes", self.memory_bytes)
        require_positive("memory_bandwidth", self.memory_bandwidth)
        if self.placement_policy not in ("scatter", "compact"):
            raise ValidationError(
                f"placement_policy must be 'scatter' or 'compact', "
                f"got {self.placement_policy!r}"
            )
        if self.cores % self.sockets != 0:
            raise ValidationError(
                f"cores ({self.cores}) must divide evenly into "
                f"sockets ({self.sockets})"
            )

    @property
    def cores_per_socket(self) -> int:
        return self.cores // self.sockets

    def socket_of_core(self, core: int) -> int:
        """Socket index owning core ``core``."""
        if not 0 <= core < self.cores:
            raise ValidationError(f"core {core} out of range 0..{self.cores - 1}")
        return core // self.cores_per_socket


@dataclass(frozen=True)
class CoreAllocation:
    """A component's claim on specific cores of one node."""

    component: str
    node_index: int
    cores: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValidationError("allocation must contain at least one core")
        if len(set(self.cores)) != len(self.cores):
            raise ValidationError("allocation contains duplicate cores")

    @property
    def num_cores(self) -> int:
        return len(self.cores)


class Node:
    """One node of the cluster, with live occupancy state."""

    def __init__(self, index: int, spec: NodeSpec) -> None:
        if index < 0:
            raise ValidationError(f"node index must be >= 0, got {index}")
        self.index = index
        self.spec = spec
        self._free: List[int] = list(range(spec.cores))
        self._allocations: Dict[str, CoreAllocation] = {}
        self._profiles: Dict[str, WorkloadProfile] = {}

    # -- occupancy ---------------------------------------------------------
    @property
    def free_cores(self) -> int:
        return len(self._free)

    @property
    def used_cores(self) -> int:
        return self.spec.cores - len(self._free)

    @property
    def residents(self) -> List[str]:
        """Names of components currently allocated on this node."""
        return list(self._allocations)

    def allocation_of(self, component: str) -> CoreAllocation:
        try:
            return self._allocations[component]
        except KeyError:
            raise PlacementError(
                f"component {component!r} is not resident on node {self.index}"
            ) from None

    # -- allocate / free --------------------------------------------------------
    def allocate(
        self, component: str, cores: int, profile: WorkloadProfile
    ) -> CoreAllocation:
        """Claim ``cores`` free cores for ``component``.

        Raises :class:`PlacementError` if the component is already
        resident or the node has fewer than ``cores`` free cores.
        """
        require_positive_int("cores", cores)
        if component in self._allocations:
            raise PlacementError(
                f"component {component!r} already resident on node {self.index}"
            )
        if cores > len(self._free):
            raise PlacementError(
                f"node {self.index} has {len(self._free)} free cores, "
                f"cannot allocate {cores} for {component!r}"
            )
        granted = self._placement_order()[:cores]
        taken = set(granted)
        self._free = [c for c in self._free if c not in taken]
        alloc = CoreAllocation(component, self.index, tuple(granted))
        self._allocations[component] = alloc
        self._profiles[component] = profile
        return alloc

    def _placement_order(self) -> List[int]:
        """Free cores in the order the placement policy hands them out."""
        if self.spec.placement_policy == "compact":
            return sorted(self._free)
        # scatter: round-robin across sockets, lowest core first per socket
        by_socket: List[List[int]] = [[] for _ in range(self.spec.sockets)]
        for core in sorted(self._free):
            by_socket[self.spec.socket_of_core(core)].append(core)
        order: List[int] = []
        buckets = [b for b in by_socket if b]
        while buckets:
            for bucket in buckets:
                order.append(bucket.pop(0))
            buckets = [b for b in buckets if b]
        return order

    def release(self, component: str) -> None:
        """Return a component's cores to the free pool."""
        alloc = self.allocation_of(component)
        del self._allocations[component]
        del self._profiles[component]
        returned = [c for c in alloc.cores if c not in self._free]
        self._free = sorted(self._free + returned)

    # -- contention -------------------------------------------------------------
    def socket_residency(
        self,
    ) -> List[Tuple[CacheSpec, List[Tuple[WorkloadProfile, int]]]]:
        """Group resident components by socket for the contention model.

        A component spanning sockets contributes to each socket it has
        cores on, proportioned by core count; its assessed miss ratio is
        taken from its *primary* socket (where most of its cores are),
        consistent with first-touch data placement.
        """
        per_socket: List[List[Tuple[WorkloadProfile, int]]] = [
            [] for _ in range(self.spec.sockets)
        ]
        for name, alloc in self._allocations.items():
            counts: Dict[int, int] = {}
            for core in alloc.cores:
                s = self.spec.socket_of_core(core)
                counts[s] = counts.get(s, 0) + 1
            profile = self._profiles[name]
            for s, n in counts.items():
                per_socket[s].append((profile, n))
        return [(self.spec.llc, residents) for residents in per_socket]

    def assess(self, model: ContentionModel) -> Dict[str, ContentionAssessment]:
        """Run the contention model over the current resident set.

        For components spanning multiple sockets the assessment of the
        socket holding the most of their cores wins (ties: lower socket).
        """
        sockets = self.socket_residency()
        # assess_node requires unique names per node; spanning components
        # appear on several sockets, so assess sockets independently and
        # merge by primary socket.
        merged: Dict[str, ContentionAssessment] = {}
        primary: Dict[str, int] = {}
        for name, alloc in self._allocations.items():
            counts: Dict[int, int] = {}
            for core in alloc.cores:
                s = self.spec.socket_of_core(core)
                counts[s] = counts.get(s, 0) + 1
            primary[name] = max(sorted(counts), key=lambda s: counts[s])

        assessments_by_socket: List[Dict[str, ContentionAssessment]] = []
        for s, (cache, residents) in enumerate(sockets):
            if residents:
                assessments_by_socket.append(model.assess_node([(cache, residents)]))
            else:
                assessments_by_socket.append({})

        # Recompute the node-wide bandwidth stretch across all sockets.
        total_demand = sum(
            a.bandwidth_demand
            for socket_assessments in assessments_by_socket
            for a in socket_assessments.values()
        )
        if model.enabled and total_demand > model.memory_bandwidth:
            stretch = total_demand / model.memory_bandwidth
        else:
            stretch = 1.0

        for name in self._allocations:
            base = assessments_by_socket[primary[name]][name]
            profile = base.profile
            cpi = (
                profile.base_cpi
                + profile.llc_refs_per_instr
                * base.llc_miss_ratio
                * profile.miss_penalty_cycles
                * stretch
            )
            merged[name] = ContentionAssessment(
                profile=profile,
                llc_miss_ratio=base.llc_miss_ratio,
                cpi=cpi,
                dilation=cpi / profile.solo_cpi(),
                bandwidth_demand=base.bandwidth_demand,
                bandwidth_stretch=stretch,
            )
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Node(index={self.index}, used={self.used_cores}/"
            f"{self.spec.cores}, residents={self.residents})"
        )
