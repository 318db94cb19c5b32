"""Component-to-node placement of a workflow ensemble.

A :class:`MemberPlacement` assigns the member's simulation and each of
its analyses to a node (the paper places every component on exactly one
node; the indicator algebra in :mod:`repro.core.indicators` also
handles node *sets* for generality). An :class:`EnsemblePlacement`
collects member placements over an allocation of ``num_nodes`` nodes
and validates them against a spec and a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.core.indicators import PlacementSets
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import PlacementError, ValidationError
from repro.util.validation import require_positive_int


@dataclass(frozen=True)
class MemberPlacement:
    """Node assignment of one member's components (single node each)."""

    simulation_node: int
    analysis_nodes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.simulation_node < 0:
            raise ValidationError(
                f"simulation_node must be >= 0, got {self.simulation_node}"
            )
        if not isinstance(self.analysis_nodes, tuple):
            object.__setattr__(self, "analysis_nodes", tuple(self.analysis_nodes))
        if not self.analysis_nodes:
            raise ValidationError("at least one analysis node required")
        for n in self.analysis_nodes:
            if n < 0:
                raise ValidationError(f"analysis node must be >= 0, got {n}")

    @property
    def num_couplings(self) -> int:
        return len(self.analysis_nodes)

    @property
    def used_nodes(self) -> FrozenSet[int]:
        """d_i's node set."""
        return frozenset((self.simulation_node,) + self.analysis_nodes)

    def to_placement_sets(self) -> PlacementSets:
        """Convert to the indicator algebra's set representation."""
        return PlacementSets(
            simulation_nodes=frozenset({self.simulation_node}),
            analysis_nodes=tuple(frozenset({n}) for n in self.analysis_nodes),
        )


@dataclass(frozen=True)
class EnsemblePlacement:
    """Placement of every member over an allocation of M nodes."""

    num_nodes: int
    members: Tuple[MemberPlacement, ...]

    def __post_init__(self) -> None:
        require_positive_int("num_nodes", self.num_nodes)
        if not isinstance(self.members, tuple):
            object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValidationError("at least one member placement required")
        for mp in self.members:
            for node in mp.used_nodes:
                if node >= self.num_nodes:
                    raise PlacementError(
                        f"node index {node} outside allocation of "
                        f"{self.num_nodes} nodes"
                    )

    @property
    def used_nodes(self) -> FrozenSet[int]:
        """Distinct nodes actually hosting components."""
        out: FrozenSet[int] = frozenset()
        for mp in self.members:
            out |= mp.used_nodes
        return out

    def validate_against(
        self,
        spec: EnsembleSpec,
        cores_per_node: int,
        allow_oversubscription: bool = False,
    ) -> Dict[int, int]:
        """Check member count and per-node core demand.

        Returns the per-node core demand map. Raises
        :class:`PlacementError` if the member/coupling counts disagree
        with the spec, or — unless ``allow_oversubscription`` — if any
        node's demand exceeds ``cores_per_node``.
        """
        if len(self.members) != spec.num_members:
            raise PlacementError(
                f"placement has {len(self.members)} members, spec has "
                f"{spec.num_members}"
            )
        demand: Dict[int, int] = {}
        for member_spec, mp in zip(spec.members, self.members):
            if mp.num_couplings != member_spec.num_couplings:
                raise PlacementError(
                    f"member {member_spec.name!r}: placement has "
                    f"{mp.num_couplings} analyses, spec has "
                    f"{member_spec.num_couplings}"
                )
            demand[mp.simulation_node] = (
                demand.get(mp.simulation_node, 0) + member_spec.simulation.cores
            )
            for ana, node in zip(member_spec.analyses, mp.analysis_nodes):
                demand[node] = demand.get(node, 0) + ana.cores
        if not allow_oversubscription:
            overloaded = {
                n: c for n, c in demand.items() if c > cores_per_node
            }
            if overloaded:
                raise PlacementError(
                    f"nodes oversubscribed (capacity {cores_per_node}): "
                    f"{overloaded}"
                )
        return demand


def placement_to_dict(placement: EnsemblePlacement) -> dict:
    """The wire form of a placement (service payloads, co-schedule logs)."""
    return {
        "num_nodes": placement.num_nodes,
        "members": [
            {
                "simulation_node": mp.simulation_node,
                "analysis_nodes": list(mp.analysis_nodes),
            }
            for mp in placement.members
        ],
    }


def pack_members_per_node(spec: EnsembleSpec) -> EnsemblePlacement:
    """The fully co-located placement: member i entirely on node i.

    This is the paper's C1.5 / C2.8 pattern generalized to N members.
    """
    members = tuple(
        MemberPlacement(
            simulation_node=i,
            analysis_nodes=tuple(i for _ in member.analyses),
        )
        for i, member in enumerate(spec.members)
    )
    return EnsemblePlacement(num_nodes=spec.num_members, members=members)


def spread_components(spec: EnsembleSpec) -> EnsemblePlacement:
    """The fully dedicated placement: every component on its own node."""
    members: List[MemberPlacement] = []
    next_node = 0
    for member in spec.members:
        sim_node = next_node
        next_node += 1
        ana_nodes = []
        for _ in member.analyses:
            ana_nodes.append(next_node)
            next_node += 1
        members.append(
            MemberPlacement(
                simulation_node=sim_node, analysis_nodes=tuple(ana_nodes)
            )
        )
    return EnsemblePlacement(num_nodes=next_node, members=tuple(members))
