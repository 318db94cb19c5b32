"""Placement enumeration beyond the paper's fixed tables.

:func:`enumerate_placements` yields one feasible assignment of an
ensemble's components to an allocation of ``num_nodes`` nodes per
node-relabeling class: the nodes of a homogeneous allocation are
interchangeable. The paper notes the space is intractable in general
(§3.4); the stream comes from the placement-space walker in
:mod:`repro.search.canonical`, which emits exactly one representative
per class without ever walking the raw ``nodes^components`` space, and
:func:`count_feasible_placements` counts it in closed form over
capacity multisets without materializing placements at all. Both are
property-tested element for element against the original
product-then-dedup enumerator, which :mod:`repro.search.reference`
keeps for the tests and benchmarks only.
"""

from __future__ import annotations

from typing import Iterator

from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.search.canonical import (
    assignment_to_placement,
    component_core_demands,
    count_canonical_assignments,
    iter_canonical_assignments,
)


def enumerate_placements(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
) -> Iterator[EnsemblePlacement]:
    """Yield the feasible placements of ``spec`` over ``num_nodes`` nodes.

    Feasible means every node's total core demand fits in
    ``cores_per_node``. Only one representative per node-relabeling
    equivalence class is yielded — nodes are interchangeable in a
    homogeneous allocation, so e.g. ``sim@n0, ana@n1`` and ``sim@n1,
    ana@n0`` are the same scenario.

    The iteration order is deterministic (lexicographic in component
    order), so downstream searches are reproducible — and unchanged
    from the original enumerator: the restricted-growth-string stream
    is exactly the sequence of first-occurrence representatives the
    product-then-dedup implementation kept. Arguments are checked at
    the call.

    Examples
    --------
    One member (a simulation and one analysis) on two nodes is either
    co-located or split:

    >>> from repro.runtime.spec import EnsembleSpec, default_member
    >>> spec = EnsembleSpec("demo", (default_member("em1"),))
    >>> for placement in enumerate_placements(spec, 2, 32):
    ...     member = placement.members[0]
    ...     print(member.simulation_node, member.analysis_nodes)
    0 (0,)
    0 (1,)
    """
    assignments = iter_canonical_assignments(
        component_core_demands(spec), num_nodes, cores_per_node
    )
    return (
        assignment_to_placement(spec, assignment, num_nodes)
        for assignment in assignments
    )


def count_feasible_placements(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
) -> int:
    """Size of :func:`enumerate_placements`' stream (for reporting).

    Counted directly by the memoized capacity-multiset recursion in
    :mod:`repro.search.canonical` — no placement objects are built, so
    spaces far beyond enumeration reach can still be sized exactly.
    """
    return count_canonical_assignments(
        component_core_demands(spec), num_nodes, cores_per_node
    )
