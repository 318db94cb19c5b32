"""Placement enumeration beyond the paper's fixed tables.

:func:`enumerate_placements` yields every feasible assignment of an
ensemble's components to an allocation of ``num_nodes`` nodes,
optionally deduplicating placements equivalent under node relabeling.
The paper notes the space is intractable in general (§3.4) — the
deduplicated stream is produced by the canonical restricted-growth-
string generator in :mod:`repro.search.canonical`, which emits exactly
one representative per relabeling class without ever walking the raw
``nodes^components`` space; :func:`count_feasible_placements` counts
in closed form over capacity multisets without materializing
placements at all. Both are asserted element-for-element identical to
the original product-then-dedup enumerator (preserved in
:mod:`repro.search.reference`).
"""

from __future__ import annotations

from typing import Iterator

from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.search.canonical import (
    component_core_demands,
    count_canonical_assignments,
    count_raw_assignments,
    enumerate_canonical_placements,
)
from repro.search.reference import enumerate_placements_reference
from repro.util.validation import require_positive_int


def enumerate_placements(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    dedup_symmetric: bool = True,
) -> Iterator[EnsemblePlacement]:
    """Yield all feasible placements of ``spec`` over ``num_nodes`` nodes.

    Feasible means every node's total core demand fits in
    ``cores_per_node``. With ``dedup_symmetric`` (default) only one
    representative per node-relabeling equivalence class is yielded —
    nodes are interchangeable in a homogeneous allocation, so e.g.
    ``sim@n0, ana@n1`` and ``sim@n1, ana@n0`` are the same scenario.

    The iteration order is deterministic (lexicographic in component
    order), so downstream searches are reproducible — and unchanged
    from the original enumerator: the restricted-growth-string stream
    is exactly the sequence of first-occurrence representatives the
    product-then-dedup implementation kept.
    """
    if dedup_symmetric:
        return enumerate_canonical_placements(
            spec, num_nodes, cores_per_node
        )
    # the labeled (non-deduplicated) space really is nodes^components;
    # the reference product walk is the natural enumeration for it
    return enumerate_placements_reference(
        spec, num_nodes, cores_per_node, dedup_symmetric=False
    )


def count_feasible_placements(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    dedup_symmetric: bool = True,
) -> int:
    """Size of the feasible placement space (for reporting).

    Counted directly by the memoized capacity-multiset recursion in
    :mod:`repro.search.canonical` — no placement objects are built, so
    spaces far beyond enumeration reach can still be sized exactly.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    cores = component_core_demands(spec)
    if dedup_symmetric:
        return count_canonical_assignments(cores, num_nodes, cores_per_node)
    return count_raw_assignments(cores, num_nodes, cores_per_node)
