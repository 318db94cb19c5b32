"""Canonical placement enumeration (restricted growth strings).

The seed enumerator walked all ``nodes^components`` raw assignments and
discarded node-relabeling duplicates with a ``seen`` set — exponential
work even when the surviving canonical space is tiny. This module
generates exactly one representative per relabeling class *directly*:

- A canonical assignment is a **restricted growth string** (RGS): node
  labels appear in order of first use, so component ``i`` may only use
  a node already opened by components ``0..i-1`` or open the next
  fresh label. Every relabeling class contains exactly one RGS, and it
  is the lexicographically smallest member of its class — i.e. the
  representative the seed's first-occurrence dedup kept. The streams
  are therefore identical, element for element.
- Capacity pruning happens **inside the recursion**: a prefix that
  oversubscribes a node is abandoned before any of its completions are
  materialized, so infeasible subtrees cost one comparison instead of
  ``nodes^(remaining)`` iterations.
- Counting never materializes placements at all:
  :func:`count_canonical_assignments` and :func:`count_raw_assignments`
  run a memoized recursion over *capacity multisets* — two partial
  states whose remaining node capacities agree as multisets have the
  same number of completions, which collapses the tree to polynomial
  size for the node counts searched here.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import PlacementError
from repro.util.validation import require_positive_int

#: Signature of a branch-and-bound prune hook for
#: :func:`iter_assignment_chunks`: ``(component_index, assignment,
#: caps) -> skip?``. ``assignment[:component_index]`` holds the live
#: prefix (later entries are stale), ``caps`` the remaining capacities
#: of the opened labels. Returning True skips every completion of the
#: prefix.
PruneHook = Callable[[int, Sequence[int], Sequence[int]], bool]


def component_core_demands(spec: EnsembleSpec) -> List[int]:
    """Core demand of every component, in flat (member-major) order."""
    cores: List[int] = []
    for member in spec.members:
        cores.append(member.simulation.cores)
        cores.extend(a.cores for a in member.analyses)
    return cores


def member_shapes(spec: EnsembleSpec) -> List[int]:
    """Number of components (1 + K_i) per member, in member order."""
    return [1 + member.num_couplings for member in spec.members]


def assignment_to_placement(
    spec: EnsembleSpec, assignment: Sequence[int], num_nodes: int
) -> EnsemblePlacement:
    """Materialize a flat component-to-node assignment as a placement."""
    members: List[MemberPlacement] = []
    cursor = 0
    for member in spec.members:
        shape = 1 + member.num_couplings
        chunk = assignment[cursor : cursor + shape]
        cursor += shape
        members.append(MemberPlacement(chunk[0], tuple(chunk[1:])))
    return EnsemblePlacement(num_nodes=num_nodes, members=tuple(members))


def iter_canonical_assignments(
    component_cores: Sequence[int],
    num_nodes: int,
    cores_per_node: int,
) -> Iterator[Tuple[int, ...]]:
    """Yield feasible canonical (RGS) assignments in lexicographic order.

    Each yielded tuple assigns every component a node label; labels are
    opened in order of first use and no node's total demand exceeds
    ``cores_per_node``. The order matches the seed product-then-dedup
    enumerator's output order exactly (first occurrence in raw
    lexicographic order *is* the RGS representative).
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    n = len(component_cores)
    if n == 0:
        return
    assignment = [0] * n
    # remaining capacity of opened nodes, indexed by label
    caps: List[int] = []

    def rec(i: int) -> Iterator[Tuple[int, ...]]:
        if i == n:
            yield tuple(assignment)
            return
        cores = component_cores[i]
        for label in range(len(caps)):
            if caps[label] >= cores:
                caps[label] -= cores
                assignment[i] = label
                yield from rec(i + 1)
                caps[label] += cores
        if len(caps) < num_nodes and cores_per_node >= cores:
            caps.append(cores_per_node - cores)
            assignment[i] = len(caps) - 1
            yield from rec(i + 1)
            caps.pop()

    yield from rec(0)


def iter_assignment_chunks(
    component_cores: Sequence[int],
    num_nodes: int,
    cores_per_node: int,
    chunk_size: int = 8192,
    boundaries: Sequence[int] = (),
    prune: Optional[PruneHook] = None,
) -> Iterator[np.ndarray]:
    """Yield canonical assignments as ``(B, C)`` index arrays.

    Array mode of :func:`iter_canonical_assignments`: concatenating the
    yielded chunks row by row reproduces the scalar stream exactly —
    same assignments, same order (property-tested against the seed
    reference enumerator). Rows are emitted in blocks so a batch kernel
    can score thousands of candidates per numpy dispatch; the last
    recursion level is filled column-wise (all feasible labels of the
    final component at once), which keeps per-candidate Python cost
    below the cost of building a tuple.

    With ``prune`` given, it is consulted whenever the recursion
    reaches a component index in ``boundaries`` (conventionally the
    member start offsets): returning True abandons the subtree rooted
    at the current prefix before any of its completions exist —
    branch-and-bound callers count the skipped completions with
    :class:`CompletionCounter` instead of materializing them.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    require_positive_int("chunk_size", chunk_size)
    n = len(component_cores)
    if n == 0:
        return
    boundary_set = frozenset(boundaries) if prune is not None else frozenset()
    assignment = [0] * n
    caps: List[int] = []
    buf = np.empty((chunk_size, n), dtype=np.int64)
    fill = 0

    def rec(i: int) -> Iterator[np.ndarray]:
        nonlocal fill
        if prune is not None and i in boundary_set and prune(
            i, assignment, caps
        ):
            return
        cores = component_cores[i]
        if i == n - 1:
            labels = [
                label for label in range(len(caps)) if caps[label] >= cores
            ]
            if len(caps) < num_nodes and cores_per_node >= cores:
                labels.append(len(caps))
            done = 0
            while done < len(labels):
                take = min(chunk_size - fill, len(labels) - done)
                block = buf[fill : fill + take]
                if n > 1:
                    block[:, : n - 1] = assignment[: n - 1]
                block[:, n - 1] = labels[done : done + take]
                fill += take
                done += take
                if fill == chunk_size:
                    yield buf.copy()
                    fill = 0
            return
        for label in range(len(caps)):
            if caps[label] >= cores:
                caps[label] -= cores
                assignment[i] = label
                yield from rec(i + 1)
                caps[label] += cores
        if len(caps) < num_nodes and cores_per_node >= cores:
            caps.append(cores_per_node - cores)
            assignment[i] = len(caps) - 1
            yield from rec(i + 1)
            caps.pop()

    yield from rec(0)
    if fill:
        yield buf[:fill].copy()


class CompletionCounter:
    """Closed-form completion counts of partial canonical assignments.

    Generalizes :func:`count_canonical_assignments` to arbitrary
    partial states: :meth:`count` sizes the subtree rooted at
    (component index, opened-label capacities) without materializing a
    single assignment, sharing one capacity-multiset memo across every
    query of a search. Branch-and-bound uses it to tally exactly how
    many candidates each pruned subtree contained, so
    ``scored + pruned`` always equals the full canonical count.
    """

    def __init__(
        self,
        component_cores: Sequence[int],
        num_nodes: int,
        cores_per_node: int,
    ) -> None:
        require_positive_int("num_nodes", num_nodes)
        require_positive_int("cores_per_node", cores_per_node)
        self._cores = list(component_cores)
        self._num_nodes = num_nodes
        self._cores_per_node = cores_per_node
        self._memo: Dict[Tuple[int, Tuple[int, ...], int], int] = {}

    def count(self, index: int, caps: Sequence[int]) -> int:
        """Completions of a prefix ending at ``index`` with ``caps`` open."""
        if not 0 <= index <= len(self._cores):
            raise ValueError(
                f"component index {index} out of range 0..{len(self._cores)}"
            )
        return self._rec(
            index, tuple(sorted(caps)), self._num_nodes - len(caps)
        )

    def total(self) -> int:
        """The full canonical count (empty prefix)."""
        if not self._cores:
            return 0
        return self.count(0, ())

    def _rec(self, i: int, caps: Tuple[int, ...], unopened: int) -> int:
        if i == len(self._cores):
            return 1
        key = (i, caps, unopened)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        c = self._cores[i]
        total = 0
        mult: Dict[int, int] = {}
        for r in caps:
            mult[r] = mult.get(r, 0) + 1
        for r, m in mult.items():
            if r >= c:
                nxt = list(caps)
                nxt.remove(r)
                nxt.append(r - c)
                total += m * self._rec(i + 1, tuple(sorted(nxt)), unopened)
        if unopened > 0 and self._cores_per_node >= c:
            nxt_caps = tuple(sorted(caps + (self._cores_per_node - c,)))
            total += self._rec(i + 1, nxt_caps, unopened - 1)
        self._memo[key] = total
        return total


def count_canonical_assignments(
    component_cores: Sequence[int],
    num_nodes: int,
    cores_per_node: int,
) -> int:
    """Count feasible canonical assignments without materializing them.

    Memoized on (component index, multiset of opened-node capacities,
    unopened node count): placing the next component on any opened node
    of remaining capacity ``r`` leads to the same sub-count, so the
    transition multiplies by the multiplicity of ``r`` instead of
    branching per node.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    cores = list(component_cores)
    if not cores:
        return 0
    memo: Dict[Tuple[int, Tuple[int, ...], int], int] = {}

    def rec(i: int, caps: Tuple[int, ...], unopened: int) -> int:
        if i == len(cores):
            return 1
        key = (i, caps, unopened)
        cached = memo.get(key)
        if cached is not None:
            return cached
        c = cores[i]
        total = 0
        # multiplicity of each distinct remaining capacity
        mult: Dict[int, int] = {}
        for r in caps:
            mult[r] = mult.get(r, 0) + 1
        for r, m in mult.items():
            if r >= c:
                nxt = list(caps)
                nxt.remove(r)
                nxt.append(r - c)
                total += m * rec(i + 1, tuple(sorted(nxt)), unopened)
        if unopened > 0 and cores_per_node >= c:
            nxt = tuple(sorted(caps + (cores_per_node - c,)))
            total += rec(i + 1, nxt, unopened - 1)
        memo[key] = total
        return total

    return rec(0, (), num_nodes)


@functools.lru_cache(maxsize=4096)
def search_space_size(
    component_cores: Tuple[int, ...],
    num_nodes: int,
    cores_per_node: int,
    node_cores: int,
) -> int:
    """Canonical size of a search budget the platform can score.

    The closed-form refusal every exhaustive search makes first, shared
    by :func:`~repro.search.engine.find_best_placement` and the
    placement service's request validation, memoized per (core
    demands, budget, node capacity). Raises
    :class:`~repro.util.errors.PlacementError` when the budget admits
    no canonical placement, or when it exceeds the physical
    ``node_cores`` so that some candidate oversubscribes a node (the
    budgeted space is then larger than the physical one).
    """
    total = count_canonical_assignments(
        component_cores, num_nodes, cores_per_node
    )
    if total == 0:
        raise PlacementError(
            f"no feasible placement over {num_nodes} nodes of "
            f"{cores_per_node} cores"
        )
    if cores_per_node > node_cores and total != count_canonical_assignments(
        component_cores, num_nodes, node_cores
    ):
        raise PlacementError(f"nodes oversubscribed (capacity {node_cores})")
    return total


def count_raw_assignments(
    component_cores: Sequence[int],
    num_nodes: int,
    cores_per_node: int,
) -> int:
    """Count feasible *labeled* assignments (no symmetry dedup).

    Same capacity-multiset memoization as
    :func:`count_canonical_assignments`, but every node starts opened:
    an assignment to any of the ``m`` nodes sharing a remaining
    capacity contributes ``m`` labeled variants.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    cores = list(component_cores)
    if not cores:
        return 0
    memo: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    def rec(i: int, caps: Tuple[int, ...]) -> int:
        if i == len(cores):
            return 1
        key = (i, caps)
        cached = memo.get(key)
        if cached is not None:
            return cached
        c = cores[i]
        total = 0
        mult: Dict[int, int] = {}
        for r in caps:
            mult[r] = mult.get(r, 0) + 1
        for r, m in mult.items():
            if r >= c:
                nxt = list(caps)
                nxt.remove(r)
                nxt.append(r - c)
                total += m * rec(i + 1, tuple(sorted(nxt)))
        memo[key] = total
        return total

    return rec(0, tuple([cores_per_node] * num_nodes))


def enumerate_canonical_placements(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
) -> Iterator[EnsemblePlacement]:
    """Yield one placement per node-relabeling class of ``spec``.

    Equivalent to the seed ``enumerate_placements(...,
    dedup_symmetric=True)`` stream — same placements, same order —
    without ever touching the infeasible or duplicate parts of the raw
    ``nodes^components`` space.
    """
    cores = component_core_demands(spec)
    for assignment in iter_canonical_assignments(
        cores, num_nodes, cores_per_node
    ):
        yield assignment_to_placement(spec, assignment, num_nodes)
