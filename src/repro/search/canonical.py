"""The placement-space walker (restricted growth strings over a pool).

The seed enumerator walked all ``nodes^components`` raw assignments and
discarded node-relabeling duplicates with a ``seen`` set — exponential
work even when the surviving space is tiny. :func:`iter_assignment_chunks`
walks every placement space directly. Its ``opened`` input holds the
remaining capacities of nodes ``0..len(opened)-1``, already occupied
and therefore distinct; the other nodes are one pool of
interchangeable empty nodes, opened in order of first use:

- ``opened=()`` is the **canonical** space: each assignment is a
  restricted growth string (RGS), the lexicographically smallest member
  of its relabeling class — the representative the seed's
  first-occurrence dedup kept, so the streams are identical, element
  for element;
- every node opened is the **labelled** space, the seed's product walk
  without the dedup, in the same order;
- a prefix opened is a partially occupied allocation:
  :class:`~repro.scheduler.policies.GreedyIndicatorPolicy` walks each
  member's space with the nodes earlier members use opened.

Capacity pruning happens **inside the recursion**: a prefix that
oversubscribes a node is abandoned before any of its completions are
materialized. Counting never materializes placements at all:
:class:`CompletionCounter` runs a memoized recursion over *capacity
multisets* — two partial states whose remaining node capacities agree
as multisets have the same number of completions, which collapses the
tree to polynomial size for the node counts searched here.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import PlacementError, ValidationError
from repro.util.validation import require_non_negative_int, require_positive_int

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
    for shape in member_shapes(spec):
        chunk = assignment[cursor : cursor + shape]
        cursor += shape
        members.append(MemberPlacement(chunk[0], tuple(chunk[1:])))
    return EnsemblePlacement(num_nodes=num_nodes, members=tuple(members))


def placement_to_assignment(placement: EnsemblePlacement) -> List[int]:
    """The flat component-to-node assignment of a placement.

    The inverse of :func:`assignment_to_placement`: member-major, each
    member's simulation node followed by its analysis nodes.

    Examples
    --------
    >>> from repro.runtime.spec import EnsembleSpec, default_member
    >>> spec = EnsembleSpec("demo", (default_member("em1", num_analyses=2),
    ...                              default_member("em2")))
    >>> placement = EnsemblePlacement(
    ...     2, (MemberPlacement(0, (0, 1)), MemberPlacement(1, (1,))))
    >>> placement_to_assignment(placement)
    [0, 0, 1, 1, 1]
    >>> assignment_to_placement(spec, [0, 0, 1, 1, 1], 2) == placement
    True
    """
    assignment: List[int] = []
    for mp in placement.members:
        assignment.append(mp.simulation_node)
        assignment.extend(mp.analysis_nodes)
    return assignment


def node_core_demands(
    component_cores: Sequence[int], assignment: Sequence[int]
) -> Dict[int, int]:
    """Cores each occupied node carries under a flat assignment.

    ``component_cores`` is :func:`component_core_demands` of the spec
    the assignment places; unoccupied nodes are absent.
    """
    demand: Dict[int, int] = {}
    for node, cores in zip(assignment, component_cores):
        demand[node] = demand.get(node, 0) + cores
    return demand


def _opened_capacities(
    opened: Sequence[int], num_nodes: int, cores_per_node: int
) -> List[int]:
    """``opened`` as a list: at most ``num_nodes`` ints in ``[0,
    cores_per_node]``, booleans refused."""
    caps = list(opened)
    if len(caps) > num_nodes:
        raise ValidationError(
            f"{len(caps)} opened nodes exceed the {num_nodes}-node budget"
        )
    for cap in caps:
        if require_non_negative_int("opened capacity", cap) > cores_per_node:
            raise ValidationError(
                f"opened capacity {cap} exceeds {cores_per_node} cores"
            )
    return caps


def iter_canonical_assignments(
    component_cores: Sequence[int],
    num_nodes: int,
    cores_per_node: int,
    opened: Sequence[int] = (),
) -> Iterator[Tuple[int, ...]]:
    """The rows of :func:`iter_assignment_chunks`, as tuples.

    Examples
    --------
    A 16-core simulation and its 8-core analysis on two 32-core nodes:
    canonical, labelled, and with node 0 already holding 24 cores:

    >>> list(iter_canonical_assignments([16, 8], 2, 32))
    [(0, 0), (0, 1)]
    >>> list(iter_canonical_assignments([16, 8], 2, 32, opened=(32, 32)))
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    >>> list(iter_canonical_assignments([16, 8], 2, 32, opened=(8,)))
    [(1, 0), (1, 1)]
    """
    chunks = iter_assignment_chunks(
        component_cores, num_nodes, cores_per_node, opened=opened
    )
    return (tuple(row) for chunk in chunks for row in chunk.tolist())


def iter_assignment_chunks(
    component_cores: Sequence[int],
    num_nodes: int,
    cores_per_node: int,
    chunk_size: int = 8192,
    boundaries: Sequence[int] = (),
    prune: Optional[PruneHook] = None,
    opened: Sequence[int] = (),
) -> Iterator[np.ndarray]:
    """Yield the feasible assignments of a space as ``(B, C)`` arrays.

    Labels ``0..len(opened)-1`` are the opened nodes; the pool's labels
    follow in order of first use (see the module docstring). Rows come
    in lexicographic order, in blocks so a batch kernel can score
    thousands of candidates per numpy dispatch; the last component is
    filled column-wise, which keeps per-candidate Python cost below
    the cost of building a tuple. Arguments are checked at the call.

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
    # remaining capacity of opened nodes, indexed by label
    caps = _opened_capacities(opened, num_nodes, cores_per_node)
    n = len(component_cores)
    boundary_set = frozenset(boundaries) if prune is not None else frozenset()
    assignment = [0] * n
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

    def walk() -> Iterator[np.ndarray]:
        if n == 0:
            return
        yield from rec(0)
        if fill:
            yield buf[:fill].copy()

    return walk()


class CompletionCounter:
    """Closed-form completion counts of partial assignments.

    :meth:`count` sizes the walker's subtree rooted at (component
    index, opened capacities) without materializing an assignment, so
    ``count(0, opened)`` is the length of the stream with ``opened``.
    Placing the next component on any opened node of remaining
    capacity ``r`` leads to the same sub-count, so the transition
    multiplies by the multiplicity of ``r``, and one memo serves every
    query of a search. Branch-and-bound tallies each pruned subtree
    with it, so ``scored + pruned`` always equals the full count.
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
        """Completions of a prefix ending at ``index`` with ``caps`` open.

        ``caps`` obeys the walker's ``opened`` checks.
        """
        if require_non_negative_int("component index", index) > len(
            self._cores
        ):
            raise ValidationError(
                f"component index {index} out of range 0..{len(self._cores)}"
            )
        caps = _opened_capacities(caps, self._num_nodes, self._cores_per_node)
        if not self._cores:  # the walker yields no row for no component
            return 0
        return self._rec(
            index, tuple(sorted(caps)), self._num_nodes - len(caps)
        )

    def total(self) -> int:
        """The full canonical count (no node opened)."""
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
        # multiplicity of each distinct remaining capacity
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
    """Count feasible canonical assignments without materializing them."""
    return CompletionCounter(
        component_cores, num_nodes, cores_per_node
    ).total()


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

