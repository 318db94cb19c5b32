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

The walk grows whole blocks of prefixes a component at a time in numpy
(see :class:`_BlockWalk`), and capacity pruning happens **inside the
expansion**: a prefix that would oversubscribe a node never enters a
block, so none of its completions is materialized. Counting never
materializes placements at all:
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
    prune: Optional[
        Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    ] = None,
    opened: Sequence[int] = (),
) -> Iterator[np.ndarray]:
    """Yield the feasible assignments of a space as ``(B, C)`` arrays.

    Labels ``0..len(opened)-1`` are the opened nodes; the pool's labels
    follow in order of first use (see the module docstring). Rows come
    in lexicographic order, ``chunk_size`` to a chunk (the last may be
    shorter), so a batch kernel can score thousands of candidates per
    numpy dispatch. Arguments are checked at the call.

    With ``prune`` given, it is called with blocks of the prefixes whose
    length is in ``boundaries`` (conventionally the member start
    offsets): ``prune(index, prefixes, caps)``, where ``prefixes`` is a
    ``(B, index)`` block in stream order and ``caps`` the ``(B, L)``
    remaining capacity of each prefix's labels, ``-1`` for a label not
    yet opened. It returns a ``(B,)`` bool mask; True skips every
    completion of that prefix before any exists, and branch-and-bound
    callers size the skipped completions with
    :class:`CompletionCounter`. A prefix is offered after every chunk
    before the one that would hold its first completion has been
    yielded, and may be offered again after a later chunk until the
    walk reaches it, but never once skipped: a hook comparing against
    an incumbent updated per chunk skips the subtrees a prefix-by-prefix
    walk would.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    require_positive_int("chunk_size", chunk_size)
    caps = _opened_capacities(opened, num_nodes, cores_per_node)
    walk = _BlockWalk(
        list(component_cores),
        num_nodes,
        cores_per_node,
        chunk_size,
        frozenset(boundaries),
        prune,
        caps,
    )
    return walk.chunks()


class _BlockWalk:
    """One walk of :func:`iter_assignment_chunks`, a block at a time.

    A block is a run of prefixes of one length, in stream order, held
    as ``rows`` ``(B, C)`` (the columns past the prefix are scratch),
    ``caps`` ``(B, L)`` remaining capacity per label, ``cores_per_node``
    for labels not yet opened, and ``used`` ``(B,)`` opened labels. A
    prefix may put the next component on any opened label with room or
    on the first unopened one, so one ``(B, L)`` mask expands a whole
    block, and ``np.nonzero`` reads it out row-major: in lexicographic
    order. ``L`` is the most labels a row can open.

    Blocks are walked depth first. :meth:`_expand` expands a block down
    to its completions, a level at a time, in pieces of at most a chunk
    of children. Without a prune hook that is the whole walk. With one,
    :meth:`_visit` descends prefix by prefix while a prefix's subtree
    (:meth:`CompletionCounter.count`) exceeds the room left in the
    chunk being filled, and hands each run of sibling subtrees that
    fits to :meth:`_expand`. No chunk is yielded inside a run, so the
    hook bounds every prefix of a run against the incumbent a per-prefix
    walk would see, while the Python-level descent stays a thin path
    along chunk edges.
    """

    def __init__(
        self,
        cores: List[int],
        num_nodes: int,
        cores_per_node: int,
        chunk_size: int,
        boundaries: frozenset,
        prune: Optional[
            Callable[[int, np.ndarray, np.ndarray], np.ndarray]
        ],
        opened: List[int],
    ) -> None:
        self._cores = cores
        self._chunk = chunk_size
        self._prune = prune if boundaries else None
        self._bounded = boundaries if self._prune is not None else frozenset()
        width = min(num_nodes, len(opened) + len(cores))
        self._labels = np.arange(width)
        self._unit = np.eye(width, dtype=np.int64)  # row l: one core on l
        self._root = (
            np.zeros((1, len(cores)), dtype=np.int64),
            np.asarray(
                [opened + [cores_per_node] * (width - len(opened))],
                dtype=np.int64,
            ),
            np.asarray([len(opened)], dtype=np.int64),
        )
        self._counter = (
            CompletionCounter(cores, num_nodes, cores_per_node)
            if self._prune is not None
            else None
        )
        self._pending: List[np.ndarray] = []
        self._filled = 0
        #: chunks yielded so far: a hook's incumbent can only have
        #: moved when this has
        self._yielded = 0

    def chunks(self) -> Iterator[np.ndarray]:
        if not self._cores:
            return
        if self._prune is None:
            yield from self._expand(*self._root, 0)
        else:
            yield from self._visit(*self._root, 0)
        if self._filled:
            yield np.concatenate(self._pending)

    def _fits(self, caps: np.ndarray, used: np.ndarray, i: int) -> np.ndarray:
        """``(B, L)``: label ``l`` can take component ``i``."""
        return (caps >= self._cores[i]) & (self._labels <= used[:, None])

    def _children(self, rows, caps, used, i: int, fits: np.ndarray):
        """The block of prefixes one component longer, in stream order."""
        parent, label = np.nonzero(fits)
        child = rows[parent]
        child[:, i] = label
        if i + 1 == len(self._cores):  # completions carry no state
            return child, None, None
        child_caps = caps[parent] - self._cores[i] * self._unit[label]
        return child, child_caps, np.maximum(used[parent], label + 1)

    def _skipped(self, rows, caps, used, i: int) -> np.ndarray:
        """The hook's mask for a block of length-``i`` prefixes."""
        assert self._prune is not None
        opened = np.where(self._labels < used[:, None], caps, -1)
        return self._prune(i, rows[:, :i], opened)

    def _emit(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        self._pending.append(rows)
        self._filled += len(rows)
        if self._filled < self._chunk:
            return
        block = np.concatenate(self._pending)
        full = self._filled - self._filled % self._chunk
        self._pending = [block[full:]]
        self._filled -= full
        for start in range(0, full, self._chunk):
            self._yielded += 1
            yield block[start : start + self._chunk]

    def _expand(self, rows, caps, used, i: int) -> Iterator[np.ndarray]:
        """Every completion of a block of length-``i`` prefixes, bounded
        at each boundary past ``i``."""
        while True:
            fits = self._fits(caps, used, i)
            if (
                len(rows) > 1
                and fits.size > self._chunk
                and np.count_nonzero(fits) > self._chunk
            ):
                # too many children for one block: pieces of at most a
                # chunk of children each, in order
                ends = np.cumsum(np.count_nonzero(fits, axis=1))
                start = 0
                while start < len(rows):
                    reach = (ends[start - 1] if start else 0) + self._chunk
                    stop = max(
                        int(np.searchsorted(ends, reach, side="right")),
                        start + 1,
                    )
                    yield from self._expand(
                        rows[start:stop], caps[start:stop], used[start:stop], i
                    )
                    start = stop
                return
            rows, caps, used = self._children(rows, caps, used, i, fits)
            i += 1
            if i == len(self._cores):
                yield from self._emit(rows)
                return
            if i in self._bounded and len(rows):
                keep = ~self._skipped(rows, caps, used, i)
                rows, caps, used = rows[keep], caps[keep], used[keep]
            if not len(rows):
                return

    def _visit(self, rows, caps, used, i: int) -> Iterator[np.ndarray]:
        """Every completion of a block of length-``i`` sibling prefixes,
        bounded at ``i`` here as the walk reaches them."""
        if i == len(self._cores):
            yield from self._emit(rows)
            return
        assert self._counter is not None
        sizes = [
            self._counter.count(i, row[:count])
            for row, count in zip(caps.tolist(), used.tolist())
        ]
        live = list(range(len(rows)))
        seen = -1
        j = 0
        while j < len(live):
            if i in self._bounded and seen != self._yielded:
                # bound every sibling not reached yet against the
                # incumbent the last chunk left
                seen = self._yielded
                rest = live[j:]
                skipped = self._skipped(rows[rest], caps[rest], used[rest], i)
                live[j:] = [t for t, s in zip(rest, skipped.tolist()) if not s]
                continue
            t = live[j]
            room = self._chunk - self._filled
            if sizes[t] > room:  # descend into the prefix alone
                j += 1
                one = rows[t : t + 1], caps[t : t + 1], used[t : t + 1]
                fits = self._fits(*one[1:], i)
                yield from self._visit(*self._children(*one, i, fits), i + 1)
                continue
            stop, total = j + 1, sizes[t]
            while stop < len(live) and total + sizes[live[stop]] <= room:
                total += sizes[live[stop]]
                stop += 1
            run = live[j:stop]
            j = stop
            yield from self._expand(rows[run], caps[run], used[run], i)


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

