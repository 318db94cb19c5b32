"""Vectorized batch scoring of canonical placements (numpy kernels).

The scalar engine walks one assignment at a time through the
:class:`~repro.search.cache.StageCache`; even fully memoized, every
candidate costs a Python round trip per member. This module scores a
whole ``(B, C)`` chunk of flat assignments per numpy dispatch by
splitting the paper's pipeline (Eqs. 1-9) at its one genuinely
sequential joint — socket-aware contention assessment — and
vectorizing everything on either side of it:

1. **Node-signature codes** — a chunk is reduced to one integer per
   (candidate, node): the base-``(ncls+1)`` polynomial of the node's
   resident class sequence in allocation order. Two nodes with the
   same code have bit-identical contention assessments, so each
   distinct code is resolved **once** through the
   :class:`~repro.search.cache.StageCache` node memo the scalar engine
   reads (a population either engine met before costs a lookup) and
   kept as a per-position dilation row. Chunks after warm-up contain
   no new codes at all.
2. **Column kernels** — with dilations gathered per component, the
   remaining math is pure elementwise numpy: DTL read/write columns
   are lookups into per-(member, hop) tables precomputed with the
   exact scalar float expressions (Cori's dragonfly hop count is pure
   integer arithmetic on node indexes); active times, the steady-state
   period ``sigma*`` (Eq. 1, ``np.maximum.reduceat`` over member
   segments), efficiency ``E`` (Eq. 3), the indicator product
   ``P^{U,A,P}`` (Eqs. 5-8), makespans (Eq. 2), and the objective
   ``F = mean - std`` (Eq. 9) all follow as column reductions.
3. **Reduction** — a first-occurrence lexicographic argmax over
   ``(objective, -makespan)`` reproduces the serial loop's strict
   ``>`` tie-breaking exactly (see :func:`argmax_batch`).

Agreement with the scalar :func:`~repro.scheduler.objectives
.score_placement` is ≤1e-9 relative (typically a few ulps: the only
reassociations are ``n * overhead`` versus a repeated sum and the
segment reductions), enforced by the differential oracle's
``vectorized`` tier and the benchmark's correctness report.

:func:`find_best_placement_vectorized` adds branch-and-bound on top:
``E <= 1`` (documented and property-tested in
:mod:`repro.core.efficiency`) makes ``CP_i / (c_i * M)`` an admissible
per-member bound on the indicator, so a partial prefix bounds the
objective by the mean of exact-CP terms (assigned members) and
best-case-CP terms (unassigned members). Subtrees whose bound falls
strictly below the incumbent are skipped before expansion and sized in
closed form with :class:`~repro.search.canonical.CompletionCounter`.
The winner is re-scored through the scalar cache path before being
returned, so callers observe the very same floats the scalar engine
would have produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dtl.base import DataTransportLayer
from repro.dtl.dimes import InMemoryStagingDTL
from repro.platform.cluster import Cluster
from repro.platform.network import DragonflyNetwork
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import PlacementScore, score_placement
from repro.search.cache import StageCache
from repro.search.canonical import (
    CompletionCounter,
    assignment_to_placement,
    component_core_demands,
    iter_assignment_chunks,
)
from repro.util.errors import PlacementError
from repro.util.validation import require_positive_int

#: The benchmark's "large search" label: ``bench/workloads.py`` counts
#: plan-mix searches at or above this canonical size. No routing
#: decision reads it — ``find_best_placement`` sends every
#: ``vectorized=True`` search the kernel supports to the kernel, at any
#: size (``scripts/bench_search.py`` measures that choice).
MIN_VECTORIZED_CANDIDATES = 2048

#: Relative safety margin applied to the branch-and-bound upper bound
#: before comparing against the incumbent. The bound arithmetic is a
#: handful of float operations (error ~1e-15 relative); inflating by
#: 1e-9 — the vectorized agreement tolerance — keeps the bound
#: admissible against any rounding of either side.
BOUND_SAFETY = 1e-9

#: A dragonfly minimal route is at most 5 hops (see
#: :class:`~repro.platform.network.DragonflyNetwork`).
_MAX_HOPS = 5


class VectorizedUnsupported(Exception):
    """The scoring context cannot be vectorized faithfully.

    Raised at :class:`VectorizedScorer` construction for non-default
    transport/network models (whose cost formulas the column kernels do
    not replicate) or for spec shapes whose signature codes would
    overflow int64. Callers fall back to the scalar engine.
    """


@dataclass(frozen=True)
class ChunkEvaluation:
    """Batch scores of one ``(B, C)`` assignment chunk.

    ``objectives``/``makespans`` are ``(B,)``; ``indicators`` is
    ``(B, num_members)`` — the per-member ``P^{U,A,P}`` columns that
    Eq. 9 aggregates.
    """

    objectives: np.ndarray
    makespans: np.ndarray
    indicators: np.ndarray


@dataclass(frozen=True)
class VectorizedSearchResult:
    """Outcome of :func:`find_best_placement_vectorized`.

    ``best`` carries scalar-path floats (the winner is re-scored
    through the :class:`StageCache`); ``scored + pruned`` equals the
    full canonical count, so reporting is independent of how much the
    bound managed to cut.
    """

    best: PlacementScore
    scored: int
    pruned: int

    @property
    def candidates(self) -> int:
        """Total canonical candidates accounted for."""
        return self.scored + self.pruned


def argmax_batch(
    objectives: np.ndarray, makespans: np.ndarray
) -> int:
    """First index maximizing ``(objective, -makespan)``.

    This is :class:`~repro.scheduler.objectives.PlacementScore`'s
    ordering key with ``num_nodes`` constant across a search: the
    serial loop keeps the incumbent unless a candidate is *strictly*
    greater, so the first occurrence of the lexicographic maximum wins.
    A plain ``np.argmax(objectives)`` would drop the makespan
    tie-break; this helper restores it (regression-tested on tie-heavy
    grids against the serial loop).
    """
    if objectives.size == 0:
        raise ValueError("argmax_batch requires at least one candidate")
    tied = np.flatnonzero(objectives == objectives.max())
    # np.argmin returns the first minimum, preserving enumeration order
    return int(tied[np.argmin(makespans[tied])])


class VectorizedScorer:
    """Column-kernel scorer for one (spec, node budget, context).

    Precomputes every spec- and context-dependent constant once —
    per-component class ids and solo times, per-member DTL cost tables
    by hop count, reduction offsets — then scores arbitrary feasible
    assignment chunks with :meth:`score_chunk`. The platform context is
    the :class:`StageCache`'s: ``cache`` is used when it
    :meth:`~StageCache.matches` ``(cluster, dtl)``, else a fresh cache
    is built, and node populations are assessed through its node memo,
    so the kernel and the scalar engine share one set of assessments.
    Supports the default platform family only:
    :class:`DragonflyNetwork` topology and the DIMES-like
    :class:`InMemoryStagingDTL` (the models whose cost formulas the
    kernels replicate); anything else raises
    :class:`VectorizedUnsupported` so callers can fall back.
    """

    def __init__(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cluster: Optional[Cluster] = None,
        dtl: Optional[DataTransportLayer] = None,
        cache: Optional[StageCache] = None,
    ) -> None:
        require_positive_int("num_nodes", num_nodes)
        self.spec = spec
        self.num_nodes = num_nodes
        if cache is None or not cache.matches(cluster, dtl):
            cache = StageCache(cluster, dtl)
        self.cache = cache
        network, dtl = cache._network, cache.dtl
        if type(network) is not DragonflyNetwork:
            raise VectorizedUnsupported(
                f"network model {type(network).__name__} is not the "
                "dragonfly the hop kernel replicates"
            )
        if type(dtl) is not InMemoryStagingDTL:
            raise VectorizedUnsupported(
                f"DTL {type(dtl).__name__} has no vectorized cost columns"
            )
        self.dtl = dtl
        self._node_spec = cache._node_spec

        self._build_layout(spec)
        self._build_cost_tables(dtl, network.spec)

        # signature-code -> dilation-table row, grown lazily; the
        # parallel sorted arrays serve the vectorized lookups
        self._code_rows: Dict[int, int] = {}
        self._dil_rows: List[np.ndarray] = []
        self._sorted_codes = np.empty(0, dtype=np.int64)
        self._sorted_rows = np.empty(0, dtype=np.int64)
        self._dil_table = np.empty((0, self.num_components), dtype=float)
        #: distinct node populations resolved through the cache's node
        #: memo (each a lookup, or a ``Node.assess`` the first time any
        #: engine meets the population; everything else was amortized)
        self.assessed_codes = 0

    # -- static precomputation ----------------------------------------------
    def _build_layout(self, spec: EnsembleSpec) -> None:
        class_ids: Dict[Tuple, int] = {}
        class_cores: List[int] = []
        class_members: List[List[object]] = []
        comp_class: List[int] = []
        comp_solo: List[float] = []
        offsets: List[int] = []
        ana_cols: List[int] = []
        ana_member: List[int] = []
        ana_sim_col: List[int] = []
        ana_offsets: List[int] = []
        for member in spec.members:
            offsets.append(len(comp_class))
            ana_offsets.append(len(ana_cols))
            for model in (member.simulation, *member.analyses):
                profile = model.profile  # type: ignore[attr-defined]
                key = (
                    model.cores,  # type: ignore[attr-defined]
                    profile.working_set_bytes,
                    profile.llc_refs_per_instr,
                    profile.solo_llc_miss_ratio,
                    profile.max_llc_miss_ratio,
                    profile.contention_exponent,
                    profile.base_cpi,
                    profile.instructions_per_unit,
                    profile.miss_penalty_cycles,
                )
                cls = class_ids.get(key)
                if cls is None:
                    cls = len(class_ids)
                    class_ids[key] = cls
                    class_cores.append(model.cores)  # type: ignore[attr-defined]
                    class_members.append([])
                class_members[cls].append(model)
                if model is not member.simulation:
                    ana_cols.append(len(comp_class))
                    ana_member.append(len(offsets) - 1)
                    ana_sim_col.append(offsets[-1])
                comp_class.append(cls)
                comp_solo.append(model.solo_compute_time())  # type: ignore[attr-defined]

        self.num_components = len(comp_class)
        self.num_members = len(spec.members)
        self._class_members = class_members
        self._comp_class = np.asarray(comp_class, dtype=np.int64)
        self._comp_cores = np.asarray(
            [class_cores[c] for c in comp_class], dtype=np.int64
        )
        self._comp_solo = np.asarray(comp_solo, dtype=float)
        self._lower_tri = np.tri(
            self.num_components, self.num_components, k=-1, dtype=np.int8
        )
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._sim_cols = self._offsets
        self._ana_cols = np.asarray(ana_cols, dtype=np.int64)
        self._ana_member = np.asarray(ana_member, dtype=np.int64)
        self._ana_sim_col = np.asarray(ana_sim_col, dtype=np.int64)
        self._ana_offsets = np.asarray(ana_offsets, dtype=np.int64)
        self._ana_solo = self._comp_solo[self._ana_cols]
        self._n_steps = np.asarray(
            [m.n_steps for m in spec.members], dtype=float
        )
        self._total_cores = np.asarray(
            [m.total_cores for m in spec.members], dtype=float
        )
        self._k = np.asarray(
            [m.num_couplings for m in spec.members], dtype=float
        )

        base = len(class_ids) + 1
        if base ** max(self.num_components, 1) >= 2 ** 62:
            raise VectorizedUnsupported(
                f"{len(class_ids)} component classes over "
                f"{self.num_components} components overflow the int64 "
                "signature code"
            )
        self._code_base = base
        self._base_pows = base ** np.arange(
            self.num_components + 1, dtype=np.int64
        )

    def _build_cost_tables(self, dtl: InMemoryStagingDTL, net) -> None:
        # per-member DTL columns, evaluated with the exact scalar float
        # expressions so table lookups reproduce read_cost/write_cost
        # bit for bit (hops fully determine a remote read's cost)
        members = self.spec.members
        read_table = np.empty((self.num_members, _MAX_HOPS + 1), dtype=float)
        w_eff: List[float] = []
        overhead: List[float] = []
        for i, member in enumerate(members):
            payload = member.simulation.payload_bytes()  # type: ignore[attr-defined]
            unmarshal = payload / dtl.marshal_bandwidth
            read_table[i, 0] = unmarshal + payload / dtl.memory_bandwidth
            for h in range(1, _MAX_HOPS + 1):
                latency = net.base_latency + h * net.per_hop_latency
                read_table[i, h] = unmarshal + (
                    latency + payload / net.link_bandwidth
                )
            w_eff.append(dtl.write_cost(0, payload).total)
            overhead.append(
                dtl.service_latency + payload / dtl.service_bandwidth
            )
        self._read_table = read_table
        self._w_eff = np.asarray(w_eff, dtype=float)
        self._overhead = np.asarray(overhead, dtype=float)
        self._tax = dtl.producer_progress_tax
        self._nodes_per_router = net.nodes_per_router
        self._nodes_per_group = net.nodes_per_group

    # -- node-signature assessment -------------------------------------------
    def _assess_code(self, code: int) -> np.ndarray:
        """Per-position dilations of one node-population code.

        Decodes the class sequence and lets the i-th occurrence of
        class ``c`` stand for the spec's i-th component of class ``c``
        (names are unique within a spec, so residents never collide).
        The population is then assessed by
        :meth:`StageCache._assess_node` under its content-fingerprint
        signature — the memo entry the scalar engine reads, positions
        allocated in component order — so the dilations are the scalar
        engine's, bit for bit.
        """
        residents: List[object] = []
        taken = [0] * len(self._class_members)
        remaining = code
        while remaining:
            cls = remaining % self._code_base - 1
            residents.append(self._class_members[cls][taken[cls]])
            taken[cls] += 1
            remaining //= self._code_base
        # the scalar cache rejects populations beyond the *physical*
        # node capacity (a search budget may exceed it); mirror the
        # check here so both paths raise the same way
        capacity = self._node_spec.cores
        demand = sum(model.cores for model in residents)  # type: ignore[attr-defined]
        if demand > capacity:
            raise PlacementError(f"nodes oversubscribed (capacity {capacity})")
        assessed = self.cache._assess_node(
            tuple(self.cache._class_of(model) for model in residents),
            residents,
        )
        row = np.ones(self.num_components, dtype=float)
        row[: len(assessed)] = [a.dilation for a in assessed]
        self.assessed_codes += 1
        return row

    def _ensure_codes(self, codes: np.ndarray) -> None:
        # a set rather than np.unique: codes repeat heavily, and
        # np.unique's first call imports numpy.ma (~16 ms per process)
        for value in set(codes.ravel().tolist()):
            if value == 0 or value in self._code_rows:
                continue
            self._code_rows[value] = len(self._dil_rows)
            self._dil_rows.append(self._assess_code(value))
        if len(self._dil_rows) != self._dil_table.shape[0]:
            self._dil_table = np.vstack(self._dil_rows)
            known = np.fromiter(
                self._code_rows.keys(), dtype=np.int64, count=len(self._code_rows)
            )
            order = np.argsort(known)
            self._sorted_codes = known[order]
            self._sorted_rows = np.fromiter(
                self._code_rows.values(),
                dtype=np.int64,
                count=len(self._code_rows),
            )[order]

    # -- the chunk kernel -----------------------------------------------------
    def score_chunk(
        self, assignments: np.ndarray, validate: bool = False
    ) -> ChunkEvaluation:
        """Score a ``(B, C)`` chunk of flat node assignments.

        Rows must be feasible (the canonical enumerator guarantees it);
        pass ``validate=True`` for externally-supplied assignments to
        get the scalar path's oversubscription check.
        """
        a = np.ascontiguousarray(assignments, dtype=np.int64)
        if a.ndim != 2 or a.shape[1] != self.num_components:
            raise PlacementError(
                f"expected (B, {self.num_components}) assignments, got "
                f"{a.shape}"
            )
        batch, ncomp = a.shape
        if a.size and (a.min() < 0 or a.max() >= self.num_nodes):
            raise PlacementError(
                f"node labels must lie in [0, {self.num_nodes})"
            )

        # 1. node-signature codes + per-component positions from one
        # (B, C, C) co-residence mask: components j and k share a node
        # iff their labels match, so j's position on its node counts the
        # earlier co-residents, and its node's signature code sums the
        # co-residents' class terms — two broadcast reductions replace
        # any per-column Python loop
        share = a[:, :, None] == a[:, None, :]
        positions = np.einsum(
            "bjk,jk->bj",
            share.view(np.int8),
            self._lower_tri,
            dtype=np.int64,
        )
        term = (self._comp_class + 1) * self._base_pows[positions]
        comp_codes = np.einsum(
            "bjk,bk->bj", share, term, dtype=np.int64
        )
        if validate:
            demand = np.einsum(
                "bjk,k->bj", share, self._comp_cores, dtype=np.int64
            )
            if demand.max(initial=0) > self._node_spec.cores:
                raise PlacementError(
                    f"nodes oversubscribed "
                    f"(capacity {self._node_spec.cores})"
                )

        # 2. dilation gather: assess each new code once, then look the
        # whole chunk up through the sorted code table; warm chunks skip
        # the uniqueness scan entirely
        where = np.searchsorted(self._sorted_codes, comp_codes)
        if self._sorted_codes.size == 0 or not np.array_equal(
            self._sorted_codes[
                np.minimum(where, self._sorted_codes.size - 1)
            ],
            comp_codes,
        ):
            self._ensure_codes(comp_codes)
            where = np.searchsorted(self._sorted_codes, comp_codes)
        table_rows = self._sorted_rows[where]
        dilation = self._dil_table[table_rows, positions]

        # 3. DTL + stage columns (Eq. 1 inputs)
        sim_nodes = a[:, self._sim_cols]
        ana_nodes = a[:, self._ana_cols]
        producer = a[:, self._ana_sim_col]
        remote = ana_nodes != producer
        group = ana_nodes // self._nodes_per_group
        p_group = producer // self._nodes_per_group
        router = (ana_nodes % self._nodes_per_group) // self._nodes_per_router
        p_router = (producer % self._nodes_per_group) // self._nodes_per_router
        hops = np.where(
            remote,
            np.where(
                group == p_group, np.where(router == p_router, 1, 2), 5
            ),
            0,
        )
        read = self._read_table[self._ana_member, hops]
        ana_active = read + self._ana_solo * dilation[:, self._ana_cols]
        n_remote = np.add.reduceat(
            remote.astype(float), self._ana_offsets, axis=1
        )
        s_eff = (
            self._comp_solo[self._sim_cols]
            * dilation[:, self._sim_cols]
            * (1.0 + self._tax * n_remote)
            + n_remote * self._overhead
        )
        sim_active = s_eff + self._w_eff

        # 4. member reductions: sigma* (Eq. 1), E (Eq. 3), CP (Eq. 6),
        # the indicator product (Eqs. 5, 7, 8), makespan (Eq. 2)
        active = np.empty((batch, ncomp), dtype=float)
        active[:, self._sim_cols] = sim_active
        active[:, self._ana_cols] = ana_active
        sigma = np.maximum.reduceat(active, self._offsets, axis=1)
        ana_sum = np.add.reduceat(ana_active, self._ana_offsets, axis=1)
        efficiency = sim_active / sigma + ana_sum / (self._k * sigma) - 1.0
        co_located = (1.0 / self._k) * (
            (self._k - n_remote) + 0.5 * n_remote
        )
        indicators = (
            (efficiency / self._total_cores) * co_located
        ) / self.num_nodes
        makespans = self._n_steps * sigma

        # 5. Eq. 9 over the member axis
        mean = indicators.mean(axis=1)
        deviation = indicators - mean[:, None]
        objectives = mean - np.sqrt(np.mean(deviation ** 2, axis=1))
        return ChunkEvaluation(
            objectives=objectives,
            makespans=makespans.max(axis=1),
            indicators=indicators,
        )

    def score_assignments(
        self, assignments: Iterable[Sequence[int]]
    ) -> ChunkEvaluation:
        """Validated batch entry point for explicit assignment lists."""
        array = np.asarray(list(assignments), dtype=np.int64)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        return self.score_chunk(array, validate=True)


def _member_bounds(
    spec: EnsembleSpec, cores_per_node: int
) -> Tuple[List[float], List[float]]:
    """Per-member ``CP_max / c`` bound terms and their suffix sums.

    ``CP_max`` takes the most analyses that can share a fresh node with
    the simulation (greedy smallest-first maximizes the co-located
    count); capacity taken by other members can only shrink it, so the
    term is admissible for any completion.
    """
    u_max: List[float] = []
    for member in spec.members:
        free = cores_per_node - member.simulation.cores
        fit = 0
        for cores in sorted(a.cores for a in member.analyses):
            if cores <= free:
                free -= cores
                fit += 1
        k = member.num_couplings
        cp_max = (1.0 / k) * (fit + 0.5 * (k - fit))
        u_max.append(cp_max / member.total_cores)
    suffix = [0.0] * (len(u_max) + 1)
    for i in range(len(u_max) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + u_max[i]
    return u_max, suffix


def find_best_placement_vectorized(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    cache: Optional[StageCache] = None,
    chunk_size: int = 8192,
    prune: bool = True,
) -> VectorizedSearchResult:
    """Branch-and-bound batch search over the canonical space.

    Chunked RGS enumeration feeds :meth:`VectorizedScorer.score_chunk`;
    at every member boundary the admissible bound (exact ``CP/c`` for
    the assigned prefix, best-case for the rest, ``E <= 1`` closing the
    gap) is compared against the incumbent objective and losing
    subtrees are skipped, their sizes tallied in closed form. Pruning
    requires the bound to be *strictly* below the incumbent, so an
    objective tie — which the serial loop would resolve by makespan —
    can never be discarded: the winner is the one the scalar engine
    returns (property-tested against exhaustive search).

    Raises :class:`VectorizedUnsupported` for contexts the kernels do
    not model and :class:`PlacementError` when nothing fits.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    # the scorer resolves ``cache`` against (cluster, dtl) — or builds
    # one — and assesses populations through its node memo, which the
    # winner's re-score below reads too
    scorer = VectorizedScorer(spec, num_nodes, cluster, dtl, cache)
    component_cores = component_core_demands(spec)
    capacity = scorer._node_spec.cores
    if cores_per_node > capacity:
        # the scalar engine raises as soon as it scores a candidate
        # whose node population exceeds the *physical* capacity;
        # branch-and-bound could silently prune that candidate away,
        # so detect the condition in closed form instead
        from repro.search.canonical import count_canonical_assignments

        physical = count_canonical_assignments(
            component_cores, num_nodes, capacity
        )
        budgeted = count_canonical_assignments(
            component_cores, num_nodes, cores_per_node
        )
        if budgeted != physical:
            raise PlacementError(
                f"nodes oversubscribed (capacity {capacity})"
            )
    offsets = scorer._offsets
    shapes = [1 + m.num_couplings for m in spec.members]
    total_cores = [m.total_cores for m in spec.members]
    num_members = len(spec.members)
    _, suffix = _member_bounds(spec, cores_per_node)
    counter = CompletionCounter(component_cores, num_nodes, cores_per_node)
    member_of = {int(offsets[m]): m for m in range(num_members)}

    incumbent = -math.inf
    best_key: Optional[Tuple[float, float]] = None
    best_row: Optional[np.ndarray] = None
    scored = 0
    pruned = 0

    def prune_hook(
        i: int, assignment: Sequence[int], caps: Sequence[int]
    ) -> bool:
        nonlocal pruned
        if incumbent == -math.inf:
            return False
        m = member_of[i]
        prefix = 0.0
        for k in range(m):
            start = int(offsets[k])
            sim_node = assignment[start]
            n_remote = 0
            for t in range(start + 1, start + shapes[k]):
                if assignment[t] != sim_node:
                    n_remote += 1
            couplings = shapes[k] - 1
            cp = (1.0 / couplings) * (
                (couplings - n_remote) + 0.5 * n_remote
            )
            prefix += cp / total_cores[k]
        bound = (
            (prefix + suffix[m]) / (num_members * num_nodes)
        ) * (1.0 + BOUND_SAFETY)
        if bound < incumbent:
            pruned += counter.count(i, caps)
            return True
        return False

    boundaries = [int(offsets[m]) for m in range(1, num_members)]
    chunks = iter_assignment_chunks(
        component_cores,
        num_nodes,
        cores_per_node,
        chunk_size=chunk_size,
        boundaries=boundaries,
        prune=prune_hook if prune and boundaries else None,
    )
    for chunk in chunks:
        evaluation = scorer.score_chunk(chunk)
        index = argmax_batch(evaluation.objectives, evaluation.makespans)
        key = (
            float(evaluation.objectives[index]),
            -float(evaluation.makespans[index]),
        )
        scored += chunk.shape[0]
        if best_key is None or key > best_key:
            best_key = key
            best_row = chunk[index].copy()
            incumbent = key[0]

    if best_row is None:
        raise PlacementError(
            f"no feasible placement over {num_nodes} nodes of "
            f"{cores_per_node} cores"
        )
    # re-score the winner through the scalar cache path: the returned
    # floats are the scalar engine's, bit for bit, so downstream exact
    # comparisons (service smoke, bench correctness) are unaffected
    placement = assignment_to_placement(spec, best_row.tolist(), num_nodes)
    best = score_placement(
        spec,
        placement,
        context=PlanningContext(cluster=cluster, dtl=dtl, cache=scorer.cache),
    )
    return VectorizedSearchResult(best=best, scored=scored, pruned=pruned)
