"""The exhaustive search engine: batch scoring of canonical placements.

Every exhaustive search runs here (:func:`~repro.search.engine
.find_best_placement` is a thin front end). A whole ``(B, C)`` chunk of
flat assignments is scored per numpy dispatch by splitting the paper's
pipeline (Eqs. 1-9) at its one sequential joint — socket-aware
contention assessment:

1. **Node-signature codes** — one integer per (candidate, node): the
   base-``(ncls+1)`` polynomial of the node's resident class sequence
   in allocation order. Each distinct code is resolved **once** through
   the :class:`~repro.search.cache.StageCache` node memo and kept as a
   per-position dilation row.
2. **Column kernels** — staging columns are lookups into tables of the
   context DTL's own ``read_cost``/``write_cost`` per (member payload,
   producer label, consumer label) plus its ``producer_progress_tax``,
   so any network or DTL model is scored by its own methods. The stage
   columns and each member's ``CP`` (Eq. 6, from its remote-analysis
   count) go to :func:`~repro.core.columns.score_columns`, the Eqs. 1-9
   reducer the fault replay scores with too, for ``sigma*``, the
   indicators and ``F``; makespans (Eq. 2) are ``n_steps * sigma*``.
3. **Reduction** — a first-occurrence lexicographic argmax over
   ``(F - penalty, -makespan)`` reproduces the serial loop's strict
   ``>`` tie-breaking (see :func:`argmax_batch`).

The stage columns repeat the scalar path's float operations in its
order — producer overheads and remote counts are summed left to right
by :func:`~repro.core.columns.member_sum`, as ``sum()`` adds them —
and the reducer equals the scalar functions bit for bit, so each row
equals :func:`~repro.scheduler.objectives.score_placement` (the
differential oracle's ``vectorized`` tier, at tolerance 0.0).

:func:`find_best_placement_vectorized` adds branch-and-bound: ``E <= 1``
(property-tested in :mod:`repro.core.efficiency`) makes
``CP_i / (c_i * M)`` an admissible per-member bound on the indicator,
so a prefix bounds the objective by exact-CP terms for assigned members
and best-case terms for the rest. A robustness penalty is never
negative (the surrogate's expected inflation is at least 1), so the
bound also caps the utility ``F - penalty``. The walker hands the
bound whole blocks of prefixes that end at a member boundary;
:meth:`VectorizedScorer.upper_bounds` bounds a block in one column
pass, and prefixes bounded strictly below the incumbent's utility are
skipped and their subtrees sized in closed form with
:class:`~repro.search.canonical.CompletionCounter`. Each prefix is
bounded against the incumbent of every chunk scored before it, so the
blocks prune exactly the subtrees a prefix-by-prefix walk prunes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columns import co_location_indicator, member_sum, score_columns
from repro.dtl.base import DataTransportLayer
from repro.platform.cluster import Cluster
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import PlacementScore, score_placement
from repro.search.cache import StageCache
from repro.search.canonical import (
    CompletionCounter,
    assignment_to_placement,
    component_core_demands,
    iter_assignment_chunks,
    search_space_size,
)
from repro.util.errors import PlacementError, ValidationError
from repro.util.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.faults.analytic import RobustnessTerm

#: The benchmark's "large search" label: ``bench/workloads.py`` counts
#: plan-mix searches at or above this canonical size. No search
#: decision reads it — every search runs the column kernel, at any size
#: (``scripts/bench_search.py`` measures that choice).
MIN_VECTORIZED_CANDIDATES = 2048

#: Relative safety margin applied to the branch-and-bound upper bound
#: before comparing against the incumbent. The bound arithmetic is a
#: handful of float operations (error ~1e-15 relative); inflating by
#: 1e-9 keeps the bound admissible against any rounding of either
#: side, and a looser bound only prunes less.
BOUND_SAFETY = 1e-9


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

    Precomputes every spec-dependent constant once, then scores feasible
    assignment chunks with :meth:`score_chunk`. The platform context is
    the :class:`StageCache`'s (``cache`` when it
    :meth:`~StageCache.matches` ``(cluster, dtl)``, else a fresh one):
    node populations are assessed through its node memo and staging
    costs read through its memoized ``read_cost``/``write_cost``. A
    spec whose node-signature codes would overflow int64 raises
    :class:`~repro.util.errors.ValidationError`.
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
        self._node_spec = cache._node_spec
        self._tax = getattr(cache.dtl, "producer_progress_tax", 0.0)

        self._build_layout(spec)

        # staging tables over node labels [0, _labels), grown lazily
        self._labels = 0
        self._read = np.empty(0, dtype=float)
        self._overhead = np.empty(0, dtype=float)
        self._write = np.empty(0, dtype=float)

        # signature-code -> dilation-table row, grown lazily; the
        # parallel sorted arrays serve the vectorized lookups
        self._code_rows: Dict[int, int] = {}
        self._dil_rows: List[np.ndarray] = []
        self._sorted_codes = np.empty(0, dtype=np.int64)
        self._sorted_rows = np.empty(0, dtype=np.int64)
        self._dil_table = np.empty((0, self.num_components), dtype=float)
        #: distinct node populations resolved through the cache's node
        #: memo (each a lookup, or a ``ContentionModel.assess`` the first
        #: time any engine meets the population; everything else was
        #: amortized)
        self.assessed_codes = 0

    # -- static precomputation ----------------------------------------------
    def _build_layout(self, spec: EnsembleSpec) -> None:
        class_ids: Dict[Tuple, int] = {}
        class_cores: List[int] = []
        class_members: List[List[object]] = []
        comp_class: List[int] = []
        comp_solo: List[float] = []
        offsets: List[int] = []
        payload_ids: Dict[float, int] = {}
        member_payload: List[int] = []
        for member in spec.members:
            offsets.append(len(comp_class))
            payload = member.simulation.payload_bytes()  # type: ignore[attr-defined]
            member_payload.append(
                payload_ids.setdefault(payload, len(payload_ids))
            )
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
        self._ana_cols = np.delete(np.arange(self.num_components), self._offsets)
        self._ana_solo = self._comp_solo[self._ana_cols]
        self._payloads = list(payload_ids)
        self._sim_payload = np.asarray(member_payload, dtype=np.int64)
        self._couplings = tuple(m.num_couplings for m in spec.members)
        self._ana_sim_col = np.repeat(self._offsets, self._couplings)
        self._ana_payload = np.repeat(self._sim_payload, self._couplings)
        self._k = np.asarray(self._couplings, dtype=float)
        self._n_steps = np.asarray(
            [m.n_steps for m in spec.members], dtype=float
        )
        self._total_cores = np.asarray(
            [m.total_cores for m in spec.members], dtype=float
        )

        base = len(class_ids) + 1
        if base ** max(self.num_components, 1) >= 2 ** 62:
            raise ValidationError(
                f"{len(class_ids)} component classes over "
                f"{self.num_components} components overflow the int64 "
                "signature code"
            )
        self._code_base = base
        self._base_pows = base ** np.arange(
            self.num_components + 1, dtype=np.int64
        )

    def _ensure_labels(self, count: int) -> None:
        """Cover node labels ``[0, count)`` in the staging tables.

        Each entry is the context DTL's own cost of one (payload,
        producer, consumer) or (payload, producer) staging operation,
        read through the cache's memo. A co-located read's producer
        overhead is zeroed, as the scalar path only sums the overheads
        of remote consumers.
        """
        if count <= self._labels:
            return
        cache = self.cache
        shape = (len(self._payloads), count, count)
        read = np.empty(shape, dtype=float)
        overhead = np.zeros(shape, dtype=float)
        write = np.empty(shape[:2], dtype=float)
        for p, payload in enumerate(self._payloads):
            for src in range(count):
                write[p, src] = cache.write_cost(src, payload).total
                for dst in range(count):
                    cost = cache.read_cost(src, dst, payload)
                    read[p, src, dst] = cost.total
                    if dst != src:
                        overhead[p, src, dst] = cost.producer_overhead
        self._read = read.ravel()
        self._overhead = overhead.ravel()
        self._write = write.ravel()
        self._labels = count

    # -- node-signature assessment -------------------------------------------
    def _assess_code(self, code: int) -> np.ndarray:
        """Per-position dilations of one node-population code.

        Decodes the class sequence and lets the i-th occurrence of
        class ``c`` stand for the spec's i-th component of class ``c``
        (names are unique within a spec, so residents never collide).
        The population is then assessed by
        :meth:`StageCache._assess_node` under its content-fingerprint
        signature — the memo entry :meth:`StageCache.evaluate_flat`
        reads, positions allocated in component order — so the
        dilations are the cache's, bit for bit. A population beyond the
        *physical* node capacity (a search budget may exceed it) raises
        :class:`~repro.util.errors.PlacementError` from that assessment.
        """
        residents: List[object] = []
        taken = [0] * len(self._class_members)
        remaining = code
        while remaining:
            cls = remaining % self._code_base - 1
            residents.append(self._class_members[cls][taken[cls]])
            taken[cls] += 1
            remaining //= self._code_base
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

        # 3. staging + stage columns (Eq. 1 inputs), as
        # ``member_effective_stages`` builds them: the DTL's read cost
        # per (payload, producer, consumer), producer overheads summed
        # over remote consumers, the progress tax per remote consumer
        if a.size:
            self._ensure_labels(int(a.max()) + 1)
        labels = self._labels
        sim_nodes = a[:, self._sim_cols]
        ana_nodes = a[:, self._ana_cols]
        producer = a[:, self._ana_sim_col]
        remote = ana_nodes != producer
        pair = (self._ana_payload * labels + producer) * labels + ana_nodes
        n_remote = member_sum(remote.astype(float), self._couplings)
        compute = (
            self._comp_solo[self._sim_cols]
            * dilation[:, self._sim_cols]
            * (1.0 + self._tax * n_remote)
            + member_sum(self._overhead[pair], self._couplings)
        )

        # 4. Eqs. 1-9 over the stage columns, with CP (Eq. 6) from each
        # member's remote-analysis count; makespan (Eq. 2) per member
        scores = score_columns(
            compute,
            self._write[self._sim_payload * labels + sim_nodes],
            self._read[pair],
            self._ana_solo * dilation[:, self._ana_cols],
            self._couplings,
            self._total_cores,
            co_location_indicator(self._k, n_remote),
            self.num_nodes,
        )
        return ChunkEvaluation(
            objectives=scores.objectives,
            makespans=(self._n_steps * scores.sigma).max(axis=1),
            indicators=scores.indicators,
        )

    def score_assignments(
        self, assignments: Iterable[Sequence[int]]
    ) -> ChunkEvaluation:
        """Validated batch entry point for explicit assignment lists."""
        array = np.asarray(list(assignments), dtype=np.int64)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        return self.score_chunk(array, validate=True)

    def upper_bounds(
        self, prefixes: np.ndarray, suffix: Sequence[float]
    ) -> np.ndarray:
        """Branch-and-bound's cap on F of each prefix's completions.

        ``prefixes`` is a ``(B, offsets[m])`` block placing members
        ``0..m-1`` whole; ``suffix[m]`` is the rest's best-case term
        (:func:`_member_bounds`). Each placed member's ``CP`` (Eq. 6)
        comes from its remote-analysis count, and the ``CP / c`` terms
        are summed member by member, as the scalar bound adds them.
        """
        m = int(np.searchsorted(self._offsets, prefixes.shape[1]))
        analyses = prefixes.shape[1] - m
        remote = (
            prefixes[:, self._ana_cols[:analyses]]
            != prefixes[:, self._ana_sim_col[:analyses]]
        )
        terms = co_location_indicator(
            self._k[:m], member_sum(remote.astype(float), self._couplings[:m])
        ) / self._total_cores[:m]
        placed = np.zeros(len(prefixes))
        for k in range(m):
            placed += terms[:, k]
        return (
            (placed + suffix[m]) / (self.num_members * self.num_nodes)
        ) * (1.0 + BOUND_SAFETY)


def _member_bounds(spec: EnsembleSpec, cores_per_node: int) -> List[float]:
    """Suffix sums of the per-member ``CP_max / c`` bound terms.

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
        cp_max = co_location_indicator(k, k - fit)
        u_max.append(cp_max / member.total_cores)
    suffix = [0.0] * (len(u_max) + 1)
    for i in range(len(u_max) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + u_max[i]
    return suffix


def find_best_placement_vectorized(
    spec: EnsembleSpec,
    num_nodes: int,
    cores_per_node: int,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    cache: Optional[StageCache] = None,
    chunk_size: int = 8192,
    prune: bool = True,
    robustness: Optional["RobustnessTerm"] = None,
) -> VectorizedSearchResult:
    """Branch-and-bound batch search over the canonical space.

    Chunked RGS enumeration feeds :meth:`VectorizedScorer.score_chunk`.
    With a ``robustness`` term, each scored row's surrogate penalty
    (priced on the cache's stages, as ``score_placement`` prices it) is
    subtracted from its F. Blocks of prefixes ending at a member
    boundary are bounded in one column pass against the incumbent's
    utility; pruning requires a bound *strictly* below, so a tie —
    which the serial loop resolves by makespan — is never discarded and
    the first optimum of ``(F - penalty, -makespan)`` in the canonical
    stream wins
    (property-tested against :func:`~repro.search.reference
    .find_best_placement_reference`).

    Raises :class:`PlacementError` when nothing fits or the budget
    oversubscribes the physical node (:func:`~repro.search.canonical
    .search_space_size`), before any scorer is built.
    """
    require_positive_int("num_nodes", num_nodes)
    require_positive_int("cores_per_node", cores_per_node)
    if cache is None or not cache.matches(cluster, dtl):
        cache = StageCache(cluster, dtl)
    component_cores = tuple(component_core_demands(spec))
    # branch-and-bound could silently prune away a candidate that
    # oversubscribes the physical node, so both refusals are closed-form
    total = search_space_size(
        component_cores, num_nodes, cores_per_node, cache._node_spec.cores
    )
    # the scorer assesses populations through the cache's node memo,
    # which the winner's re-score below reads too
    scorer = VectorizedScorer(spec, num_nodes, cluster, dtl, cache)
    suffix = _member_bounds(spec, cores_per_node)
    counter = CompletionCounter(component_cores, num_nodes, cores_per_node)

    def penalties(chunk: np.ndarray) -> np.ndarray:
        """Each row's robustness penalty, priced as the reference loop does."""
        out = np.zeros(chunk.shape[0], dtype=float)
        if robustness is None:
            return out
        for r, row in enumerate(chunk.tolist()):
            evaluation = cache.evaluate_flat(spec, row, num_nodes)
            out[r] = robustness.penalty(
                spec,
                assignment_to_placement(spec, row, num_nodes),
                stages=evaluation.stages_by_name(spec),
            )
        return out

    incumbent = -math.inf
    best_key: Optional[Tuple[float, float]] = None
    best_row: Optional[np.ndarray] = None
    best_penalty = 0.0
    scored = 0
    pruned = 0

    def prune_block(
        index: int, prefixes: np.ndarray, caps: np.ndarray
    ) -> np.ndarray:
        nonlocal pruned
        if incumbent == -math.inf:
            return np.zeros(len(prefixes), dtype=bool)
        skip = scorer.upper_bounds(prefixes, suffix) < incumbent
        for row in caps[skip].tolist():
            pruned += counter.count(index, [cap for cap in row if cap >= 0])
        return skip

    # a space of one chunk is scored before any incumbent exists, so
    # nothing in it could be pruned
    chunks = iter_assignment_chunks(
        component_cores,
        num_nodes,
        cores_per_node,
        chunk_size=min(total, chunk_size),
        boundaries=scorer._offsets[1:].tolist(),
        prune=prune_block if prune and total > chunk_size else None,
    )
    for chunk in chunks:
        evaluation = scorer.score_chunk(chunk)
        chunk_penalties = penalties(chunk)
        utilities = evaluation.objectives - chunk_penalties
        index = argmax_batch(utilities, evaluation.makespans)
        key = (
            float(utilities[index]),
            -float(evaluation.makespans[index]),
        )
        scored += chunk.shape[0]
        if best_key is None or key > best_key:
            best_key = key
            best_row = chunk[index].copy()
            best_penalty = float(chunk_penalties[index])
            incumbent = key[0]

    assert best_row is not None  # search_space_size refused empty spaces
    # re-score the winner through the cache: the returned floats are
    # the ones score_placement gives this placement, bit for bit
    placement = assignment_to_placement(spec, best_row.tolist(), num_nodes)
    best = score_placement(
        spec,
        placement,
        context=PlanningContext(cluster=cluster, dtl=dtl, cache=cache),
    )
    best = dataclasses.replace(best, robust_penalty=best_penalty)
    return VectorizedSearchResult(best=best, scored=scored, pruned=pruned)
