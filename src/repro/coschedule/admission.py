"""Deterministic admission control for ensemble streams.

The :class:`AdmissionController` answers one question per arriving
:class:`~repro.coschedule.requests.EnsembleRequest`: *accept*, *queue*,
or *reject* — and always with an explicit machine-readable reason.
Decisions are driven by two closed-form probes, never by load
measurements, so the same request stream produces byte-identical
decisions on every run (asserted by ``decisions_digest`` in the
property suite):

- **feasibility** — :func:`~repro.coschedule.allocator
  .grant_space`, the allocator's own test, applies the search
  engine's closed-form refusal to candidate grants without
  materializing any placement; a request whose spec fits no grant up
  to its cap is rejected outright, so every admitted ensemble can be
  allocated;
- **deadline** — the best full-cap placement is found with
  :func:`~repro.search.engine.find_best_placement` and its makespan
  (priced through the analytic robustness surrogate when a failure
  rate is configured) is compared against the deadline; an unmeetable
  deadline is a rejection, not a queue entry.

A feasible, meetable request is *accepted* when the cluster's minimum
resident footprint leaves room for the request's own minimum grant
(residents can shrink to their minimum at the next re-partition), and
*queued* otherwise.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.coschedule.allocator import grant_space, min_feasible_grant
from repro.faults.analytic import node_crash_term, surrogate_resilience
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext, resolve_context
from repro.search.engine import find_best_placement
from repro.util.errors import PlacementError
from repro.util.validation import require_positive_int

from repro.coschedule.requests import EnsembleRequest


class AdmissionAction(enum.Enum):
    """The three admission outcomes."""

    ACCEPT = "accept"
    QUEUE = "queue"
    REJECT = "reject"


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict, with its evidence.

    ``min_feasible_nodes`` is the smallest grant the spec fits on
    (None when it fits nowhere); ``feasible_placements`` counts the
    canonical placements at the request's cap; ``predicted_makespan``
    is the best-placement makespan used for the deadline test (None
    when no deadline applies or nothing fits); ``free_nodes`` is the
    headroom the controller saw (total minus resident minimum
    footprints).
    """

    request: str
    time: float
    action: AdmissionAction
    reason: str
    min_feasible_nodes: Optional[int]
    feasible_placements: int
    predicted_makespan: Optional[float]
    free_nodes: int

    def to_dict(self) -> dict:
        return {
            "request": self.request,
            "time": self.time,
            "action": self.action.value,
            "reason": self.reason,
            "min_feasible_nodes": self.min_feasible_nodes,
            "feasible_placements": self.feasible_placements,
            "predicted_makespan": self.predicted_makespan,
            "free_nodes": self.free_nodes,
        }


def decisions_digest(decisions: Sequence[AdmissionDecision]) -> str:
    """Content hash of a decision log (hex SHA-256).

    The canonical rendering (sorted keys, no whitespace, ``repr``
    floats) is the byte stream two runs must agree on for the
    determinism property to hold.
    """
    rendered = json.dumps(
        [d.to_dict() for d in decisions],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


class AdmissionController:
    """Stateless decision function over (request, headroom, clock).

    Parameters
    ----------
    total_nodes / cores_per_node:
        The cluster the stream shares.
    context:
        :class:`~repro.scheduler.context.PlanningContext` for the
        deadline probe's search. Its StageCache is the platform (a
        Cori-like one is built when absent; the co-scheduler passes
        its own).
    robust_rate / policy:
        When ``robust_rate`` > 0, the deadline probe prices the best
        placement through the node-crash robustness surrogate
        (``expected`` rather than failure-free makespan), with
        ``policy`` as the recovery policy.
    """

    def __init__(
        self,
        total_nodes: int,
        cores_per_node: int = 32,
        context: Optional[PlanningContext] = None,
        robust_rate: float = 0.0,
        policy: str = "retry",
    ) -> None:
        require_positive_int("total_nodes", total_nodes)
        require_positive_int("cores_per_node", cores_per_node)
        self.total_nodes = total_nodes
        self.cores_per_node = cores_per_node
        self._term = node_crash_term(robust_rate, policy)
        self._context = resolve_context(context)
        if self._term is not None:
            self._context = self._context.evolve(robustness=self._term)
        self._node_cores = self._context.cache.node_spec.cores
        # probe memos keyed by spec identity (the value keeps the spec
        # alive so ids are never recycled); memo hits only skip
        # recomputation of a deterministic function
        self._min_nodes: Dict[int, Tuple[EnsembleSpec, Optional[int]]] = {}
        self._best: Dict[
            Tuple[int, int], Tuple[EnsembleSpec, Optional[object]]
        ] = {}

    # -- probes --------------------------------------------------------------
    def grant_cap(self, request: EnsembleRequest) -> int:
        """The largest grant this request may receive."""
        if request.max_nodes is None:
            return self.total_nodes
        return min(request.max_nodes, self.total_nodes)

    def feasible_count(self, request: EnsembleRequest) -> int:
        """Placements the search engine scores at the request's grant
        cap (:func:`~repro.coschedule.allocator.grant_space`)."""
        return grant_space(
            request.spec,
            self.grant_cap(request),
            self.cores_per_node,
            self._node_cores,
        )

    def min_feasible_nodes(
        self, spec: EnsembleSpec, lo: int = 1, hi: Optional[int] = None
    ) -> Optional[int]:
        """Smallest grant in ``[lo, hi]`` the spec fits on, else None.

        The allocator's test (:func:`~repro.coschedule.allocator
        .min_feasible_grant`), memoized per spec.
        """
        hi = self.total_nodes if hi is None else min(hi, self.total_nodes)
        key = id(spec)
        memo = self._min_nodes.get(key)
        if memo is not None and memo[1] is not None and lo <= memo[1] <= hi:
            return memo[1]
        nodes = min_feasible_grant(
            spec, lo, hi, self.cores_per_node, self._node_cores
        )
        if nodes is not None:
            self._min_nodes[key] = (spec, nodes)
        return nodes

    def best_placement(self, spec: EnsembleSpec, nodes: int):
        """Memoized ``find_best_placement`` at one grant (None = infeasible)."""
        key = (id(spec), nodes)
        memo = self._best.get(key)
        if memo is not None:
            return memo[1]
        try:
            best, _ = find_best_placement(
                spec,
                nodes,
                self.cores_per_node,
                context=self._context,
            )
        except PlacementError:
            best = None
        self._best[key] = (spec, best)
        return best

    def predicted_makespan(
        self, request: EnsembleRequest
    ) -> Optional[float]:
        """Best-case completion seconds at the request's grant cap.

        With a configured failure rate this is the surrogate's
        *expected* makespan (the robustness term already degraded the
        search's choice; the expectation itself comes from re-pricing
        the winner), otherwise the failure-free analytic makespan.
        """
        best = self.best_placement(request.spec, self.grant_cap(request))
        if best is None:
            return None
        if self._term is None:
            return best.ensemble_makespan
        report = surrogate_resilience(
            request.spec,
            best.placement,
            self._term.model_for(best.placement),
            self._term.policy,
            stages=self._context.cache.predict(request.spec, best.placement),
        )
        return report.expected_makespan

    # -- the decision function ----------------------------------------------
    def decide(
        self,
        request: EnsembleRequest,
        free_nodes: int,
        now: float,
    ) -> AdmissionDecision:
        """Accept / queue / reject ``request`` given current headroom.

        ``free_nodes`` is the cluster total minus the sum of resident
        ensembles' minimum footprints — the most a re-partition could
        free without evicting anyone.
        """
        cap = self.grant_cap(request)
        min_nodes = self.min_feasible_nodes(
            request.spec, lo=request.min_nodes, hi=cap
        )
        feasible = self.feasible_count(request)
        if min_nodes is None:
            physical = ""
            if self.cores_per_node > self._node_cores:
                physical = f" of a {self._node_cores}-core node"
            return AdmissionDecision(
                request=request.name,
                time=now,
                action=AdmissionAction.REJECT,
                reason=(
                    f"infeasible: no placement of {request.spec.name!r} "
                    f"fits on any grant up to {cap} x "
                    f"{self.cores_per_node} cores{physical}"
                ),
                min_feasible_nodes=None,
                feasible_placements=feasible,
                predicted_makespan=None,
                free_nodes=free_nodes,
            )
        predicted = None
        if request.deadline is not None:
            predicted = self.predicted_makespan(request)
            if predicted is None or predicted > request.deadline:
                return AdmissionDecision(
                    request=request.name,
                    time=now,
                    action=AdmissionAction.REJECT,
                    reason=(
                        f"deadline unmeetable: best {cap}-node placement "
                        f"needs {predicted!r}s against a "
                        f"{request.deadline!r}s budget"
                    ),
                    min_feasible_nodes=min_nodes,
                    feasible_placements=feasible,
                    predicted_makespan=predicted,
                    free_nodes=free_nodes,
                )
        if min_nodes <= free_nodes:
            return AdmissionDecision(
                request=request.name,
                time=now,
                action=AdmissionAction.ACCEPT,
                reason=(
                    f"admitted: minimum grant {min_nodes} fits the "
                    f"{free_nodes}-node headroom"
                ),
                min_feasible_nodes=min_nodes,
                feasible_placements=feasible,
                predicted_makespan=predicted,
                free_nodes=free_nodes,
            )
        return AdmissionDecision(
            request=request.name,
            time=now,
            action=AdmissionAction.QUEUE,
            reason=(
                f"queued: minimum grant {min_nodes} exceeds the "
                f"{free_nodes}-node headroom"
            ),
            min_feasible_nodes=min_nodes,
            feasible_placements=feasible,
            predicted_makespan=predicted,
            free_nodes=free_nodes,
        )
