"""The event-driven co-scheduling loop on the DES clock.

:class:`CoScheduler` drives a request stream through admission and
allocation on a simulated clock. Three event kinds exist, processed in
deterministic order (time, then finish < membership < arrival, then
insertion sequence):

- **arrival** — the :class:`~repro.coschedule.admission
  .AdmissionController` decides accept/queue/reject; acceptance makes
  the request resident and triggers a re-partition;
- **finish** — the resident completes, frees its node block, dequeues
  any queued requests that now fit (deadline budgets are re-checked
  against time spent queued), and triggers a re-partition;
- **membership** — an elastic join/leave rewrites the resident's spec
  and triggers a re-partition; the affected ensemble's surviving
  members are migrated with costs billed through the DTL (the PR-8
  :class:`~repro.reschedule.migration.MigrationCostModel` — put on the
  source, get on the destination, the same price list the
  steady-state io model uses).

Progress accounting is analytic: a resident completes work at rate
``1 / makespan(grant)`` and migration bills pause it — so the whole
schedule is a closed-form function of the stream, byte-identical
across runs (``CoScheduleResult.digest()`` is the determinism gate).

Cluster utilization is the integral of *distinct used nodes* over time
divided by ``total_nodes * horizon`` — the same metric
:func:`~repro.coschedule.scenarios.fifo_exclusive_schedule` reports
for the baseline, making the two directly comparable.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.placement import (
    EnsemblePlacement,
    MemberPlacement,
    placement_to_dict,
)
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext, resolve_context
from repro.scheduler.objectives import PlacementScore
from repro.util.errors import ValidationError
from repro.util.registry import count

from repro.coschedule.admission import (
    AdmissionAction,
    AdmissionController,
    AdmissionDecision,
    decisions_digest,
)
from repro.coschedule.allocator import (
    ClusterAllocator,
    ClusterObjective,
    ResidentWorkload,
)
from repro.coschedule.requests import (
    EnsembleRequest,
    MembershipEvent,
    validate_stream,
)


@dataclass(frozen=True)
class TimelineEvent:
    """One audited loop event.

    ``allocation`` events carry each resident's physical node block
    and used-node count at that instant — the evidence the
    conservation property checks.
    """

    time: float
    kind: str
    detail: dict

    def to_dict(self) -> dict:
        return {"time": self.time, "kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class EnsembleCompletion:
    """One finished ensemble: the audited end of its residency."""

    name: str
    admitted_at: float
    started_at: float
    finished_at: float
    deadline_at: Optional[float]
    met_deadline: Optional[bool]
    nodes_granted: int
    migration_cost: float
    migrations: int
    score: PlacementScore
    reason: str = "completed"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "admitted_at": self.admitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deadline_at": self.deadline_at,
            "met_deadline": self.met_deadline,
            "nodes_granted": self.nodes_granted,
            "migration_cost": self.migration_cost,
            "migrations": self.migrations,
            "reason": self.reason,
            "score": {
                "objective": self.score.objective,
                "utility": self.score.utility,
                "ensemble_makespan": self.score.ensemble_makespan,
                "num_nodes": self.score.num_nodes,
                "member_indicators": list(self.score.member_indicators),
                "robust_penalty": self.score.robust_penalty,
                "placement": placement_to_dict(self.score.placement),
            },
        }


@dataclass(frozen=True)
class CoScheduleResult:
    """Everything one stream produced, JSON-ready and digestible."""

    total_nodes: int
    cores_per_node: int
    objective: ClusterObjective
    decisions: Tuple[AdmissionDecision, ...]
    completions: Tuple[EnsembleCompletion, ...]
    timeline: Tuple[TimelineEvent, ...]
    makespan: float
    utilization: float

    @property
    def admitted(self) -> Tuple[str, ...]:
        """Names that were ever admitted (directly or via dequeue)."""
        return tuple(
            d.request
            for d in self.decisions
            if d.action is AdmissionAction.ACCEPT
        )

    @property
    def rejected(self) -> Tuple[str, ...]:
        return tuple(
            d.request
            for d in self.decisions
            if d.action is AdmissionAction.REJECT
        )

    def completion(self, name: str) -> EnsembleCompletion:
        for candidate in self.completions:
            if candidate.name == name:
                return candidate
        raise ValidationError(f"no completion recorded for {name!r}")

    def decisions_digest(self) -> str:
        return decisions_digest(self.decisions)

    def to_dict(self) -> dict:
        return {
            "total_nodes": self.total_nodes,
            "cores_per_node": self.cores_per_node,
            "objective": self.objective.to_dict(),
            "decisions": [d.to_dict() for d in self.decisions],
            "completions": [c.to_dict() for c in self.completions],
            "timeline": [t.to_dict() for t in self.timeline],
            "makespan": self.makespan,
            "utilization": self.utilization,
            "decisions_digest": self.decisions_digest(),
        }

    def digest(self) -> str:
        """Content hash of the full schedule (hex SHA-256).

        Two runs of the same stream must agree byte-for-byte here —
        the determinism gate of ``scripts/bench_coschedule.py``.
        """
        rendered = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@dataclass
class _Resident:
    """Mutable residency record (internal to the loop)."""

    request: EnsembleRequest
    spec: EnsembleSpec
    admitted_at: float
    started_at: float
    last_update: float
    remaining: float = 1.0
    pending_delay: float = 0.0
    duration: float = 0.0
    score: Optional[PlacementScore] = None
    physical: Optional[EnsemblePlacement] = None
    member_nodes: Dict[str, MemberPlacement] = field(default_factory=dict)
    nodes_granted: int = 0
    migration_cost: float = 0.0
    migrations: int = 0
    generation: int = 0

    def advance(self, now: float) -> None:
        """Serve migration delay, then burn work, up to ``now``."""
        elapsed = now - self.last_update
        if elapsed <= 0.0:
            self.last_update = now
            return
        served = min(self.pending_delay, elapsed)
        self.pending_delay -= served
        elapsed -= served
        if elapsed > 0.0 and self.duration > 0.0:
            self.remaining = max(
                0.0, self.remaining - elapsed / self.duration
            )
        self.last_update = now

    @property
    def finish_time(self) -> float:
        return (
            self.last_update
            + self.pending_delay
            + self.remaining * self.duration
        )


# event-kind ranks: at one instant, completions free nodes before
# membership changes apply, and both precede new arrivals
_RANK = {"finish": 0, "membership": 1, "arrival": 2}


class CoScheduler:
    """One cluster, one stream, one deterministic schedule.

    Parameters
    ----------
    total_nodes / cores_per_node:
        The shared cluster.
    objective:
        Cluster objective the allocator maximizes (default: pure
        weighted sum of per-ensemble F(P)).
    context:
        Base :class:`~repro.scheduler.context.PlanningContext`. One
        StageCache (the context's, or a Cori-like one) is the platform
        of admission probes and every allocator search, and its DTL
        prices migrations.
    robust_rate / policy:
        Forwarded to the admission controller's deadline probe.
    max_partitions:
        Grant-lattice bound forwarded to the allocator.
    """

    def __init__(
        self,
        total_nodes: int,
        cores_per_node: int = 32,
        objective: Optional[ClusterObjective] = None,
        context: Optional[PlanningContext] = None,
        robust_rate: float = 0.0,
        policy: str = "retry",
        max_partitions: int = 20_000,
    ) -> None:
        base = resolve_context(context)
        self.total_nodes = total_nodes
        self.cores_per_node = cores_per_node
        self.objective = objective or ClusterObjective()
        self.admission = AdmissionController(
            total_nodes,
            cores_per_node,
            context=base,
            robust_rate=robust_rate,
            policy=policy,
        )
        self.allocator = ClusterAllocator(
            total_nodes,
            cores_per_node,
            objective=self.objective,
            context=base,
            max_partitions=max_partitions,
        )
        from repro.reschedule.migration import MigrationCostModel

        self._cost_model = MigrationCostModel(base.cache.dtl)

    # -- the run -------------------------------------------------------------
    def run(
        self, requests: Sequence[EnsembleRequest]
    ) -> CoScheduleResult:
        """Schedule the whole stream; return the audited result."""
        stream = validate_stream(tuple(requests))
        count("coschedule", "streams")

        events: List[Tuple[float, int, int, str, object]] = []
        seq = 0

        def push(time: float, kind: str, payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (time, _RANK[kind], seq, kind, payload))
            seq += 1

        stream_index = {r.name: i for i, r in enumerate(stream)}
        for request in sorted(
            stream, key=lambda r: (r.arrival_time, stream_index[r.name])
        ):
            push(request.arrival_time, "arrival", request)

        residents: Dict[str, _Resident] = {}
        order: List[str] = []  # residency order = allocator input order
        queue: List[Tuple[int, float, int, EnsembleRequest]] = []
        decisions: List[AdmissionDecision] = []
        completions: List[EnsembleCompletion] = []
        timeline: List[TimelineEvent] = []
        busy_node_seconds = 0.0
        used_now = 0
        last_clock = 0.0
        horizon = 0.0

        def headroom() -> int:
            """Cluster nodes a re-partition could free for a newcomer."""
            taken = 0
            for name in order:
                resident = residents[name]
                floor = self.admission.min_feasible_nodes(
                    resident.spec,
                    lo=resident.request.min_nodes,
                    hi=self.admission.grant_cap(resident.request),
                )
                taken += floor if floor is not None else self.total_nodes
            return self.total_nodes - taken

        def integrate_to(now: float) -> None:
            nonlocal busy_node_seconds, last_clock
            if now > last_clock:
                busy_node_seconds += used_now * (now - last_clock)
                last_clock = now

        def repartition(now: float, reason: str) -> None:
            nonlocal used_now
            for name in order:
                residents[name].advance(now)
            if not order:
                used_now = 0
                timeline.append(
                    TimelineEvent(
                        time=now,
                        kind="allocation",
                        detail={"reason": reason, "entries": []},
                    )
                )
                return
            workloads = [
                ResidentWorkload(
                    name=name,
                    spec=residents[name].spec,
                    weight=residents[name].request.weight,
                    remaining=residents[name].remaining,
                    deadline_at=residents[name].request.deadline_at,
                    min_nodes=residents[name].request.min_nodes,
                    max_nodes=residents[name].request.max_nodes,
                )
                for name in order
            ]
            allocation = self.allocator.allocate(workloads, now=now)
            count("coschedule", "repartitions")
            entries_detail = []
            for name in order:
                resident = residents[name]
                entry = allocation.entry(name)
                new_physical = entry.physical_placement(self.total_nodes)
                cost, moves = self._migration(resident, new_physical)
                if moves:
                    resident.pending_delay += cost
                    resident.migration_cost += cost
                    resident.migrations += moves
                    count("coschedule", "migrations", moves)
                resident.score = entry.score
                resident.physical = new_physical
                resident.member_nodes = {
                    member.name: mp
                    for member, mp in zip(
                        resident.spec.members, new_physical.members
                    )
                }
                resident.duration = entry.score.ensemble_makespan
                resident.nodes_granted = entry.num_nodes
                resident.generation += 1
                push(
                    resident.finish_time,
                    "finish",
                    (name, resident.generation),
                )
                entries_detail.append(
                    {
                        "name": name,
                        "node_offset": entry.node_offset,
                        "num_nodes": entry.num_nodes,
                        "used_nodes": len(new_physical.used_nodes),
                        "used_node_list": sorted(new_physical.used_nodes),
                        "utility": entry.score.utility,
                        "migration_cost": cost,
                        "finish_time": resident.finish_time,
                    }
                )
            used_now = sum(
                len(residents[name].physical.used_nodes) for name in order
            )
            timeline.append(
                TimelineEvent(
                    time=now,
                    kind="allocation",
                    detail={
                        "reason": reason,
                        "value": allocation.value,
                        "exhaustive": allocation.exhaustive,
                        "entries": entries_detail,
                    },
                )
            )

        def admit(request: EnsembleRequest, now: float) -> None:
            residents[request.name] = _Resident(
                request=request,
                spec=request.spec,
                admitted_at=now,
                started_at=now,
                last_update=now,
            )
            order.append(request.name)
            for event in request.membership:
                push(
                    now + event.offset,
                    "membership",
                    (request.name, event),
                )

        def complete(name: str, now: float, reason: str) -> None:
            resident = residents.pop(name)
            order.remove(name)
            deadline_at = resident.request.deadline_at
            completions.append(
                EnsembleCompletion(
                    name=name,
                    admitted_at=resident.admitted_at,
                    started_at=resident.started_at,
                    finished_at=now,
                    deadline_at=deadline_at,
                    met_deadline=(
                        None if deadline_at is None else now <= deadline_at
                    ),
                    nodes_granted=resident.nodes_granted,
                    migration_cost=resident.migration_cost,
                    migrations=resident.migrations,
                    score=resident.score,
                    reason=reason,
                )
            )
            count("coschedule", "completions")

        def drain_queue(now: float) -> bool:
            """Admit every queued request that now fits; True if any did."""
            admitted_any = False
            # highest priority first, then arrival, then stream order
            queue.sort(key=lambda item: (-item[0], item[1], item[2]))
            still_waiting = []
            for prio, arrival, index, request in queue:
                free = headroom()
                floor = self.admission.min_feasible_nodes(
                    request.spec,
                    lo=request.min_nodes,
                    hi=self.admission.grant_cap(request),
                )
                feasible = self.admission.feasible_count(request)
                deadline_at = request.deadline_at
                if deadline_at is not None:
                    predicted = self.admission.predicted_makespan(request)
                    if predicted is None or now + predicted > deadline_at:
                        decisions.append(
                            AdmissionDecision(
                                request=request.name,
                                time=now,
                                action=AdmissionAction.REJECT,
                                reason=(
                                    f"deadline expired while queued: "
                                    f"{now!r}s + best {predicted!r}s "
                                    f"overruns {deadline_at!r}s"
                                ),
                                min_feasible_nodes=floor,
                                feasible_placements=feasible,
                                predicted_makespan=predicted,
                                free_nodes=free,
                            )
                        )
                        count("coschedule", "rejected")
                        continue
                if floor is not None and floor <= free:
                    decisions.append(
                        AdmissionDecision(
                            request=request.name,
                            time=now,
                            action=AdmissionAction.ACCEPT,
                            reason=(
                                f"dequeued: minimum grant {floor} fits "
                                f"the {free}-node headroom"
                            ),
                            min_feasible_nodes=floor,
                            feasible_placements=feasible,
                            predicted_makespan=None,
                            free_nodes=free,
                        )
                    )
                    count("coschedule", "dequeued")
                    count("coschedule", "admitted")
                    admit(request, now)
                    admitted_any = True
                else:
                    still_waiting.append((prio, arrival, index, request))
            queue[:] = still_waiting
            return admitted_any

        while events:
            now, _, _, kind, payload = heapq.heappop(events)
            integrate_to(now)
            if kind == "arrival":
                request = payload
                count("coschedule", "arrivals")
                decision = self.admission.decide(request, headroom(), now)
                decisions.append(decision)
                if decision.action is AdmissionAction.ACCEPT:
                    count("coschedule", "admitted")
                    admit(request, now)
                    repartition(now, f"arrival:{request.name}")
                elif decision.action is AdmissionAction.QUEUE:
                    count("coschedule", "queued")
                    queue.append(
                        (
                            request.priority,
                            request.arrival_time,
                            stream_index[request.name],
                            request,
                        )
                    )
                else:
                    count("coschedule", "rejected")
                horizon = max(horizon, now)
            elif kind == "finish":
                name, generation = payload
                resident = residents.get(name)
                if resident is None or resident.generation != generation:
                    continue  # stale finish from a superseded partition
                resident.advance(now)
                if (
                    resident.remaining > 1e-12
                    or resident.pending_delay > 0.0
                ):  # pragma: no cover - defensive; repartition always
                    continue  # pushes a fresh finish for the new state
                complete(name, now, "completed")
                horizon = max(horizon, now)
                drain_queue(now)
                repartition(now, f"finish:{name}")
            elif kind == "membership":
                name, event = payload
                resident = residents.get(name)
                if resident is None:
                    timeline.append(
                        TimelineEvent(
                            time=now,
                            kind="membership-skipped",
                            detail={
                                "name": name,
                                "action": event.action,
                                "member": event.member_name,
                            },
                        )
                    )
                    continue
                count("coschedule", "membership_events")
                resident.advance(now)
                emptied = self._apply_membership(resident, event)
                timeline.append(
                    TimelineEvent(
                        time=now,
                        kind="membership",
                        detail={
                            "name": name,
                            "action": event.action,
                            "member": event.member_name,
                            "members_now": (
                                0 if emptied else len(resident.spec.members)
                            ),
                        },
                    )
                )
                horizon = max(horizon, now)
                if emptied:
                    complete(name, now, "all members left")
                    drain_queue(now)
                    repartition(now, f"membership-drain:{name}")
                else:
                    repartition(now, f"membership:{name}")

        integrate_to(horizon)
        utilization = (
            busy_node_seconds / (self.total_nodes * horizon)
            if horizon > 0.0
            else 0.0
        )
        return CoScheduleResult(
            total_nodes=self.total_nodes,
            cores_per_node=self.cores_per_node,
            objective=self.objective,
            decisions=tuple(decisions),
            completions=tuple(completions),
            timeline=tuple(timeline),
            makespan=horizon,
            utilization=utilization,
        )

    # -- elastic membership --------------------------------------------------
    def _apply_membership(
        self, resident: _Resident, event: MembershipEvent
    ) -> bool:
        """Rewrite the resident's spec; True when the ensemble emptied."""
        members = list(resident.spec.members)
        if event.action == "join":
            if any(m.name == event.member_name for m in members):
                raise ValidationError(
                    f"member {event.member_name!r} already in "
                    f"{resident.spec.name!r}"
                )
            members.append(event.member)
        else:
            if not any(m.name == event.member_name for m in members):
                raise ValidationError(
                    f"member {event.member_name!r} not in "
                    f"{resident.spec.name!r}"
                )
            members = [m for m in members if m.name != event.member_name]
        if not members:
            return True
        resident.spec = EnsembleSpec(resident.spec.name, tuple(members))
        return False

    def _migration(
        self, resident: _Resident, new_physical: EnsemblePlacement
    ) -> Tuple[float, int]:
        """DTL-priced moves of surviving members, old → new placement.

        Members are paired *by name* between the resident's previous
        physical placement and the new one — a joining member has no
        state to move yet and a departed member took its state along,
        so only survivors are priced.
        """
        if resident.physical is None:
            return 0.0, 0
        common_specs = []
        old_places = []
        new_places = []
        for member, new_mp in zip(
            resident.spec.members, new_physical.members
        ):
            old_mp = resident.member_nodes.get(member.name)
            if old_mp is not None:
                common_specs.append(member)
                old_places.append(old_mp)
                new_places.append(new_mp)
        if not common_specs:
            return 0.0, 0
        common = EnsembleSpec(resident.spec.name, tuple(common_specs))
        plan = self._cost_model.plan_moves(
            common,
            EnsemblePlacement(
                num_nodes=self.total_nodes, members=tuple(old_places)
            ),
            EnsemblePlacement(
                num_nodes=self.total_nodes, members=tuple(new_places)
            ),
        )
        return plan.total_cost, len(plan.moves)
