"""Ensemble requests: the admission-facing unit of the co-scheduler.

A cluster backend does not see one ensemble on one allocation — it
sees a *stream* of :class:`EnsembleRequest` records, each carrying its
own spec, arrival time, completion deadline, and priority (the
follow-up paper's framing; see ``docs/COSCHEDULING.md``). Requests may
also declare *elastic membership*: a sorted tuple of
:class:`MembershipEvent` records describing members that join or leave
after the ensemble starts running, which the co-scheduling loop turns
into mid-run re-partitions with DTL-priced migrations.

Everything here is a frozen value object validated at construction, so
a request stream is immutable input: the same stream always produces
the same admission decisions and the same schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.runtime.spec import EnsembleSpec, MemberSpec
from repro.util.errors import ValidationError
from repro.util.validation import (
    require_non_negative_int,
    require_positive_int,
)

#: Valid membership-event actions.
MEMBERSHIP_ACTIONS: Tuple[str, ...] = ("join", "leave")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class MembershipEvent:
    """One elastic-membership change, relative to the ensemble's start.

    ``offset`` is in DES seconds after the ensemble begins running (not
    after arrival: a queued ensemble's membership clock starts when it
    is actually placed). A ``"join"`` carries the full
    :class:`~repro.runtime.spec.MemberSpec` to add; a ``"leave"`` names
    the member to drop.
    """

    offset: float
    action: str
    member_name: str
    member: Optional[MemberSpec] = None

    def __post_init__(self) -> None:
        _require_finite("offset", self.offset)
        if self.offset < 0.0:
            raise ValidationError(
                f"membership offset must be >= 0, got {self.offset!r}"
            )
        if self.action not in MEMBERSHIP_ACTIONS:
            raise ValidationError(
                f"unknown membership action {self.action!r}; "
                f"valid: {list(MEMBERSHIP_ACTIONS)}"
            )
        if not self.member_name:
            raise ValidationError("membership event needs a member_name")
        if self.action == "join":
            if self.member is None:
                raise ValidationError(
                    f"join of {self.member_name!r} needs the MemberSpec "
                    f"to add"
                )
            if self.member.name != self.member_name:
                raise ValidationError(
                    f"join member_name {self.member_name!r} does not match "
                    f"the attached spec {self.member.name!r}"
                )
        elif self.member is not None:
            raise ValidationError(
                f"leave of {self.member_name!r} must not attach a "
                f"MemberSpec"
            )


@dataclass(frozen=True)
class EnsembleRequest:
    """One ensemble asking for cluster residency.

    Parameters
    ----------
    name:
        Stream-unique label (job ids, decisions, and completions all
        key on it).
    spec:
        The ensemble to place (its *initial* membership; see
        ``membership``).
    arrival_time:
        DES time the request enters the admission queue.
    deadline:
        Optional completion budget in seconds *from arrival*; the
        admission controller rejects requests whose best full-cluster
        placement cannot meet it, and the cluster objective's
        deadline-miss penalty prices predicted lateness.
    priority:
        Non-negative integer weight class; ``weight``
        (``1 + priority``) scales this ensemble's F(P) in the
        weighted-sum objective, and queued requests dequeue
        highest-priority-first.
    min_nodes / max_nodes:
        Bounds on the node grant the allocator may hand this ensemble.
    membership:
        Elastic-membership events, non-decreasing in ``offset``.
    """

    name: str
    spec: EnsembleSpec
    arrival_time: float = 0.0
    deadline: Optional[float] = None
    priority: int = 0
    min_nodes: int = 1
    max_nodes: Optional[int] = None
    membership: Tuple[MembershipEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("request name must be non-empty")
        _require_finite("arrival_time", self.arrival_time)
        if self.arrival_time < 0.0:
            raise ValidationError(
                f"arrival_time must be >= 0, got {self.arrival_time!r}"
            )
        if self.deadline is not None:
            _require_finite("deadline", self.deadline)
            if self.deadline <= 0.0:
                raise ValidationError(
                    f"deadline must be > 0 seconds, got {self.deadline!r}"
                )
        require_non_negative_int("priority", self.priority)
        require_positive_int("min_nodes", self.min_nodes)
        if self.max_nodes is not None:
            require_positive_int("max_nodes", self.max_nodes)
            if self.max_nodes < self.min_nodes:
                raise ValidationError(
                    f"max_nodes ({self.max_nodes}) < min_nodes "
                    f"({self.min_nodes})"
                )
        if not isinstance(self.membership, tuple):
            object.__setattr__(self, "membership", tuple(self.membership))
        offsets = [event.offset for event in self.membership]
        if offsets != sorted(offsets):
            raise ValidationError(
                f"membership events of {self.name!r} must be sorted by "
                f"offset, got {offsets}"
            )

    @property
    def weight(self) -> float:
        """This ensemble's weight in the weighted-sum objective."""
        return 1.0 + float(self.priority)

    @property
    def deadline_at(self) -> Optional[float]:
        """Absolute DES time the deadline expires (None when unset)."""
        if self.deadline is None:
            return None
        return self.arrival_time + self.deadline


def validate_stream(
    requests: Tuple[EnsembleRequest, ...]
) -> Tuple[EnsembleRequest, ...]:
    """Check stream-level invariants; return the stream unchanged.

    Names must be unique (decisions and completions key on them); the
    stream itself need not be arrival-sorted — the event loop sorts.
    """
    seen = set()
    for request in requests:
        if request.name in seen:
            raise ValidationError(
                f"duplicate request name {request.name!r} in stream"
            )
        seen.add(request.name)
    return tuple(requests)
