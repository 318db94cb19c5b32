"""Counted-capacity resources with FIFO queuing.

:class:`Resource` models a pool of interchangeable units. In
congestion-aware runs the executor holds one unit-capacity resource per
node NIC, so remote reads from one producer node serialize. Processes ``yield resource.request(n)`` to acquire
``n`` units and call ``resource.release(request)`` to return them.
Grants are strictly FIFO: a large request at the head of the queue
blocks later, smaller ones (no backfilling), which keeps contention
effects easy to reason about.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.des.events import Event
from repro.util.errors import SimulationError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.engine import Environment


class Request(Event):
    """A pending or granted claim on ``amount`` units of a resource."""

    def __init__(self, resource: "Resource", amount: int) -> None:
        if isinstance(amount, bool) or not isinstance(amount, int) or amount <= 0:
            raise ValidationError(f"request amount must be a positive int: {amount!r}")
        if amount > resource.capacity:
            raise ValidationError(
                f"request for {amount} exceeds capacity {resource.capacity}"
            )
        super().__init__(resource.env)
        self.resource = resource
        self.amount = amount
        self.granted = False


class Resource:
    """A pool of ``capacity`` interchangeable units."""

    def __init__(self, env: "Environment", capacity: int, name: str = "") -> None:
        if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity <= 0:
            raise ValidationError(f"capacity must be a positive int: {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting to be granted."""
        return len(self._waiters)

    def request(self, amount: int = 1) -> Request:
        """Create a request for ``amount`` units; yield it to wait."""
        req = Request(self, amount)
        self._waiters.append(req)
        self._grant_waiters()
        return req

    def release(self, request: Request) -> None:
        """Return the units held by a granted request."""
        if not request.granted:
            raise SimulationError("release() on a request that was never granted")
        if request.resource is not self:
            raise SimulationError("request belongs to a different resource")
        request.granted = False
        self._in_use -= request.amount
        if self._in_use < 0:  # pragma: no cover - defensive
            raise SimulationError(f"resource {self.name!r} over-released")
        self._grant_waiters()

    # -- internals --------------------------------------------------------------
    def _grant_waiters(self) -> None:
        while self._waiters:
            head = self._waiters[0]
            if head.amount > self.capacity - self._in_use:
                break  # strict FIFO: head blocks everything behind it
            self._waiters.popleft()
            self._in_use += head.amount
            head.granted = True
            head.succeed(head)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Resource(name={self.name!r}, capacity={self.capacity}, "
            f"in_use={self._in_use}, queued={len(self._waiters)})"
        )
