"""Event primitives for the discrete-event engine.

An :class:`Event` moves through three states:

``pending`` -> ``triggered`` (a value or an exception has been set and
the event is scheduled) -> ``processed`` (its callbacks have run).

Events are single-shot: triggering a triggered event raises
:class:`~repro.util.errors.SimulationError`. Every event class declares
``__slots__``: a run creates one event per timed stage, so each is a
fixed-layout object rather than a dict-backed one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.util.errors import SimulationError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.engine import Environment


class Event:
    """A one-shot occurrence in virtual time.

    Callbacks receive the event itself; processes register themselves
    as callbacks when they yield an event.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_triggered")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False

    # -- state queries ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value/exception has been assigned."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the callback list is retired)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The event's value (raises the failure exception if it failed)."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- state transitions --------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self._triggered = True
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if not isinstance(exception, BaseException):
            raise ValidationError(f"fail() needs an exception, got {exception!r}")
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._exception = exception
        self._triggered = True
        self.env.schedule(self)
        return self

    def _state_name(self) -> str:
        if self.processed:
            return "processed"
        if self._triggered:
            return "triggered"
        return "pending"

    def __repr__(self) -> str:
        detail = ""
        if self._triggered:
            if self._exception is not None:
                detail = f" exception={type(self._exception).__name__}"
            elif self._value is not None:
                value = repr(self._value)
                if len(value) > 40:
                    value = value[:37] + "..."
                detail = f" value={value}"
        return f"<{type(self).__name__} {self._state_name()}{detail}>"


class Timeout(Event):
    """An event that triggers after a fixed virtual-time delay.

    The delay is validated where it is scheduled
    (:meth:`~repro.des.engine.Environment.schedule`): a negative, NaN
    or infinite delay raises :class:`~repro.util.errors.ValidationError`
    here, at construction.
    """

    __slots__ = ("delay", "due")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        super().__init__(env)
        self._value = value
        self._triggered = True  # scheduled immediately at construction
        self.delay = delay
        self.due = env.schedule(self, delay)

    def __repr__(self) -> str:
        return (
            f"<Timeout delay={self.delay:g} due=t{self.due:g} "
            f"{self._state_name()}>"
        )


class AllOf(Event):
    """Triggers when *all* constituent events have triggered.

    Its value maps each constituent's index to that event's value.
    Fails fast if any constituent fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: List[Event] = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise ValidationError("all events must share one Environment")
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({i: ev._value for i, ev in enumerate(self.events)})
