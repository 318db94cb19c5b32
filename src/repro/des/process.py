"""Generator-backed simulation processes.

A process is a Python generator that yields :class:`~repro.des.events.Event`
objects. When a yielded event triggers, the engine resumes the
generator with the event's value (or throws the event's exception).
A :class:`Process` is itself an event that triggers when the generator
returns, so processes can wait on each other by yielding them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.des.events import Event
from repro.util.errors import SimulationError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.engine import Environment


class Process(Event):
    """A running simulation process (and the event of its completion)."""

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ValidationError(
                f"process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Event | None = None
        # Bootstrap: resume once at the current instant.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)  # type: ignore[union-attr]
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def name(self) -> str:
        """The underlying generator's name (best-effort)."""
        return getattr(
            self._generator, "__name__", type(self._generator).__name__
        )

    def __repr__(self) -> str:
        if not self.is_alive:
            return f"<Process {self.name} {self._state_name()}>"
        waiting = ""
        if self._waiting_on is not None:
            waiting = f" waiting_on={type(self._waiting_on).__name__}"
        return f"<Process {self.name} alive at t={self.env.now:g}{waiting}>"

    # -- engine plumbing -----------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process yielded a non-event: {target!r} "
                    "(yield Timeout/Event/Process instances)"
                )
            )
            return
        if target.env is not self.env:
            self.fail(SimulationError("yielded event belongs to another Environment"))
            return
        self._waiting_on = target
        if target.processed:
            # Already done: resume at the current instant via a kicker event.
            kicker = Event(self.env)
            kicker._value = target._value
            kicker._exception = target._exception
            kicker.callbacks.append(self._resume)  # type: ignore[union-attr]
            kicker._triggered = True
            self.env.schedule(kicker)
        else:
            assert target.callbacks is not None
            target.callbacks.append(self._resume)
