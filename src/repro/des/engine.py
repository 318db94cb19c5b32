"""The discrete-event simulation environment (clock + event queue).

:class:`Environment` owns virtual time. Events are scheduled into a
binary heap keyed on ``(time, sequence)``; the sequence number makes
scheduling stable, so two runs of the same simulation program produce
byte-identical traces. Every event reaches the heap through
:meth:`Environment.schedule`, which rejects a negative or non-finite
delay where the event is created, so the clock only ever holds finite
times and never runs backwards.

The executor's coupling protocol (``W_i`` before ``R_i`` before
``W_{i+1}``, no buffering) needs only these primitives. Per step, the
writer triggers a one-shot ``written`` event; each reader waits on it,
reads, and triggers its own ``read`` event; and the writer joins that
step's reads with one :meth:`Environment.all_of` before its next write,
as ``repro.runtime.executor`` couples a simulation to its analyses:

>>> env = Environment()
>>> steps, log = 2, []
>>> written = [env.event() for _ in range(steps)]
>>> read = [[env.event(), env.event()] for _ in range(steps)]
>>> joined = [env.all_of(events) for events in read]
>>> def writer():
...     for i in range(steps):
...         yield env.timeout(2.0)  # compute step i
...         if i:
...             yield joined[i - 1]  # every R_{i-1} before W_i
...         log.append((env.now, "W", i))
...         written[i].succeed(i)
>>> def reader(j, cost):
...     for i in range(steps):
...         yield written[i]
...         yield env.timeout(cost)
...         log.append((env.now, f"R{j}", i))
...         read[i][j].succeed(i)
>>> _ = env.process(writer())
>>> _ = [env.process(reader(j, cost)) for j, cost in enumerate((1.0, 3.0))]
>>> env.run()
>>> for entry in log:
...     print(*entry)
2.0 W 0
3.0 R0 0
5.0 R1 0
5.0 W 1
6.0 R0 1
8.0 R1 1
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Tuple

from repro.des.events import AllOf, Event, Timeout
from repro.des.process import Process
from repro.util.errors import ValidationError


class Environment:
    """A single-threaded discrete-event simulation environment.

    The clock starts at 0.0; :meth:`run` processes events until the
    queue is empty.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._ids = itertools.count()

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- event factories --------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a process from a generator of events."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when every event in ``events`` has."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> float:
        """Insert ``event`` into the queue ``delay`` seconds from now.

        The one routine that pushes events, and the one place a delay is
        validated: a negative, NaN or infinite ``delay`` raises
        :class:`~repro.util.errors.ValidationError`. Returns the time
        the event is due.

        >>> Environment().timeout(float("nan"))
        Traceback (most recent call last):
        ...
        repro.util.errors.ValidationError: delay must be finite and >= 0, got nan
        """
        if not 0.0 <= delay < math.inf:  # False for NaN too
            raise ValidationError(f"delay must be finite and >= 0, got {delay!r}")
        due = self._now + delay
        heappush(self._queue, (due, next(self._ids), event))
        return due

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it.

        Delays are finite and non-negative, so the popped time is never
        before the clock.
        """
        self._now, _eid, event = heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

    def run(self) -> None:
        """Run the simulation until the event queue is exhausted."""
        queue = self._queue
        while queue:
            self.step()
