"""A from-scratch discrete-event simulation (DES) engine.

This subpackage provides the execution substrate for the workflow
ensemble runtime (:mod:`repro.runtime`). It follows the classic
process-interaction style (as popularized by SimPy), sized to the
executor's synchronous coupling protocol:

- an :class:`~repro.des.engine.Environment` owns virtual time and a
  time-ordered event queue;
- *processes* are Python generators that ``yield`` events and are
  resumed when those events trigger;
- one-shot :class:`~repro.des.events.Event` handoffs,
  :class:`~repro.des.events.Timeout` delays and
  :class:`~repro.des.events.AllOf` joins express the per-step
  write/read coupling.

The engine is deterministic: simultaneous events are ordered by
(time, insertion id), so repeated runs of the same program produce
identical traces.
"""

from repro.des.engine import Environment
from repro.des.events import AllOf, Event, Timeout
from repro.des.process import Process

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
]
