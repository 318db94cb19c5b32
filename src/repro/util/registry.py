"""Work counters that belong to their owner, not to the process.

The engines report their work with :func:`count`, which adds to the
:class:`Counters` that the calling context entered with
:func:`counting`, and to nothing outside one. A new thread starts with
an empty context: run its target through
``contextvars.copy_context().run`` to count into the caller's registry.

>>> counters = Counters(jobs=("started", "done"))
>>> count("jobs", "started")  # no registry entered: dropped
>>> with counting(counters):
...     count("jobs", "done", 2)
>>> counters.snapshot()
{'jobs': {'started': 0, 'done': 2}}
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import Dict, Iterator, Optional, Sequence


class Counters:
    """Thread-safe integer counters in named sections, each declared
    with its keys: they read 0 before their first count and keep their
    order. Counting an undeclared section or key raises ``KeyError``."""

    def __init__(self, **sections: Sequence[str]) -> None:
        self._lock = threading.Lock()
        self._sections: Dict[str, Dict[str, int]] = {
            name: dict.fromkeys(keys, 0) for name, keys in sections.items()
        }

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A copy of every section."""
        with self._lock:
            return {name: dict(keys) for name, keys in self._sections.items()}


_active: contextvars.ContextVar[Optional[Counters]] = contextvars.ContextVar(
    "active_registry", default=None
)


def count(section: str, key: str, n: int = 1) -> None:
    """Add ``n`` to ``section.key`` of the registry being counted into."""
    counters = _active.get()
    if counters is not None:
        with counters._lock:
            counters._sections[section][key] += n


@contextlib.contextmanager
def counting(counters: Counters) -> Iterator[Counters]:
    """Send every :func:`count` of this context to ``counters``."""
    token = _active.set(counters)
    try:
        yield counters
    finally:
        _active.reset(token)
