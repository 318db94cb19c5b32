"""LRU result cache keyed by the canonical request digest.

Placement queries repeat heavily in a broker setting — every member of
a campaign asks for the same (platform, ensemble, objective,
fault-model) plan — so finished result payloads are cached under their
request's :func:`~repro.service.schemas.canonical_digest`. A repeated
query is then an O(1) dictionary lookup that never reaches a worker;
``scripts/bench_service.py`` records the measured speedup (>= 10x
floor) in ``BENCH_service.json``.

The cache stores the JSON-ready result payload (plain dicts/lists/
floats), so a hit returns exactly the bytes-equivalent payload a
worker produced — bit-identical floats, as the determinism tests
assert. Eviction is least-recently-*used* (hits refresh recency), and
the hit/miss/eviction counters feed ``GET /stats``.

The HTTP server reuses the same LRU, at the same capacity, as its
memo of parsed ``POST /jobs`` bodies
(:attr:`~repro.service.api.PlacementServer.body_memo`), keyed by the
SHA-256 of the body bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.util.validation import require_positive_int


class ResultCache:
    """Thread-safe LRU of result payloads, keyed by request digest.

    A value may be any object; the cache never copies or inspects it.

    Parameters
    ----------
    max_entries:
        Capacity; the least recently used entry is evicted on
        overflow. A positive integer.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = require_positive_int("max_entries", max_entries)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: str) -> Optional[Any]:
        """The cached payload for ``digest``, or None (counted)."""
        with self._lock:
            payload = self._entries.get(digest)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return payload

    def put(self, digest: str, payload: Any) -> None:
        """Insert (or refresh) one payload, evicting LRU on overflow."""
        with self._lock:
            if digest in self._entries:
                self._entries.move_to_end(digest)
            self._entries[digest] = payload
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "max_entries": self.max_entries,
            }
