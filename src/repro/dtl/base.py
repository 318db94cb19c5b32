"""Common interface of all data-transport tiers.

A tier is both a **cost model** (how long do W and R take, and what
does a read cost the producer's node?) and a **functional store**
implementing the paper's no-buffering protocol:

- a producer stages exactly one live chunk per step;
- staging step ``i+1`` while step ``i`` still has unread consumers is a
  :class:`~repro.util.errors.ProtocolError` (the simulation "does not
  write any new data until the data from the previous iteration is
  read");
- a chunk's slot is reclaimed once every registered consumer has read
  it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.dtl.chunk import Chunk, ChunkKey
from repro.util.errors import DTLError, ProtocolError, ValidationError


@dataclass(frozen=True)
class TransferCost:
    """Decomposed cost of one staging operation (seconds).

    Attributes
    ----------
    marshal:
        Serialization / deserialization CPU time on the caller.
    transport:
        Data movement time (memory copy, network transfer, or device IO).
    producer_overhead:
        Time the operation steals from the *producer's* node (staging
        service thread, NIC DMA). Zero for writes and for local reads.
    """

    marshal: float = 0.0
    transport: float = 0.0
    producer_overhead: float = 0.0

    def __post_init__(self) -> None:
        for name in ("marshal", "transport", "producer_overhead"):
            v = getattr(self, name)
            if v < 0:
                raise ValidationError(f"{name} must be >= 0, got {v!r}")

    @property
    def total(self) -> float:
        """Time experienced by the calling component itself."""
        return self.marshal + self.transport


@dataclass
class StagedChunk:
    """A chunk resident in the staging area, with read bookkeeping."""

    chunk: Chunk
    producer_node: int
    expected_consumers: int
    readers: Set[str] = field(default_factory=set)

    @property
    def fully_read(self) -> bool:
        return len(self.readers) >= self.expected_consumers


class DataTransportLayer(abc.ABC):
    """Abstract staging tier: cost model + chunk store."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValidationError("DTL name must be non-empty")
        self.name = name
        self._slots: Dict[ChunkKey, StagedChunk] = {}
        self._last_step: Dict[str, int] = {}
        self.bytes_staged_total: int = 0
        self.reads_served_total: int = 0

    # ---- cost model (pure) ----------------------------------------------------
    @abc.abstractmethod
    def write_cost(self, producer_node: int, nbytes: float) -> TransferCost:
        """Cost for the producer to stage ``nbytes`` (the W stage's I/O)."""

    @abc.abstractmethod
    def read_cost(
        self, producer_node: int, consumer_node: int, nbytes: float
    ) -> TransferCost:
        """Cost for a consumer on ``consumer_node`` to read ``nbytes``."""

    # ---- functional store -----------------------------------------------------
    def stage(
        self,
        chunk: Chunk,
        producer_node: int,
        expected_consumers: int = 1,
    ) -> StagedChunk:
        """Place ``chunk`` into the staging area (protocol-checked)."""
        if expected_consumers < 1:
            raise ValidationError(
                f"expected_consumers must be >= 1, got {expected_consumers}"
            )
        key = chunk.key
        member = chunk.metadata.get("member") if chunk.metadata else None
        who = (
            f"member {member!r}, component {key.producer!r}"
            if member
            else f"component {key.producer!r}"
        )
        prev_step = self._last_step.get(key.producer)
        if prev_step is not None:
            if key.step <= prev_step:
                raise ProtocolError(
                    f"{who} staged step {key.step} after "
                    f"step {prev_step} (steps must strictly increase)"
                )
            prev_key = ChunkKey(key.producer, prev_step)
            live = self._slots.get(prev_key)
            if live is not None and not live.fully_read:
                raise ProtocolError(
                    f"{who} attempted to stage step {key.step} "
                    f"while step {prev_step} has unread consumers "
                    f"({len(live.readers)}/{live.expected_consumers} read) — "
                    "the no-buffering protocol forbids this"
                )
        if key in self._slots:
            raise ProtocolError(f"chunk {key} is already staged")
        staged = StagedChunk(
            chunk=chunk,
            producer_node=producer_node,
            expected_consumers=expected_consumers,
        )
        self._slots[key] = staged
        self._last_step[key.producer] = key.step
        self.bytes_staged_total += chunk.nbytes
        return staged

    def retrieve(self, key: ChunkKey, consumer: str) -> Chunk:
        """Read a staged chunk; reclaims the slot on the final read.

        Each consumer may read a given chunk once; a second read by the
        same consumer is a :class:`ProtocolError` (it would double-count
        toward slot reclamation).
        """
        staged = self._slots.get(key)
        if staged is None:
            raise DTLError(
                f"chunk {key} is not staged in {self.name!r} "
                f"(consumer {consumer!r}, producer {key.producer!r}, "
                f"step {key.step})"
            )
        if consumer in staged.readers:
            member = (
                staged.chunk.metadata.get("member")
                if staged.chunk.metadata
                else None
            )
            context = f" of member {member!r}" if member else ""
            raise ProtocolError(
                f"consumer {consumer!r}{context} already read chunk {key} "
                f"(step {key.step})"
            )
        staged.readers.add(consumer)
        self.reads_served_total += 1
        chunk = staged.chunk
        if staged.fully_read:
            del self._slots[key]
        return chunk

    def peek(self, key: ChunkKey) -> Optional[StagedChunk]:
        """Non-consuming view of a staged slot (None if absent)."""
        return self._slots.get(key)

    @property
    def live_slots(self) -> int:
        """Number of chunks currently resident."""
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, live={self.live_slots})"
