"""Deterministic random-number management.

Every stochastic element of the simulator (timing jitter, MD initial
velocities, synthetic counter noise) draws from a
:class:`numpy.random.Generator` owned by a :class:`RandomSource`.
A single integer seed reproduces an entire experiment; independent
subsystems get *independent* child streams via ``spawn`` so adding a
new consumer never perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from repro.util.errors import ValidationError


class RandomSource:
    """A named, seedable source of independent random streams.

    Parameters
    ----------
    seed:
        Root seed. ``None`` derives entropy from the OS (irreproducible;
        allowed, but experiments should always pass an explicit seed).
    name:
        Label used in ``repr`` and for deriving child stream names.
    """

    def __init__(self, seed: Optional[int] = None, name: str = "root") -> None:
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ValidationError(f"seed must be an int or None, got {seed!r}")
        if seed is not None and seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self.name = name
        self._seed_seq = np.random.SeedSequence(seed)
        self._generator: Optional[np.random.Generator] = None

    @property
    def generator(self) -> np.random.Generator:
        """The source's stream, built on first use.

        Building it leaves the SeedSequence's spawn counter alone, so a
        source that only spawns children never builds one and its
        children's streams are the same either way.
        """
        if self._generator is None:
            self._generator = np.random.default_rng(self._seed_seq)
        return self._generator

    def spawn(self, name: str) -> "RandomSource":
        """Create an independent child source.

        Children are derived from the parent's SeedSequence, so the
        sequence of ``spawn`` calls (not their names) determines the
        streams. Spawn all children up front in a fixed order.
        """
        child = object.__new__(RandomSource)
        child.seed = self.seed
        child.name = f"{self.name}/{name}"
        child._seed_seq = self._seed_seq.spawn(1)[0]
        child._generator = None
        return child

    def jitter_factors(self, relative_width: float, count: int) -> np.ndarray:
        """``count`` multiplicative jitter factors from one vector draw.

        The factors are uniform on ``[1 - relative_width, 1 +
        relative_width]``, and ``factors[i]`` is the ``i``-th of
        ``count`` successive scalar ``generator.uniform`` draws on this
        stream, bit for bit: one ``uniform(size=count)`` call yields
        the doubles of ``count`` scalar calls. A ``relative_width`` of
        0 returns ones without consuming randomness (or building the
        generator), keeping noise-free runs bit-reproducible regardless
        of stream state.

        >>> vector = RandomSource(7).jitter_factors(0.02, 4)
        >>> scalar = RandomSource(7).generator
        >>> vector.tolist() == [
        ...     scalar.uniform(1 - 0.02, 1 + 0.02) for _ in range(4)]
        True
        >>> RandomSource(7).jitter_factors(0.0, 3).tolist()
        [1.0, 1.0, 1.0]
        """
        if relative_width < 0:
            raise ValidationError(
                f"relative_width must be >= 0, got {relative_width!r}"
            )
        if relative_width == 0:
            return np.ones(count)
        return self.generator.uniform(
            1.0 - relative_width, 1.0 + relative_width, size=count
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(name={self.name!r}, seed={self.seed!r})"


def derive_replica_seed(base_seed: int, replica: int, label: str = "") -> int:
    """The seed of one fault replica, shared by every scoring path.

    Robust scoring draws ``trials`` independent fault schedules per
    candidate; this helper is the single place their seeds come from,
    so the serial, pooled, and batched replication engines derive
    identical per-replica seeds by construction (asserted by the
    batched-vs-serial parity tests).

    With an empty ``label`` (the default) the seed is literally
    ``base_seed + replica`` — the scheme the serial DES path has always
    used, and also the common-random-numbers scheme: every candidate
    ranked under the same ``base_seed`` sees the *same* fault draws at
    replica ``i``, pairing the comparisons. Passing a per-candidate
    ``label`` (e.g. the candidate name) de-pairs them: the label is
    hashed (stable across processes and Python runs, unlike ``hash``)
    into a deterministic offset so each candidate gets an independent
    replica stream.

    Parameters
    ----------
    base_seed:
        Root seed of the trial set (>= 0).
    replica:
        Replica index within the trial set (>= 0).
    label:
        Optional stream label; empty pairs replicas across candidates
        (common random numbers), non-empty decorrelates them.
    """
    for field, value in (("base_seed", base_seed), ("replica", replica)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{field} must be an int, got {value!r}")
        if value < 0:
            raise ValidationError(f"{field} must be >= 0, got {value}")
    if not label:
        return base_seed + replica
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    offset = int.from_bytes(digest, "big") % (2**31)
    return base_seed + replica + offset


def spawn_rngs(seed: Optional[int], names: List[str]) -> dict:
    """Spawn one child :class:`RandomSource` per name from a fresh root.

    Convenience for experiment drivers that need a fixed set of
    independent streams::

        rngs = spawn_rngs(42, ["timing", "md", "counters"])
    """
    root = RandomSource(seed)
    return {name: root.spawn(name) for name in names}
