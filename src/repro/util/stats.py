"""Small statistics helpers.

The paper's ensemble-level objective (Eq. 9) uses the *population*
standard deviation (divide by N, not N-1); :func:`population_std`
implements exactly that so :mod:`repro.core.objective` matches the
formula. Steady-state stage-time estimation uses :func:`trimmed_mean`
to be robust to warm-up and stragglers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.util.errors import ValidationError


def population_std(values: Sequence[float]) -> float:
    """Population standard deviation: sqrt(mean((x - mean)^2)).

    >>> population_std([2.0, 2.0])
    0.0
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValidationError("population_std requires at least one value")
    return float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))


def trimmed_mean(values: Sequence[float], trim_fraction: float = 0.1) -> float:
    """Mean after symmetrically discarding a fraction of extreme values.

    ``trim_fraction`` is the fraction removed from *each* tail, so 0.1
    keeps the central 80%. With fewer than three values no trimming is
    applied (there is nothing meaningful to discard).
    """
    if not 0 <= trim_fraction < 0.5:
        raise ValidationError(
            f"trim_fraction must be in [0, 0.5), got {trim_fraction!r}"
        )
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValidationError("trimmed_mean requires at least one value")
    k = trim_count(arr.size, trim_fraction)
    return float(arr[k : arr.size - k].mean())


def trim_count(size: int, trim_fraction: float) -> int:
    """How many of ``size`` sorted values :func:`trimmed_mean` drops
    from *each* tail: none below three values, never all of them."""
    if size < 3 or trim_fraction == 0:
        return 0
    k = int(math.floor(size * trim_fraction))
    return (size - 1) // 2 if 2 * k >= size else k


@dataclass
class RunningStats:
    """Welford online mean/variance accumulator.

    Numerically stable single-pass statistics; used by monitors that
    observe one stage duration at a time during a simulation run.
    """

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    _min: float = field(default=math.inf)
    _max: float = field(default=-math.inf)

    def add(self, x: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    def extend(self, xs: Iterable[float]) -> None:
        """Fold many observations into the accumulator."""
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValidationError("no observations recorded")
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance of the observations seen so far."""
        if self.count == 0:
            raise ValidationError("no observations recorded")
        return self._m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        if self.count == 0:
            raise ValidationError("no observations recorded")
        return self._min

    @property
    def max(self) -> float:
        if self.count == 0:
            raise ValidationError("no observations recorded")
        return self._max


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    min: float
    max: float
    median: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.count} mean={self.mean:.6g} std={self.std:.6g} "
            f"min={self.min:.6g} median={self.median:.6g} max={self.max:.6g}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Build a :class:`Summary` (population std) for a non-empty sample."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValidationError("summarize requires at least one value")
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(np.sqrt(np.mean((arr - arr.mean()) ** 2))),
        min=float(arr.min()),
        max=float(arr.max()),
        median=float(np.median(arr)),
    )
