"""Small statistics helpers.

The paper's ensemble-level objective (Eq. 9) uses the *population*
standard deviation (divide by N, not N-1); :func:`population_std`
implements exactly that so :mod:`repro.core.objective` matches the
formula. Steady-state stage-time estimation uses :func:`trimmed_mean`
to be robust to warm-up and stragglers.
"""

from __future__ import annotations

import math
from typing import Sequence

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
