"""Fine-grained stage model and steady-state estimation (paper §3.1).

Every simulation step is divided into a compute stage ``S``, an idle
stage ``I^S`` and a write stage ``W`` (in that order); every analysis
step into a read stage ``R``, an analyze stage ``A`` and an idle stage
``I^A``. After warm-up the execution reaches a steady state where each
stage's duration is stable across steps; the starred values ``S*``,
``W*``, ``R*``, ``A*`` used throughout the paper are those steady-state
durations.

The idle stages are *derived*, not stored: given the steady-state
period (Eq. 1), ``I^S* = sigma* - (S* + W*)`` and
``I^A_i* = sigma* - (R_i* + A_i*)`` — see :mod:`repro.core.insitu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.util.errors import ValidationError
from repro.util.stats import trim_count, trimmed_mean
from repro.util.validation import require_in_range, require_non_negative


@dataclass(frozen=True)
class SimulationStages:
    """Steady-state stage durations of a simulation component."""

    compute: float  # S*
    write: float  # W*

    def __post_init__(self) -> None:
        require_non_negative("compute", self.compute)
        require_non_negative("write", self.write)

    @property
    def active(self) -> float:
        """S* + W*: the simulation's non-idle time per in situ step."""
        return self.compute + self.write


@dataclass(frozen=True)
class AnalysisStages:
    """Steady-state stage durations of one analysis component."""

    read: float  # R*
    analyze: float  # A*

    def __post_init__(self) -> None:
        require_non_negative("read", self.read)
        require_non_negative("analyze", self.analyze)

    @property
    def active(self) -> float:
        """R* + A*: the analysis's non-idle time per in situ step."""
        return self.read + self.analyze


@dataclass(frozen=True)
class MemberStages:
    """Steady-state stage durations of a whole ensemble member.

    One simulation coupled with ``K >= 1`` analyses — the paper's
    member structure (one simulation per member, §2.1).
    """

    simulation: SimulationStages
    analyses: Tuple[AnalysisStages, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.analyses, tuple):
            object.__setattr__(self, "analyses", tuple(self.analyses))
        if len(self.analyses) == 0:
            raise ValidationError("a member requires at least one analysis (K >= 1)")

    @property
    def num_couplings(self) -> int:
        """K: the number of (Sim, Ana^i) couplings."""
        return len(self.analyses)


#: The fraction of leading steps both estimators drop as warm-up, and
#: the fraction of the remaining samples they trim from *each* tail.
WARMUP_FRACTION = 0.2
TRIM_FRACTION = 0.1


def estimate_steady_state(
    samples: Sequence[float],
    warmup_fraction: float = WARMUP_FRACTION,
    trim_fraction: float = TRIM_FRACTION,
) -> float:
    """Estimate a stage's steady-state duration from per-step samples.

    Drops the first ``warmup_fraction`` of steps (the paper observes
    steady state "after a few warm-up steps") and returns the trimmed
    mean of the remainder, robust to stragglers. With very few samples
    the warm-up drop is reduced so at least one sample survives.
    """
    values = list(samples)
    if not values:
        raise ValidationError("estimate_steady_state requires at least one sample")
    require_in_range("warmup_fraction", warmup_fraction, 0.0, 1.0, inclusive_high=False)
    skip = int(len(values) * warmup_fraction)
    if skip >= len(values):
        skip = len(values) - 1
    return trimmed_mean(values[skip:], trim_fraction)


def steady_state_rows(durations: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`estimate_steady_state` of each row's first ``lengths[r]``
    samples, bit for bit: rows of one length share the warm-up skip,
    the sort and the trim, and numpy's summation order depends only on
    the reduced axis's element count."""
    out = np.empty(durations.shape[0])
    for m in sorted(set(lengths.tolist())):
        mask = lengths == m
        if m < 1:
            raise ValidationError(
                "estimate_steady_state requires at least one sample"
            )
        skip = min(int(m * WARMUP_FRACTION), m - 1)
        rest = np.sort(durations[mask, skip:m], axis=1)
        size = m - skip
        k = trim_count(size, TRIM_FRACTION)
        out[mask] = rest[:, k : size - k].mean(axis=1)
    return out
