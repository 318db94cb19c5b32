"""Eqs. 1-9 over stage columns: the batch form of the member algebra.

The scalar functions of :mod:`repro.core` score one member at a time
and stay the paper's API and the reference. The search kernel (a row
per candidate placement) and the fault replay (a row per replayed run)
score ``B`` rows of ``N`` members with :func:`score_columns`, which
repeats the scalar float operations in their order, so every row equals
the scalar path bit for bit (``tests/core/test_columns.py``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.util.errors import ValidationError

ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class ColumnScores:
    """Scores of ``B`` rows of ``N`` members."""

    sigma: np.ndarray  # (B, N) sigma* (Eq. 1); makespan = n_steps * sigma*
    indicators: np.ndarray  # (B, N) P^{U,A,P} (Eq. 8)
    objectives: np.ndarray  # (B,) F (Eq. 9)


@functools.lru_cache(maxsize=256)
def _slots(couplings: Tuple[int, ...]) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Per slot ``j``: members with ``K > j``, their ``j``-th analyses
    (read-only arrays, built once per member layout)."""
    k = np.asarray(couplings)
    starts = np.cumsum(k) - k
    slots = tuple(
        (np.flatnonzero(k > j), starts[k > j] + j) for j in range(max(couplings))
    )
    for members, cols in slots:
        members.flags.writeable = cols.flags.writeable = False
    return slots


def member_sum(columns: np.ndarray, couplings: Sequence[int]) -> np.ndarray:
    """Per-member sums of ``(B, A)`` analysis columns, as ``(B, N)``:
    left to right, as ``sum()`` adds them and ``reduceat`` does not."""
    (_, first), *rest = _slots(tuple(couplings))
    total = columns[:, first]
    for members, cols in rest:
        total[:, members] += columns[:, cols]
    return total


def co_location_indicator(couplings: ArrayLike, remote: ArrayLike) -> ArrayLike:
    """Eq. 6 for single-node components: ``((K - r) + r/2) / K``, with
    ``r`` analyses off the simulation's node; equals
    :func:`~repro.core.indicators.placement_indicator` bit for bit."""
    return (1.0 / couplings) * ((couplings - remote) + 0.5 * remote)


def objective_rows(indicators: np.ndarray) -> np.ndarray:
    """Eq. 9 per row of a C-ordered ``(B, N)`` indicator array.

    Each row's members are contiguous, so its mean and deviation sum
    them as the scalar path's 1-D reductions do, and every entry equals
    :func:`~repro.core.objective.objective_function` of its row bit for
    bit, at any ``N``.

    >>> from repro.core.objective import objective_function
    >>> rows = np.array([[0.5, 0.25, 0.125], [1.0, 1.0, 1.0]])
    >>> objective_rows(rows).tolist() == [
    ...     objective_function(row) for row in rows.tolist()]
    True
    """
    mean = indicators.mean(axis=1)
    deviation = indicators - mean[:, None]
    return mean - np.sqrt(np.mean(deviation ** 2, axis=1))


def score_columns(
    compute: np.ndarray,
    write: np.ndarray,
    read: np.ndarray,
    analyze: np.ndarray,
    couplings: Sequence[int],
    cores: ArrayLike,
    placement: np.ndarray,
    total_nodes: ArrayLike,
) -> ColumnScores:
    """Eqs. 1-9 over ``B`` rows of ``N`` members.

    ``compute``/``write`` hold the simulations' ``S*``/``W*`` as ``(B,
    N)``; ``read``/``analyze`` the analyses' ``R*``/``A*`` as ``(B,
    A)``, member ``m``'s ``K_m`` analyses consecutive. ``couplings`` is
    each member's ``K``, ``cores`` its ``c`` (``(N,)`` or ``(B, N)``),
    ``placement`` the ``(B, N)`` ``CP`` column (Eq. 6) and
    ``total_nodes`` ``M``, one value or one per row. A negative or
    non-finite stage and ``sigma* = 0`` raise :class:`ValidationError`.

    >>> from repro.core.indicators import (FINAL_STAGE_ORDER,
    ...     MemberMeasurement, PlacementSets, apply_stages)
    >>> from repro.core.objective import objective_function
    >>> from repro.core.stages import (AnalysisStages, MemberStages,
    ...     SimulationStages)
    >>> one = MemberStages(SimulationStages(3.0, 0.5),
    ...                    (AnalysisStages(0.25, 2.0),))
    >>> two = MemberStages(SimulationStages(2.0, 0.5),
    ...     (AnalysisStages(0.25, 3.0), AnalysisStages(0.5, 1.0)))
    >>> sets = (PlacementSets({0}, ({0},)), PlacementSets({1}, ({1}, {2})))
    >>> scalar = [apply_stages(MemberMeasurement(f"em{i}", s, c, p),
    ...                        FINAL_STAGE_ORDER, 3)
    ...           for i, (s, c, p) in enumerate(zip((one, two), (24, 32), sets))]
    >>> batch = score_columns(
    ...     compute=np.array([[3.0, 2.0]]), write=np.array([[0.5, 0.5]]),
    ...     read=np.array([[0.25, 0.25, 0.5]]),
    ...     analyze=np.array([[2.0, 3.0, 1.0]]),
    ...     couplings=[1, 2], cores=[24, 32],
    ...     placement=co_location_indicator(np.array([[1.0, 2.0]]),
    ...                                     np.array([[0.0, 1.0]])),
    ...     total_nodes=3)
    >>> batch.indicators.tolist() == [scalar]
    True
    >>> float(batch.objectives[0]) == objective_function(scalar)
    True
    """
    for name, column in (
        ("compute", compute),
        ("write", write),
        ("read", read),
        ("analyze", analyze),
    ):
        # min/max catch NaN and infinities too, as the scalar stages do
        if column.size and not (column.min() >= 0 and column.max() < math.inf):
            raise ValidationError(f"{name} stages must be finite and >= 0")
    sim_active = compute + write
    ana_active = read + analyze
    (_, first), *rest = _slots(tuple(couplings))
    sigma = np.maximum(sim_active, ana_active[:, first])
    for members, cols in rest:
        sigma[:, members] = np.maximum(sigma[:, members], ana_active[:, cols])
    if sigma.size and sigma.min() <= 0:
        raise ValidationError(
            "cannot compute efficiency of a member with zero-duration stages"
        )
    k = np.asarray(couplings, dtype=float)
    efficiency = (
        sim_active / sigma + member_sum(ana_active, couplings) / (k * sigma) - 1.0
    )
    nodes = np.asarray(total_nodes, dtype=float)
    if nodes.ndim:
        nodes = nodes[:, None]
    indicators = np.ascontiguousarray(((efficiency / cores) * placement) / nodes)
    return ColumnScores(
        sigma=sigma, indicators=indicators, objectives=objective_rows(indicators)
    )
