"""One bundle for the scoring/search context: :class:`PlanningContext`.

:func:`~repro.scheduler.objectives.score_placement`,
:func:`~repro.search.engine.find_best_placement`,
:func:`~repro.scheduler.robust.rank_placements_robust` and the
:class:`~repro.scheduler.planner.ResourceConstrainedPlanner` take the
robustness term and the stage cache through one frozen object passed
as ``context=``; there is no second keyword spelling. The cache is the
planning platform: every call prices on ``context.cache``, or on a
fresh Cori-like :class:`~repro.search.cache.StageCache` when it is
``None``. ``context=None`` means :data:`DEFAULT_CONTEXT`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.analytic import RobustnessTerm
    from repro.search.cache import StageCache


@dataclasses.dataclass(frozen=True)
class PlanningContext:
    """Everything a planning call needs beyond the spec and budget.

    Parameters
    ----------
    robustness:
        Optional :class:`~repro.faults.analytic.RobustnessTerm`
        penalizing fragile placements.
    cache:
        Optional shared :class:`~repro.search.cache.StageCache`, which
        is also the platform: its cluster and DTL price every
        placement. Callees build a Cori-like one when omitted.

    Examples
    --------
    >>> from repro.search.cache import StageCache
    >>> ctx = PlanningContext().evolve(cache=StageCache())
    >>> ctx.cache is not None, DEFAULT_CONTEXT.cache
    (True, None)
    """

    robustness: Optional["RobustnessTerm"] = None
    cache: Optional["StageCache"] = None

    def evolve(self, **changes) -> "PlanningContext":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)


#: What ``context=None`` means at every planning entry point — one
#: shared instance, so a default call allocates no context of its own.
DEFAULT_CONTEXT = PlanningContext()
