"""End-to-end indicator evaluation: measurements in, F table out.

The public convenience the figure experiments (and downstream users)
share: given each member's :class:`~repro.core.indicators
.MemberMeasurement` and the ensemble's node count, produce the
objective ``F`` at every stage of both §5.2 paths::

    {"U": ..., "U,P": ..., "U,A": ..., "U,P,A": ..., "U,A,P": ...}

This is the complete Figure 8/9 computation for one configuration.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.columns import objective_rows
from repro.core.indicators import (
    IndicatorStage,
    MemberMeasurement,
    apply_stages,
    placement_indicator,
)
from repro.util.errors import ValidationError

U = IndicatorStage.USAGE
A = IndicatorStage.ALLOCATION
P = IndicatorStage.PROVISIONING

#: every stage prefix of the two §5.2 paths, label -> stage sequence.
STAGE_PATHS: Dict[str, Tuple[IndicatorStage, ...]] = {
    "U": (U,),
    "U,P": (U, P),
    "U,A": (U, A),
    "U,P,A": (U, P, A),
    "U,A,P": (U, A, P),
}


def member_indicator_paths(
    member: MemberMeasurement, total_nodes: int
) -> Dict[str, float]:
    """One member's indicator value at every stage of both paths.

    ``P^U`` comes from :func:`~repro.core.indicators.apply_stages`,
    which checks ``total_nodes`` and the member's span; the other four
    repeat its float operations in its order (``P^U/M``, ``P^U*CP``,
    ``(P^U/M)*CP``, ``(P^U*CP)/M``), so each equals ``apply_stages``
    of its label bit for bit.
    """
    usage = apply_stages(member, STAGE_PATHS["U"], total_nodes)
    provisioned = usage / total_nodes
    placed = placement_indicator(member.placement)
    allocated = usage * placed
    return {
        "U": usage,
        "U,P": provisioned,
        "U,A": allocated,
        "U,P,A": provisioned * placed,
        "U,A,P": allocated / total_nodes,
    }


def ensemble_objective_paths(
    members: Sequence[MemberMeasurement], total_nodes: int
) -> Dict[str, float]:
    """F (Eq. 9) over the ensemble's members at every indicator stage.

    The row of Figures 8/9 for one configuration. The members'
    :func:`member_indicator_paths` fill a C-ordered ``(5, N)`` array,
    one row per label, and one :func:`~repro.core.columns
    .objective_rows` call reduces all five, so each F equals
    :func:`~repro.core.objective.objective_function` of that label's
    values bit for bit.

    >>> from repro.core.indicators import PlacementSets
    >>> from repro.core.objective import objective_function
    >>> from repro.core.stages import (AnalysisStages, MemberStages,
    ...     SimulationStages)
    >>> stages = MemberStages(SimulationStages(3.0, 0.5),
    ...                       (AnalysisStages(0.25, 2.0),))
    >>> members = [
    ...     MemberMeasurement("em1", stages, 24, PlacementSets({0}, ({0},))),
    ...     MemberMeasurement("em2", stages, 32, PlacementSets({1}, ({2},))),
    ... ]
    >>> paths = ensemble_objective_paths(members, 3)
    >>> list(paths) == list(STAGE_PATHS)
    True
    >>> all(paths[label] == objective_function(
    ...         [apply_stages(m, order, 3) for m in members])
    ...     for label, order in STAGE_PATHS.items())
    True
    """
    members = list(members)
    if not members:
        raise ValidationError("at least one member measurement required")
    rows = np.empty((len(STAGE_PATHS), len(members)))
    for i, member in enumerate(members):
        paths = member_indicator_paths(member, total_nodes)
        rows[:, i] = [paths[label] for label in STAGE_PATHS]
    return dict(zip(STAGE_PATHS, objective_rows(rows).tolist()))
