"""Stage-level execution tracing.

The executor records one :class:`StageRecord` per fine-grained stage
per in situ step — the raw material for steady-state estimation
(:func:`repro.core.stages.estimate_steady_state`), for the Table-1
metrics, and for the protocol-ordering assertions in the test suite.
:class:`StageTracer` keeps them in columns and builds the record
objects only when asked for them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.util.errors import ValidationError


class Stage(enum.Enum):
    """The paper's six fine-grained stages (§3.1)."""

    SIM_COMPUTE = "S"
    SIM_IDLE = "I_S"
    SIM_WRITE = "W"
    ANA_READ = "R"
    ANA_COMPUTE = "A"
    ANA_IDLE = "I_A"


#: stages belonging to the simulation side, in intra-step order.
SIMULATION_STAGES: Tuple[Stage, ...] = (
    Stage.SIM_COMPUTE,
    Stage.SIM_IDLE,
    Stage.SIM_WRITE,
)
#: stages belonging to the analysis side, in intra-step order.
ANALYSIS_STAGES: Tuple[Stage, ...] = (
    Stage.ANA_READ,
    Stage.ANA_COMPUTE,
    Stage.ANA_IDLE,
)


def _check_record(component: str, step: int, start: float, end: float) -> None:
    """Reject a record no stage execution can produce."""
    if not component:
        raise ValidationError("component must be non-empty")
    if step < 0:
        raise ValidationError(f"step must be >= 0, got {step}")
    if end < start:
        raise ValidationError(
            f"stage ends ({end}) before it starts ({start})"
        )


@dataclass(frozen=True)
class StageRecord:
    """One stage execution: who, what, when."""

    component: str
    stage: Stage
    step: int
    start: float
    end: float

    def __post_init__(self) -> None:
        _check_record(self.component, self.step, self.start, self.end)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Column:
    """One (component, stage) pair's records, one list per field."""

    __slots__ = ("component", "stage", "steps", "starts", "ends")

    def __init__(self, component: str, stage: Stage) -> None:
        self.component = component
        self.stage = stage
        self.steps: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []


class StageTracer:
    """Collects stage records during a run and serves queries over them.

    Records are stored once, in columns: per (component, stage) pair a
    list of steps, one of starts and one of ends, plus the column each
    record went to, in insertion order. :attr:`records` and
    :meth:`of_component` build :class:`StageRecord` objects from them on
    demand; the queries a run's results read (:meth:`durations`,
    :meth:`component_span`, :meth:`stage_end`, :meth:`num_steps`) read
    the columns.

    >>> tracer = StageTracer()
    >>> tracer.record("sim", Stage.SIM_COMPUTE, 1, 2.0, 3.5)
    >>> tracer.record("sim", Stage.SIM_COMPUTE, 0, 0.0, 1.0)
    >>> tracer.durations("sim", Stage.SIM_COMPUTE)  # ordered by step
    [1.0, 1.5]
    >>> [r.step for r in tracer.records]  # in insertion order
    [1, 0]
    """

    def __init__(self) -> None:
        self._columns: Dict[str, Dict[Stage, _Column]] = {}
        self._order: List[_Column] = []

    def record(
        self, component: str, stage: Stage, step: int, start: float, end: float
    ) -> None:
        """Append one stage record (validated as :class:`StageRecord`)."""
        _check_record(component, step, start, end)
        stages = self._columns.get(component)
        if stages is None:
            stages = self._columns[component] = {}
        column = stages.get(stage)
        if column is None:
            column = stages[stage] = _Column(component, stage)
        column.steps.append(step)
        column.starts.append(start)
        column.ends.append(end)
        self._order.append(column)

    def __len__(self) -> int:
        return len(self._order)

    @property
    def records(self) -> List[StageRecord]:
        """All records in insertion order."""
        return _build(self._order)

    @property
    def components(self) -> List[str]:
        return list(self._columns)

    def _stages(self, component: str) -> Dict[Stage, _Column]:
        stages = self._columns.get(component)
        if stages is None:
            raise ValidationError(f"no records for component {component!r}")
        return stages

    def of_component(self, component: str) -> List[StageRecord]:
        """All records of one component (insertion order)."""
        self._stages(component)
        return _build([c for c in self._order if c.component == component])

    def durations(self, component: str, stage: Stage) -> List[float]:
        """Per-step durations of one component's stage, ordered by step.

        The sort is stable: records of one step keep their insertion
        order.
        """
        column = self._stages(component).get(stage)
        if column is None:
            return []
        starts, ends, steps = column.starts, column.ends, column.steps
        if steps == sorted(steps):
            return [end - start for start, end in zip(starts, ends)]
        order = sorted(range(len(steps)), key=steps.__getitem__)
        return [ends[i] - starts[i] for i in order]

    def stage_end(self, component: str, stage: Stage, step: int) -> Optional[float]:
        """End time of a specific stage instance (None if absent)."""
        column = self._columns.get(component, {}).get(stage)
        if column is None or step not in column.steps:
            return None
        return column.ends[column.steps.index(step)]

    def component_span(self, component: str) -> Tuple[float, float]:
        """(first start, last end) over all of a component's records."""
        columns = self._stages(component).values()
        return (
            min(min(c.starts) for c in columns),
            max(max(c.ends) for c in columns),
        )

    def num_steps(self, component: str) -> int:
        """Number of distinct steps a component recorded."""
        return len(
            set().union(*(c.steps for c in self._stages(component).values()))
        )


def _build(order: List[_Column]) -> List[StageRecord]:
    """The records ``order`` names, one per entry: each entry takes its
    column's next unread record."""
    read: Dict[_Column, int] = {}
    records = []
    for column in order:
        i = read.get(column, 0)
        read[column] = i + 1
        records.append(
            StageRecord(
                column.component,
                column.stage,
                column.steps[i],
                column.starts[i],
                column.ends[i],
            )
        )
    return records
