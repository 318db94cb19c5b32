"""Tests for the stage tracer."""

import pytest

from repro.monitoring.tracer import Stage, StageRecord, StageTracer
from repro.util.errors import ValidationError


@pytest.fixture
def tracer():
    t = StageTracer()
    t.record("sim", Stage.SIM_COMPUTE, 0, 0.0, 10.0)
    t.record("sim", Stage.SIM_IDLE, 0, 10.0, 10.0)
    t.record("sim", Stage.SIM_WRITE, 0, 10.0, 10.5)
    t.record("sim", Stage.SIM_COMPUTE, 1, 10.5, 20.5)
    t.record("ana", Stage.ANA_READ, 0, 10.5, 11.0)
    t.record("ana", Stage.ANA_COMPUTE, 0, 11.0, 19.0)
    return t


class TestStageRecord:
    def test_duration(self):
        rec = StageRecord("x", Stage.SIM_COMPUTE, 0, 1.0, 3.5)
        assert rec.duration == 2.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            StageRecord("", Stage.SIM_COMPUTE, 0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            StageRecord("x", Stage.SIM_COMPUTE, -1, 0.0, 1.0)
        with pytest.raises(ValidationError):
            StageRecord("x", Stage.SIM_COMPUTE, 0, 2.0, 1.0)

    def test_zero_duration_allowed(self):
        StageRecord("x", Stage.SIM_IDLE, 0, 1.0, 1.0)


class TestQueries:
    def test_len_and_components(self, tracer):
        assert len(tracer) == 6
        assert tracer.components == ["sim", "ana"]

    def test_durations_ordered_by_step(self, tracer):
        assert tracer.durations("sim", Stage.SIM_COMPUTE) == [10.0, 10.0]

    def test_durations_empty_stage(self, tracer):
        assert tracer.durations("ana", Stage.ANA_IDLE) == []

    def test_unknown_component_rejected(self, tracer):
        with pytest.raises(ValidationError):
            tracer.of_component("ghost")

    def test_stage_end(self, tracer):
        assert tracer.stage_end("sim", Stage.SIM_WRITE, 0) == 10.5
        assert tracer.stage_end("sim", Stage.SIM_WRITE, 5) is None

    def test_component_span(self, tracer):
        assert tracer.component_span("sim") == (0.0, 20.5)
        assert tracer.component_span("ana") == (10.5, 19.0)

    def test_num_steps(self, tracer):
        assert tracer.num_steps("sim") == 2
        assert tracer.num_steps("ana") == 1

    def test_records_returns_copy(self, tracer):
        records = tracer.records
        records.clear()
        assert len(tracer) == 6


class TestOutOfStepOrder:
    """Records need not arrive in step order: an analysis records the
    previous step's idle only once the next write fires (the final one
    after its last step), and a dropped analysis records a partial read
    before it stops."""

    @pytest.fixture
    def tracer(self):
        t = StageTracer()
        t.record("ana", Stage.ANA_READ, 0, 1.0, 1.5)
        t.record("ana", Stage.ANA_COMPUTE, 0, 1.5, 3.0)
        t.record("ana", Stage.ANA_READ, 1, 4.0, 4.25)
        # the final idle of step 1 arrives before step 0's
        t.record("ana", Stage.ANA_IDLE, 1, 5.0, 5.0)
        t.record("ana", Stage.ANA_IDLE, 0, 3.0, 4.0)
        # a dropped analysis: a partial read of step 2, recorded after
        # a later step's read
        t.record("ana", Stage.ANA_READ, 3, 6.0, 6.5)
        t.record("ana", Stage.ANA_READ, 2, 5.0, 5.125)
        return t

    def test_durations_are_step_ordered(self, tracer):
        assert tracer.durations("ana", Stage.ANA_IDLE) == [1.0, 0.0]
        assert tracer.durations("ana", Stage.ANA_READ) == [
            0.5, 0.25, 0.125, 0.5
        ]

    def test_records_keep_insertion_order(self, tracer):
        assert [(r.stage, r.step) for r in tracer.records] == [
            (Stage.ANA_READ, 0),
            (Stage.ANA_COMPUTE, 0),
            (Stage.ANA_READ, 1),
            (Stage.ANA_IDLE, 1),
            (Stage.ANA_IDLE, 0),
            (Stage.ANA_READ, 3),
            (Stage.ANA_READ, 2),
        ]
        assert tracer.of_component("ana") == tracer.records

    def test_equal_steps_keep_insertion_order(self):
        t = StageTracer()
        t.record("sim", Stage.SIM_COMPUTE, 1, 0.0, 2.0)
        t.record("sim", Stage.SIM_COMPUTE, 0, 0.0, 3.0)
        t.record("sim", Stage.SIM_COMPUTE, 1, 0.0, 1.0)
        assert t.durations("sim", Stage.SIM_COMPUTE) == [3.0, 2.0, 1.0]

    def test_queries_read_every_column(self, tracer):
        assert tracer.component_span("ana") == (1.0, 6.5)
        assert tracer.num_steps("ana") == 4
        assert tracer.stage_end("ana", Stage.ANA_IDLE, 0) == 4.0
        assert tracer.stage_end("ana", Stage.ANA_COMPUTE, 1) is None
        assert len(tracer) == 7


class TestRecordValidation:
    """``record`` rejects what :class:`StageRecord` rejects, and stores
    nothing when it does."""

    @pytest.mark.parametrize(
        "args",
        [
            ("", Stage.SIM_COMPUTE, 0, 0.0, 1.0),
            ("x", Stage.SIM_COMPUTE, -1, 0.0, 1.0),
            ("x", Stage.SIM_COMPUTE, 0, 2.0, 1.0),
        ],
    )
    def test_same_errors_as_the_record(self, args):
        t = StageTracer()
        with pytest.raises(ValidationError) as from_tracer:
            t.record(*args)
        with pytest.raises(ValidationError) as from_record:
            StageRecord(*args)
        assert str(from_tracer.value) == str(from_record.value)
        assert len(t) == 0 and t.components == []
