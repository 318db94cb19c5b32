"""Tests for failure models and fault schedules."""

import math

import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import TABLE2_CONFIGS
from repro.faults.models import (
    CHUNK_KINDS,
    FailureModel,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    NoFailureModel,
    RandomFailureModel,
    ScheduledFailureModel,
)
from repro.util.errors import ValidationError


def _spec(name="C1.5", n_steps=6):
    return build_spec(TABLE2_CONFIGS[name], n_steps=n_steps)


def _event(**kwargs):
    defaults = dict(
        member="em1",
        component="em1.sim",
        step=2,
        kind=FaultKind.CRASH,
        stage="S",
        magnitude=0.5,
    )
    defaults.update(kwargs)
    return FaultEvent(**defaults)


class TestFaultEvent:
    def test_valid_crash(self):
        ev = _event()
        assert ev.kind is FaultKind.CRASH
        assert ev.repeats == 1

    def test_repr_names_site(self):
        assert "em1.sim:S2" in repr(_event())

    @pytest.mark.parametrize("magnitude", [0.0, -0.1, 1.5])
    def test_crash_magnitude_bounds(self, magnitude):
        with pytest.raises(ValidationError):
            _event(magnitude=magnitude)

    @pytest.mark.parametrize("magnitude", [1.0, 0.5, -2.0])
    def test_straggler_must_inflate(self, magnitude):
        with pytest.raises(ValidationError):
            _event(kind=FaultKind.STRAGGLER, magnitude=magnitude)

    def test_stall_magnitude_non_negative(self):
        with pytest.raises(ValidationError):
            _event(kind=FaultKind.STALL, magnitude=-1.0)
        _event(kind=FaultKind.STALL, magnitude=0.0)  # zero is fine

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
    def test_non_finite_magnitude_rejected(self, kind, magnitude):
        with pytest.raises(ValidationError, match="must be finite"):
            _event(kind=kind, magnitude=magnitude)

    @pytest.mark.parametrize(
        "kind, option",
        [
            (FaultKind.STALL, "stall_seconds"),
            (FaultKind.STRAGGLER, "straggler_factor"),
            (FaultKind.CHUNK_LOSS, "detection_seconds"),
        ],
        ids=["stall", "straggler", "chunk"],
    )
    def test_non_finite_model_magnitude_fails_the_schedule(
        self, kind, option
    ):
        # unchecked, a NaN stall would be scheduled and then skipped by
        # the injector's ``magnitude > 0`` test, and an infinite
        # straggler would fail only after the run
        model = RandomFailureModel(
            rate=0.5, kinds=(kind,), seed=0, **{option: math.nan}
        )
        with pytest.raises(ValidationError, match="must be finite"):
            model.build_schedule(_spec())

    def test_bad_stage_rejected(self):
        with pytest.raises(ValidationError):
            _event(stage="X")

    def test_negative_step_rejected(self):
        with pytest.raises(ValidationError):
            _event(step=-1)

    def test_empty_component_rejected(self):
        with pytest.raises(ValidationError):
            _event(component="")

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValidationError):
            _event(repeats=0)


class TestFaultSchedule:
    def test_empty(self):
        sched = FaultSchedule(())
        assert sched.is_empty
        assert len(sched) == 0
        assert sched.events_for("em1.sim", 0, "S") == ()
        assert sched.chunk_events_for("em1.sim", 0) == ()

    def test_site_lookup(self):
        ev = _event()
        sched = FaultSchedule([ev])
        assert sched.events_for("em1.sim", 2, "S") == (ev,)
        assert sched.events_for("em1.sim", 2, "W") == ()
        assert sched.events_for("em1.sim", 3, "S") == ()

    def test_chunk_faults_indexed_by_producer(self):
        ev = _event(
            kind=FaultKind.CHUNK_LOSS, stage="W", magnitude=1.0
        )
        sched = FaultSchedule([ev])
        assert sched.chunk_events_for("em1.sim", 2) == (ev,)
        # chunk faults do not appear in the component-local index
        assert sched.events_for("em1.sim", 2, "W") == ()

    def test_events_ordered_deterministically(self):
        evs = [
            _event(component="b.sim", step=1),
            _event(component="a.sim", step=3),
            _event(component="a.sim", step=0),
        ]
        assert FaultSchedule(evs).events == FaultSchedule(
            reversed(evs)
        ).events


class TestNoFailureModel:
    def test_always_empty(self):
        assert NoFailureModel().build_schedule(_spec()).is_empty

    def test_is_a_failure_model(self):
        assert isinstance(NoFailureModel(), FailureModel)


class TestRandomFailureModel:
    def test_zero_rate_empty(self):
        model = RandomFailureModel(rate=0.0)
        assert model.build_schedule(_spec()).is_empty

    def test_same_seed_same_schedule(self):
        spec = _spec()
        a = RandomFailureModel(rate=0.3, seed=7).build_schedule(spec)
        b = RandomFailureModel(rate=0.3, seed=7).build_schedule(spec)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        spec = _spec()
        a = RandomFailureModel(rate=0.3, seed=1).build_schedule(spec)
        b = RandomFailureModel(rate=0.3, seed=2).build_schedule(spec)
        assert a.events != b.events

    def test_rate_one_faults_every_site(self):
        spec = _spec(n_steps=4)
        sched = RandomFailureModel(rate=1.0).build_schedule(spec)
        n_components = sum(
            1 + len(m.analyses) for m in spec.members
        )
        assert len(sched) == n_components * 4

    def test_chunk_kinds_only_on_simulations(self):
        spec = _spec()
        sched = RandomFailureModel(
            rate=1.0, kinds=CHUNK_KINDS
        ).build_schedule(spec)
        assert not sched.is_empty
        assert all(e.component.endswith(".sim") for e in sched.events)
        assert all(e.stage == "W" for e in sched.events)

    def test_rate_validated(self):
        with pytest.raises(ValidationError):
            RandomFailureModel(rate=1.5)
        with pytest.raises(ValidationError):
            RandomFailureModel(rate=-0.1)

    def test_kinds_validated(self):
        with pytest.raises(ValidationError):
            RandomFailureModel(rate=0.1, kinds=())
        with pytest.raises(ValidationError):
            RandomFailureModel(rate=0.1, kinds=("crash",))


class TestScheduledFailureModel:
    def test_passthrough(self):
        ev = _event()
        model = ScheduledFailureModel([ev])
        assert model.build_schedule(_spec()).events == (ev,)

    def test_unknown_component_rejected(self):
        model = ScheduledFailureModel([_event(component="ghost.sim")])
        with pytest.raises(ValidationError, match="ghost.sim"):
            model.build_schedule(_spec())
