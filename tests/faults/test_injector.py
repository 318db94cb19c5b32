"""Tests for the fault injector and its executor wiring.

The keystone here is the determinism regression: installing a
zero-rate failure model must leave the execution trace *byte-identical*
to a run with no injector at all — the injection hooks are transparent
when nothing is scheduled.
"""

import json

import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import TABLE2_CONFIGS
from repro.des.engine import Environment
from repro.faults.batched import capture_timeline, replay_schedules
from repro.faults.injector import (
    AnalysisDropped,
    FaultInjector,
    FaultLog,
    FaultRecord,
    StageContext,
)
from repro.faults.models import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    NoFailureModel,
    RandomFailureModel,
    ScheduledFailureModel,
)
from repro.faults.recovery import (
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RecoveryAction,
    RecoveryPolicy,
    RetryBackoffPolicy,
)
from repro.monitoring.traceio import tracer_to_dict
from repro.runtime.runner import run_ensemble
from repro.util.errors import ValidationError


def _spec(name="C1.5", n_steps=5):
    return build_spec(TABLE2_CONFIGS[name], n_steps=n_steps)


def _placement(name="C1.5"):
    return TABLE2_CONFIGS[name].placement()


def _trace_bytes(result):
    return json.dumps(tracer_to_dict(result.tracer), sort_keys=True)


def _crash(component="em1.sim", stage="S", step=2, **kwargs):
    member = component.split(".")[0]
    defaults = dict(
        member=member,
        component=component,
        step=step,
        kind=FaultKind.CRASH,
        stage=stage,
        magnitude=0.5,
    )
    defaults.update(kwargs)
    return FaultEvent(**defaults)


class TestZeroFailureDeterminism:
    """Zero-rate injection is byte-identical to no injection."""

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_zero_rate_trace_byte_identical(self, noise):
        spec, placement = _spec(), _placement()
        baseline = run_ensemble(
            spec, placement, seed=11, timing_noise=noise
        )
        injected = run_ensemble(
            spec,
            placement,
            seed=11,
            timing_noise=noise,
            failure_model=RandomFailureModel(rate=0.0),
        )
        assert _trace_bytes(injected) == _trace_bytes(baseline)
        assert injected.ensemble_makespan == baseline.ensemble_makespan

    def test_no_failure_model_byte_identical(self):
        spec, placement = _spec(), _placement()
        baseline = run_ensemble(spec, placement, seed=3)
        injected = run_ensemble(
            spec, placement, seed=3, failure_model=NoFailureModel()
        )
        assert _trace_bytes(injected) == _trace_bytes(baseline)

    def test_injected_run_is_reproducible(self):
        spec, placement = _spec(), _placement()
        model = RandomFailureModel(
            rate=0.2, kinds=(FaultKind.CRASH, FaultKind.STRAGGLER), seed=4
        )
        a = run_ensemble(spec, placement, seed=1, failure_model=model)
        b = run_ensemble(spec, placement, seed=1, failure_model=model)
        assert _trace_bytes(a) == _trace_bytes(b)


class TestInjectedFaults:
    def test_crash_inflates_makespan_and_is_logged(self):
        spec, placement = _spec(), _placement()
        baseline = run_ensemble(spec, placement, seed=0)
        result = run_ensemble(
            spec,
            placement,
            seed=0,
            failure_model=ScheduledFailureModel([_crash()]),
            recovery=RetryBackoffPolicy(base_delay=1.0),
        )
        assert result.ensemble_makespan > baseline.ensemble_makespan
        log = result.fault_log
        assert len(log) == 1
        (rec,) = log.records
        assert rec.kind is FaultKind.CRASH
        assert rec.component == "em1.sim"
        assert rec.lost_work > 0
        assert rec.recovery_time >= 1.0  # at least the backoff delay

    def test_straggler_stretches_stage(self):
        spec, placement = _spec(), _placement()
        baseline = run_ensemble(spec, placement, seed=0)
        result = run_ensemble(
            spec,
            placement,
            seed=0,
            failure_model=ScheduledFailureModel(
                [
                    _crash(
                        kind=FaultKind.STRAGGLER,
                        magnitude=4.0,
                    )
                ]
            ),
        )
        assert result.ensemble_makespan > baseline.ensemble_makespan
        (rec,) = result.fault_log.records
        assert rec.kind is FaultKind.STRAGGLER
        assert rec.lost_work > 0

    def test_stall_delays_exactly(self):
        spec, placement = _spec(), _placement()
        baseline = run_ensemble(spec, placement, seed=0)
        result = run_ensemble(
            spec,
            placement,
            seed=0,
            failure_model=ScheduledFailureModel(
                [_crash(kind=FaultKind.STALL, magnitude=7.5)]
            ),
        )
        # C1.5's members are independent; the stalled member's critical
        # path grows by exactly the stall duration.
        assert result.ensemble_makespan == pytest.approx(
            baseline.ensemble_makespan + 7.5
        )

    def test_repeated_crashes_escalate_backoff(self):
        spec, placement = _spec(), _placement()
        result = run_ensemble(
            spec,
            placement,
            seed=0,
            failure_model=ScheduledFailureModel([_crash(repeats=3)]),
            recovery=RetryBackoffPolicy(base_delay=1.0, factor=2.0),
        )
        recs = result.fault_log.records
        assert [r.attempts for r in recs] == [1, 2, 3]

    def test_chunk_loss_charged_to_reader(self):
        spec, placement = _spec(), _placement()
        baseline = run_ensemble(spec, placement, seed=0)
        result = run_ensemble(
            spec,
            placement,
            seed=0,
            failure_model=ScheduledFailureModel(
                [
                    _crash(
                        kind=FaultKind.CHUNK_LOSS,
                        stage="W",
                        # larger than the analysis's idle slack so the
                        # re-read pushes the critical path, not just I_A
                        magnitude=20.0,
                    )
                ]
            ),
        )
        assert result.ensemble_makespan > baseline.ensemble_makespan
        (rec,) = result.fault_log.records
        assert rec.kind is FaultKind.CHUNK_LOSS
        assert rec.stage == "R"  # experienced by the consumer's read
        assert rec.component == "em1.ana1"
        assert rec.recovery_time >= 20.0

    def test_degrade_drops_analysis_and_completes(self):
        spec, placement = _spec(), _placement()
        result = run_ensemble(
            spec,
            placement,
            seed=0,
            failure_model=ScheduledFailureModel(
                [_crash(component="em1.ana1", stage="A", step=2)]
            ),
            recovery=DropAnalysisPolicy(),
        )
        assert result.fault_log.dropped_components == ["em1.ana1"]
        # the simulation still ran all of its steps
        sim_records = [
            r
            for r in result.tracer.records
            if r.component == "em1.sim" and r.stage.value == "S"
        ]
        assert len(sim_records) == spec.members[0].n_steps

    def test_dropped_simulation_fails_both_engines(self):
        # a policy that drops whatever crashed, simulations included:
        # the serial run must fail like the delta replay does, not
        # return the two steps traced before the drop
        class DropAll(RecoveryPolicy):
            name = "drop-all"

            def on_crash(self, ctx, attempt):
                return RecoveryAction("drop", 0.0)

        spec, placement = _spec(n_steps=6), _placement()
        model = ScheduledFailureModel([_crash(component="em1.sim", step=2)])
        with pytest.raises(AnalysisDropped, match="em1.sim dropped at step 2"):
            run_ensemble(
                spec, placement, failure_model=model, recovery=DropAll()
            )
        with pytest.raises(AnalysisDropped, match="em1.sim dropped at step 2"):
            replay_schedules(
                [capture_timeline(spec, placement)],
                [model.build_schedule(spec)],
                DropAll(),
            )

    def test_checkpoint_restart_costs_more_late_in_period(self):
        spec, placement = _spec(), _placement()

        def makespan(step):
            return run_ensemble(
                spec,
                placement,
                seed=0,
                failure_model=ScheduledFailureModel([_crash(step=step)]),
                recovery=CheckpointRestartPolicy(period=5),
            ).ensemble_makespan

        assert makespan(4) > makespan(1)


class TestFaultLog:
    def _record(self, **kwargs):
        defaults = dict(
            member="em1",
            component="em1.sim",
            stage="S",
            step=0,
            kind=FaultKind.CRASH,
            policy="retry",
            detected=10.0,
            recovered=12.5,
            lost_work=3.0,
        )
        defaults.update(kwargs)
        return FaultRecord(**defaults)

    def test_aggregates(self):
        log = FaultLog()
        log.record(self._record())
        log.record(
            self._record(kind=FaultKind.STALL, detected=20.0, recovered=21.0)
        )
        assert len(log) == 2
        assert log.recovery_times == [2.5, 1.0]
        assert log.lost_work_total == 6.0
        assert log.counts_by_kind() == {"crash": 1, "stall": 1}
        assert len(log.of_kind(FaultKind.CRASH)) == 1

    def test_summary_renders(self):
        log = FaultLog()
        assert "no faults" in log.summary()
        log.record(self._record())
        log.mark_dropped("em1.ana1")
        text = log.summary()
        assert "crash=1" in text
        assert "em1.ana1" in text


class TestInjectorUnit:
    def test_requires_a_schedule(self):
        with pytest.raises(ValidationError):
            FaultInjector(schedule=None)

    def test_empty_site_is_single_body_pass(self):
        env = Environment()
        injector = FaultInjector(FaultSchedule(()))
        ctx = StageContext(
            member="em1",
            component="em1.sim",
            stage="S",
            step=0,
            duration=3.0,
        )

        def proc(env):
            yield from injector.execute(env, ctx)

        env.process(proc(env))
        env.run()
        assert env.now == 3.0
        assert len(injector.log) == 0

    def test_analysis_dropped_signals_component(self):
        env = Environment()
        injector = FaultInjector(
            FaultSchedule(
                [_crash(component="em1.ana1", stage="A", step=2)]
            ),
            policy=DropAnalysisPolicy(),
        )
        ctx = StageContext(
            member="em1",
            component="em1.ana1",
            stage="A",
            step=2,
            duration=3.0,
        )
        captured = {}

        def proc(env):
            try:
                yield from injector.execute(env, ctx)
            except AnalysisDropped as exc:
                captured["exc"] = exc

        env.process(proc(env))
        env.run()
        assert captured["exc"].component == "em1.ana1"
        assert captured["exc"].step == 2
        assert injector.log.dropped_components == ["em1.ana1"]

    def test_caller_supplied_empty_log_receives_records(self):
        # an empty FaultLog is falsy; the injector must still keep it
        log = FaultLog()
        env = Environment()
        injector = FaultInjector(FaultSchedule([_crash(step=0)]), log=log)
        ctx = StageContext(
            member="em1",
            component="em1.sim",
            stage="S",
            step=0,
            duration=3.0,
        )

        def proc(env):
            yield from injector.execute(env, ctx)

        env.process(proc(env))
        env.run()
        assert injector.log is log
        assert len(log) == 1
        assert log.records[0].kind is FaultKind.CRASH
