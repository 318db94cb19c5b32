"""Tests for the DES environment: clock, scheduling, run modes."""

import pytest

from repro.des.engine import Environment
from repro.util.errors import ValidationError


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_timeout_advances_clock(self, env):
        def proc(env):
            yield env.timeout(2.5)

        env.process(proc(env))
        env.run()
        assert env.now == 2.5


class TestRunModes:
    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return "payload"

        p = env.process(proc(env))
        assert env.run() is None
        assert p.value == "payload"

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(IndexError):
            env.step()


class TestDeterminism:
    def test_same_program_identical_trace(self):
        def program():
            env = Environment()
            log = []

            def worker(env, name, delay):
                yield env.timeout(delay)
                log.append((name, env.now))

            # deliberately simultaneous events
            for name in ("a", "b", "c"):
                env.process(worker(env, name, 1.0))
            env.run()
            return log

        assert program() == program()

    def test_simultaneous_events_fifo_by_creation(self, env):
        log = []

        def worker(env, name):
            yield env.timeout(1.0)
            log.append(name)

        for name in ("first", "second", "third"):
            env.process(worker(env, name))
        env.run()
        assert log == ["first", "second", "third"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValidationError):
            env.timeout(-1.0)


class TestNonFiniteDelays:
    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_delay_rejected_where_the_event_is_created(
        self, env, delay
    ):
        with pytest.raises(ValidationError, match="finite"):
            env.timeout(delay)
        with pytest.raises(ValidationError, match="finite"):
            env.schedule(env.event(), delay)
        env.run()
        assert env.now == 0.0  # nothing was queued

    def test_nan_delay_inside_a_process_fails_the_process(self, env):
        # before the check, a NaN timeout ran on with NaN clock times
        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(float("nan"))

        p = env.process(proc(env))
        env.run()
        assert env.now == 1.0
        with pytest.raises(ValidationError, match="finite"):
            p.value
