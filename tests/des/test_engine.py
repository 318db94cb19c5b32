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
