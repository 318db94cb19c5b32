"""Tests for DES processes: resumption, completion, errors."""

import pytest

from repro.des.engine import Environment
from repro.util.errors import SimulationError, ValidationError


class TestProcessBasics:
    def test_process_is_an_event_with_return_value(self, env):
        def child(env):
            yield env.timeout(1.0)
            return "done"

        def parent(env):
            value = yield env.process(child(env))
            return f"child said {value}"

        p = env.process(parent(env))
        env.run()
        assert p.value == "child said done"

    def test_non_generator_rejected(self, env):
        with pytest.raises(ValidationError):
            env.process(lambda: None)

    def test_is_alive_tracks_completion(self, env):
        def proc(env):
            yield env.timeout(1.0)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_yielding_non_event_fails_the_process(self, env):
        def proc(env):
            yield 42

        p = env.process(proc(env))
        env.run()
        assert p.triggered and not p.ok
        with pytest.raises(SimulationError, match="non-event"):
            _ = p.value

    def test_exception_inside_process_fails_it(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise KeyError("oops")

        p = env.process(proc(env))
        env.run()
        with pytest.raises(KeyError):
            _ = p.value

    def test_waiting_on_already_processed_event(self, env):
        def early(env, ev):
            yield env.timeout(1.0)
            ev.succeed("x")

        def late(env, ev):
            yield env.timeout(5.0)
            value = yield ev  # already processed by now
            return value

        ev = env.event()
        env.process(early(env, ev))
        p = env.process(late(env, ev))
        env.run()
        assert p.value == "x"
        assert env.now == 5.0

    def test_cross_environment_yield_fails(self, env):
        other = Environment()

        def proc(env):
            yield other.timeout(1.0)

        p = env.process(proc(env))
        env.run()
        assert not p.ok
