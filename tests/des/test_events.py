"""Tests for DES event primitives: lifecycle, the all-of join."""

import pytest

from repro.des.engine import Environment
from repro.util.errors import SimulationError, ValidationError


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self, env):
        ev = env.event()
        ev.succeed(41)
        env.run()
        assert ev.ok
        assert ev.value == 41

    def test_fail_carries_exception(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        env.run()
        assert not ev.ok
        with pytest.raises(RuntimeError, match="boom"):
            _ = ev.value

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError())

    def test_fail_requires_exception_instance(self, env):
        with pytest.raises(ValidationError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().ok


class TestAllOf:
    def test_triggers_when_all_done(self, env):
        order = []

        def waiter(env, evs):
            result = yield env.all_of(evs)
            order.append(("all", env.now, sorted(result.values())))

        def fire(env, ev, delay, value):
            yield env.timeout(delay)
            ev.succeed(value)

        evs = [env.event() for _ in range(3)]
        env.process(waiter(env, evs))
        for i, ev in enumerate(evs):
            env.process(fire(env, ev, float(i + 1), i * 10))
        env.run()
        assert order == [("all", 3.0, [0, 10, 20])]

    def test_empty_all_of_triggers_immediately(self, env):
        done = []

        def waiter(env):
            yield env.all_of([])
            done.append(env.now)

        env.process(waiter(env))
        env.run()
        assert done == [0.0]

    def test_failure_propagates(self, env):
        caught = []

        def waiter(env, evs):
            try:
                yield env.all_of(evs)
            except RuntimeError as exc:
                caught.append(str(exc))

        def fail_one(env, ev):
            yield env.timeout(1.0)
            ev.fail(RuntimeError("member died"))

        evs = [env.event(), env.event()]
        env.process(waiter(env, evs))
        env.process(fail_one(env, evs[0]))
        env.run()
        assert caught == ["member died"]

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(ValidationError):
            env.all_of([env.event(), other.event()])
