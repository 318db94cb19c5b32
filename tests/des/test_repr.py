"""Tests for the DES debugging reprs."""

from repro.des.engine import Environment


class TestEventRepr:
    def test_pending(self):
        env = Environment()
        assert repr(env.event()) == "<Event pending>"

    def test_triggered_shows_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed("payload")
        assert "triggered" in repr(ev)
        assert "'payload'" in repr(ev)

    def test_long_values_truncated(self):
        env = Environment()
        ev = env.event()
        ev.succeed("x" * 200)
        assert len(repr(ev)) < 80
        assert "..." in repr(ev)

    def test_failed_shows_exception_type(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        assert "exception=RuntimeError" in repr(ev)
        ev._exception = None  # avoid unraisable warning on gc
        env.run()


class TestTimeoutRepr:
    def test_shows_delay_and_due_time(self):
        env = Environment()
        made = []

        def proc(env):
            yield env.timeout(2.0)
            made.append(env.timeout(3.5))
            made.append(repr(made[0]))

        env.process(proc(env))
        env.run()
        t, text = made
        assert "delay=3.5" in text
        assert "due=t5.5" in text
        assert "triggered" in text
        assert "processed" in repr(t)


class TestProcessRepr:
    def test_alive_shows_name_time_and_wait_target(self):
        env = Environment()

        def worker(env):
            yield env.timeout(1.0)
            yield env.event()  # never triggers

        proc = env.process(worker(env))
        text = repr(proc)
        assert "worker" in text
        assert "alive" in text
        env.run()  # the queue empties with the worker still waiting
        assert "waiting_on=Event" in repr(proc)

    def test_finished(self):
        env = Environment()

        def quick(env):
            yield env.timeout(0.5)

        proc = env.process(quick(env))
        env.run()
        assert "finished" not in repr(proc)  # state name is processed
        assert "processed" in repr(proc)
        assert not proc.is_alive
