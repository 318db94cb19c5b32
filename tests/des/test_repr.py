"""Tests for the DES debugging reprs and EmptySchedule diagnostics."""

import pytest

from repro.des.engine import EmptySchedule, Environment


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
        env.timeout(5.0)  # keeps the queue alive past the horizon
        env.run(until=2.0)
        t = env.timeout(3.5)
        text = repr(t)
        assert "delay=3.5" in text
        assert "due=t5.5" in text
        assert "triggered" in text
        env.run()
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
        try:
            env.run()
        except EmptySchedule:
            pass
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


class TestEmptyScheduleDiagnostics:
    def test_names_stalled_processes(self):
        env = Environment()

        def stuck(env):
            yield env.event()

        env.process(stuck(env))
        with pytest.raises(EmptySchedule) as exc:
            env.run(until=env.event())
        message = str(exc.value)
        assert "stuck" in message
        assert "1 processes still alive" in message

    def test_no_processes_case(self):
        env = Environment()
        with pytest.raises(EmptySchedule) as exc:
            env.run(until=env.event())
        assert "no processes are still alive" in str(exc.value)
