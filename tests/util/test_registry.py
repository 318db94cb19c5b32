"""Counters: declared sections, context-scoped counting, thread safety."""

from __future__ import annotations

import contextvars
import sys
import threading

import pytest

from repro.util.registry import Counters, count, counting


def _jobs() -> Counters:
    return Counters(jobs=("started", "done"), cache=("hits",))


class TestCounters:
    def test_declared_keys_read_zero_in_declaration_order(self):
        snapshot = Counters(b=("y", "x"), a=("z",)).snapshot()
        assert snapshot == {"b": {"y": 0, "x": 0}, "a": {"z": 0}}
        assert list(snapshot) == ["b", "a"]
        assert list(snapshot["b"]) == ["y", "x"]

    def test_count_adds_to_one_key(self):
        with counting(_jobs()) as counters:
            count("jobs", "done", 3)
            count("jobs", "done")
        assert counters.snapshot() == {
            "jobs": {"started": 0, "done": 4},
            "cache": {"hits": 0},
        }

    @pytest.mark.parametrize(
        "section, key", [("jobs", "missing"), ("missing", "done")]
    )
    def test_undeclared_counter_raises(self, section, key):
        with counting(_jobs()), pytest.raises(KeyError):
            count(section, key)

    def test_snapshot_is_a_copy(self):
        counters = _jobs()
        counters.snapshot()["jobs"]["done"] = 99
        assert counters.snapshot()["jobs"]["done"] == 0


class TestCounting:
    def test_count_outside_counting_changes_nothing(self):
        counters = _jobs()
        before = counters.snapshot()
        count("jobs", "done")
        count("no-such-section", "no-such-key", 5)  # dropped, not raised
        with counting(counters):
            pass
        count("jobs", "done")
        assert counters.snapshot() == before

    def test_counts_land_in_the_entered_registry(self):
        outer, inner = _jobs(), _jobs()
        with counting(outer):
            count("jobs", "started")
            with counting(inner):
                count("jobs", "done", 2)
            count("cache", "hits")
        assert outer.snapshot() == {
            "jobs": {"started": 1, "done": 0},
            "cache": {"hits": 1},
        }
        assert inner.snapshot() == {
            "jobs": {"started": 0, "done": 2},
            "cache": {"hits": 0},
        }

    def test_a_new_thread_counts_only_with_the_copied_context(self):
        counters = _jobs()
        with counting(counters):
            bare = threading.Thread(target=count, args=("jobs", "started"))
            copied = threading.Thread(
                target=contextvars.copy_context().run,
                args=(count, "jobs", "done"),
            )
            for thread in (bare, copied):
                thread.start()
                thread.join()
        assert counters.snapshot()["jobs"] == {"started": 0, "done": 1}

    def test_threads_counting_into_one_registry_sum_exactly(self):
        counters = _jobs()
        threads, per_thread = 8, 5_000

        def work() -> None:
            with counting(counters):
                for _ in range(per_thread):
                    count("jobs", "done")
                    count("cache", "hits", 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert counters.snapshot() == {
            "jobs": {"started": 0, "done": threads * per_thread},
            "cache": {"hits": 2 * threads * per_thread},
        }
