"""Tests for the counted-capacity Resource."""

import pytest

from repro.des.resources import Resource
from repro.util.errors import SimulationError, ValidationError


class TestResourceBasics:
    def test_capacity_accounting(self, env):
        res = Resource(env, capacity=4)

        def proc(env, res):
            req = res.request(3)
            yield req
            assert res.in_use == 3
            assert res.available == 1
            res.release(req)
            assert res.in_use == 0

        env.process(proc(env, res))
        env.run()

    def test_invalid_capacity_rejected(self, env):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValidationError):
                Resource(env, capacity=bad)

    def test_request_larger_than_capacity_rejected(self, env):
        res = Resource(env, capacity=2)
        with pytest.raises(ValidationError):
            res.request(3)

    def test_invalid_request_amount_rejected(self, env):
        res = Resource(env, capacity=2)
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValidationError):
                res.request(bad)

    def test_release_ungranted_request_rejected(self, env):
        res = Resource(env, capacity=1)

        def holder(env, res):
            req = res.request(1)
            yield req
            yield env.timeout(10.0)
            res.release(req)

        env.process(holder(env, res))
        env.run(until=1.0)
        waiting = res.request(1)  # queued, not granted
        with pytest.raises(SimulationError):
            res.release(waiting)

    def test_release_to_wrong_resource_rejected(self, env):
        res1 = Resource(env, capacity=1)
        res2 = Resource(env, capacity=1)

        def proc(env):
            req = res1.request(1)
            yield req
            with pytest.raises(SimulationError):
                res2.release(req)

        env.process(proc(env))
        env.run()


class TestQueueing:
    def test_fifo_grants(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, res, name):
            req = res.request(1)
            yield req
            order.append(name)
            yield env.timeout(1.0)
            res.release(req)

        for name in ("a", "b", "c"):
            env.process(worker(env, res, name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_head_of_line_blocking(self, env):
        # strict FIFO: a big request at the head blocks smaller later ones
        res = Resource(env, capacity=4)
        log = []

        def holder(env, res):
            req = res.request(3)
            yield req
            yield env.timeout(10.0)
            res.release(req)
            log.append(("holder-released", env.now))

        def big(env, res):
            yield env.timeout(1.0)
            req = res.request(4)
            yield req
            log.append(("big", env.now))
            res.release(req)

        def small(env, res):
            yield env.timeout(2.0)  # arrives after 'big' queued
            req = res.request(1)
            yield req
            log.append(("small", env.now))
            res.release(req)

        env.process(holder(env, res))
        env.process(big(env, res))
        env.process(small(env, res))
        env.run()
        # small must NOT overtake big even though 1 core was free
        assert log == [
            ("holder-released", 10.0),
            ("big", 10.0),
            ("small", 10.0),
        ]

    def test_queue_length(self, env):
        res = Resource(env, capacity=1)

        def holder(env, res):
            req = res.request(1)
            yield req
            yield env.timeout(5.0)
            res.release(req)

        env.process(holder(env, res))
        env.run(until=1.0)
        res.request(1)
        res.request(1)
        assert res.queue_length == 2
