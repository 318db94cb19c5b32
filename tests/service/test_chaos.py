"""Chaos hardening: mixed job kinds under crash injection and restart.

The service's contract is that chaos is invisible in the results:
worker crashes are retried, restarts leave pending jobs observable
and re-submittable, and the digest-keyed result cache guarantees one
payload per request no matter how many threads race. These tests fire
a mixed plan / des-rank / reschedule / coschedule job stream from
several submitter threads while an ``execute_fn`` wrapper injects
periodic worker crashes, then assert the three invariants named by
the issue: no lost jobs, no duplicate digests with differing
payloads, and counters consistent with the ``GET /stats`` payload.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.coschedule import EnsembleRequest
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.service.api import PlacementServer
from repro.service.cache import ResultCache
from repro.service.client import PlacementClient
from repro.service.jobs import JobState
from repro.service.schemas import CoscheduleOptions, PlacementRequest
from repro.service.workers import PlacementService, execute_request

SUBMITTER_THREADS = 4
CRASH_EVERY = 5  # every 5th execution raises — retries must absorb it


def _spec(name: str, members: int = 1, n_steps: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        name,
        tuple(
            default_member(
                f"{name}-m{i}",
                num_analyses=1,
                n_steps=n_steps,
                sim_cores=16,
                ana_cores=8,
            )
            for i in range(members)
        ),
    )


def _mixed_requests() -> list:
    """One request per service kind: plan, des-rank, reschedule,
    coschedule — small enough that a full chaos round stays fast."""
    plan = PlacementRequest(kind="search", spec=_spec("plan"), num_nodes=2)
    rank_spec = _spec("rank")
    des_rank = PlacementRequest(
        kind="rank",
        spec=rank_spec,
        num_nodes=2,
        candidates={
            "colocated": EnsemblePlacement(2, (MemberPlacement(0, (0,)),)),
            "split": EnsemblePlacement(2, (MemberPlacement(0, (1,)),)),
        },
        robust_rate=0.05,
        rank_method="des",
        trials=2,
    )
    resched_spec = EnsembleSpec(
        "resched",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=8)
            for i in range(3)
        ),
    )
    reschedule = PlacementRequest(
        kind="reschedule",
        spec=resched_spec,
        num_nodes=4,
        placement=EnsemblePlacement(
            4, tuple(MemberPlacement(i, (i,)) for i in range(3))
        ),
    )
    stream = (
        EnsembleRequest(name="co-a", spec=_spec("co-a")),
        EnsembleRequest(
            name="co-b", spec=_spec("co-b"), arrival_time=10.0, priority=1
        ),
    )
    coschedule = PlacementRequest(
        kind="coschedule",
        spec=stream[0].spec,
        num_nodes=4,
        coschedule=CoscheduleOptions(requests=stream),
    )
    return [plan, des_rank, reschedule, coschedule]


class _CrashInjector:
    """Wrap the real executor; raise on every ``every``-th call."""

    def __init__(self, every: int = CRASH_EVERY) -> None:
        self.every = every
        self.calls = 0
        self.crashes = 0
        self._lock = threading.Lock()

    def __call__(self, request, stage_cache=None):
        with self._lock:
            self.calls += 1
            crash = self.calls % self.every == 0
            if crash:
                self.crashes += 1
        if crash:
            raise RuntimeError("injected worker crash")
        return execute_request(request, stage_cache=stage_cache)


def _assert_chaos_invariants(service, jobs) -> None:
    """No lost jobs, no conflicting digests, stats-consistent."""
    payload_by_digest = {}
    for job in jobs:
        finished = service.wait(job.id, timeout=120.0)
        assert finished.state is JobState.DONE, finished.error
        rendered = json.dumps(finished.result, sort_keys=True)
        previous = payload_by_digest.setdefault(finished.digest, rendered)
        assert previous == rendered, (
            f"digest {finished.digest[:12]} mapped to two payloads"
        )
    stats = service.stats()
    queue = stats["queue"]
    assert queue["submitted"] == len(jobs)
    assert queue["done"] == len(jobs)
    assert queue["failed"] == 0
    assert queue["pending"] == 0 and queue["running"] == 0
    # every submit() consulted the result cache exactly once
    cache = stats["result_cache"]
    assert cache["hits"] + cache["misses"] == len(jobs)
    assert cache["size"] == len(_mixed_requests())


@pytest.mark.slow
class TestMixedChaos:
    def test_threads_and_crashes_lose_nothing(self):
        injector = _CrashInjector()
        jobs = []
        jobs_lock = threading.Lock()
        with PlacementService(
            workers=3, max_retries=CRASH_EVERY, execute_fn=injector
        ) as service:

            def submitter(offset: int) -> None:
                batch = _mixed_requests()
                rotated = batch[offset:] + batch[:offset]
                for request in rotated:
                    job = service.submit(request)
                    with jobs_lock:
                        jobs.append(job)

            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(SUBMITTER_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert len(jobs) == SUBMITTER_THREADS * len(_mixed_requests())
            _assert_chaos_invariants(service, jobs)
            assert injector.crashes > 0, "chaos must actually fire"

    def test_coschedule_digest_unique_per_payload_under_race(self):
        """Racing duplicate coschedule submissions coalesce onto one
        digest and one payload — never recomputed divergently."""
        request = _mixed_requests()[3]
        jobs = []
        with PlacementService(workers=2) as service:
            for _ in range(6):
                jobs.append(service.submit(request))
            results = {
                json.dumps(
                    service.wait(job.id, timeout=120.0).result,
                    sort_keys=True,
                )
                for job in jobs
            }
            assert len(results) == 1
            assert len({job.digest for job in jobs}) == 1


@pytest.mark.slow
class TestWorkerRestart:
    def test_stop_midflight_then_resume_on_fresh_pool(self):
        """Killing the pool mid-stream loses nothing: pending jobs stay
        observable, and a restarted service sharing the result cache
        finishes the stream with cache-consistent payloads."""
        release = threading.Event()
        started = threading.Event()

        def stalling(request, stage_cache=None):
            started.set()
            if not release.wait(30.0):  # pragma: no cover - timeout guard
                raise RuntimeError("release never fired")
            return execute_request(request, stage_cache=stage_cache)

        shared_cache = ResultCache()
        requests = _mixed_requests()
        first = PlacementService(
            workers=1, result_cache=shared_cache, execute_fn=stalling
        )
        first.start()
        submitted = [first.submit(request) for request in requests]
        assert started.wait(10.0)
        stopper = threading.Thread(target=first.stop)
        stopper.start()
        release.set()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()
        states = [first.queue.poll(job.id).state for job in submitted]
        assert JobState.DONE in states  # the in-flight job resolved
        assert all(
            state in (JobState.DONE, JobState.PENDING) for state in states
        )
        # restart: a fresh pool over the same result cache re-runs only
        # what the first life never finished
        with PlacementService(
            workers=2, result_cache=shared_cache
        ) as second:
            finished = [
                second.wait(second.submit(request).id, timeout=120.0)
                for request in requests
            ]
        assert all(job.state is JobState.DONE for job in finished)
        done_first = sum(1 for state in states if state is JobState.DONE)
        cached_second = sum(1 for job in finished if job.cached)
        assert cached_second >= done_first


@pytest.mark.slow
class TestStatsOverHttp:
    def test_get_stats_matches_service_counters(self):
        """The ``GET /stats`` wire payload is the same ledger the
        service keeps internally — including the coschedule section."""
        injector = _CrashInjector()
        service = PlacementService(
            workers=2, max_retries=CRASH_EVERY, execute_fn=injector
        )
        with (
            PlacementServer(service=service, port=0) as server,
            PlacementClient(server.url) as client,
        ):
            snapshots = [
                client.wait(client.submit(request)["id"], timeout=120.0)
                for request in _mixed_requests()
            ]
            assert all(s["state"] == "done" for s in snapshots)
            wire = client.stats()
            local = service.stats()
            assert wire["queue"] == local["queue"]
            assert wire["result_cache"] == local["result_cache"]
            assert wire["coschedule"] == local["coschedule"]
            assert wire["queue"]["done"] == len(snapshots)
            assert (
                wire["result_cache"]["hits"]
                + wire["result_cache"]["misses"]
                == len(snapshots)
            )
            assert wire["coschedule"]["streams"] >= 1
            assert wire["coschedule"]["completions"] >= 2
