"""PlacementService: execution, cache-first submit, retry, timeout.

The fault-injection tests substitute ``execute_fn`` — a crashing,
slow, or counting stand-in — so the retry/timeout machinery is
exercised without real placement work. The end-to-end tests run the
real :func:`execute_request` on small specs.
"""

from __future__ import annotations

import threading

import pytest

from repro.coschedule import canonical_mixed_deadline_stream
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.objectives import score_placement
from repro.search.engine import find_best_placement
from repro.service.cache import ResultCache
from repro.service.jobs import JobState
from repro.service.schemas import (
    CoscheduleOptions,
    PlacementRequest,
    score_from_dict,
)
from repro.service.workers import PlacementService, execute_request
from repro.util.errors import ValidationError


def _spec(n_steps: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        "svc", (default_member("em1", num_analyses=1, n_steps=n_steps),)
    )


def _search(num_nodes: int = 2, n_steps: int = 2) -> PlacementRequest:
    return PlacementRequest(
        kind="search", spec=_spec(n_steps), num_nodes=num_nodes
    )


class TestExecuteRequest:
    def test_search_matches_engine(self):
        request = _search()
        payload = execute_request(request)
        best, evaluated = find_best_placement(
            request.spec, request.num_nodes, request.cores_per_node
        )
        assert payload["evaluated"] == evaluated
        assert score_from_dict(payload["score"]) == best
        assert payload["score"]["objective"] == best.objective

    def test_score_matches_scorer(self):
        spec = _spec()
        placement = EnsemblePlacement(2, (MemberPlacement(0, (1,)),))
        request = PlacementRequest(
            kind="score", spec=spec, num_nodes=2, placement=placement
        )
        payload = execute_request(request)
        direct = score_placement(spec, placement)
        assert payload["score"]["objective"] == direct.objective
        assert payload["score"]["ensemble_makespan"] == direct.ensemble_makespan

    def test_rank_orders_best_first(self):
        spec = _spec()
        candidates = {
            "colocated": EnsemblePlacement(2, (MemberPlacement(0, (0,)),)),
            "split": EnsemblePlacement(2, (MemberPlacement(0, (1,)),)),
        }
        request = PlacementRequest(
            kind="rank",
            spec=spec,
            num_nodes=2,
            candidates=candidates,
            robust_rate=0.01,
        )
        payload = execute_request(request)
        names = [entry["name"] for entry in payload["ranking"]]
        assert sorted(names) == ["colocated", "split"]
        objectives = [entry["objective"] for entry in payload["ranking"]]
        assert objectives == sorted(objectives, reverse=True)


class TestCoschedulePath:
    def test_budget_above_the_physical_node_is_done_first_time(self):
        # a 48-core budget on the 32-core node: admission rejects the
        # ensembles the allocator's search refuses, so the job neither
        # fails nor retries
        stream = tuple(canonical_mixed_deadline_stream())
        request = PlacementRequest(
            kind="coschedule",
            spec=stream[0].spec,
            num_nodes=6,
            cores_per_node=48,
            coschedule=CoscheduleOptions(requests=stream),
        )
        with PlacementService(workers=1, max_retries=1) as service:
            job = service.submit(request)
            finished = service.wait(job.id, timeout=60.0)
        assert finished.state is JobState.DONE
        assert finished.attempts == 1
        decisions = finished.result["coschedule"]["decisions"]
        assert [d["action"] for d in decisions] == [
            "reject", "reject", "accept", "reject"
        ]


class TestServiceLifecycle:
    def test_submit_wait_done(self):
        with PlacementService(workers=2) as service:
            job = service.submit(_search())
            finished = service.wait(job.id, timeout=30.0)
            assert finished.state is JobState.DONE
            assert not finished.cached
            assert finished.result["score"]["objective"] > 0

    def test_wait_unknown_job_raises(self):
        with PlacementService(workers=1) as service:
            with pytest.raises(ValidationError, match="unknown job"):
                service.wait("job-nope", timeout=1.0)

    def test_stop_leaves_pending_jobs_observable(self):
        started = threading.Event()
        release = threading.Event()

        def stalling(request, stage_cache=None):
            started.set()
            release.wait(10.0)
            return {"ok": True}

        service = PlacementService(workers=1, execute_fn=stalling)
        service.start()
        running = service.submit(_search(num_nodes=2))
        assert started.wait(5.0)
        pending = service.submit(_search(num_nodes=3))
        # initiate shutdown while the worker is mid-job, then release:
        # stop() flags the pool before the worker can claim the second
        # job, so the in-flight one resolves and the queued one stays
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        assert service._stopping.wait(5.0)  # stop() has flagged the pool
        release.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        # the in-flight job resolved; the queued one stayed pending
        assert service.queue.poll(running.id).state is JobState.DONE
        assert service.queue.poll(pending.id).state is JobState.PENDING

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            PlacementService(workers=0)
        with pytest.raises(ValidationError):
            PlacementService(max_retries=-1)

    @pytest.mark.parametrize(
        "job_timeout", [-1.0, 0, 0.0, float("nan"), float("inf"), True, "30"]
    )
    def test_job_timeout_must_be_positive_seconds(self, job_timeout):
        with pytest.raises(ValidationError, match="job_timeout"):
            PlacementService(job_timeout=job_timeout)

    @pytest.mark.parametrize("max_retries", [-1, 1.5, True, "1", None])
    def test_max_retries_must_be_a_non_negative_int(self, max_retries):
        with pytest.raises(ValidationError, match="max_retries"):
            PlacementService(max_retries=max_retries)

    @pytest.mark.parametrize("job_timeout", [None, 0.5, 30])
    def test_valid_deadlines_are_kept(self, job_timeout):
        service = PlacementService(job_timeout=job_timeout, max_retries=0)
        assert service.job_timeout == job_timeout
        assert service.stats()["job_timeout"] == job_timeout


class TestResultCachePath:
    def test_second_submit_is_cache_hit(self):
        with PlacementService(workers=1) as service:
            first = service.wait(service.submit(_search()).id, timeout=30.0)
            second = service.submit(_search())
            assert second.state is JobState.DONE
            assert second.cached
            assert second.result == first.result
            stats = service.result_cache.stats()
            assert stats["hits"] == 1

    def test_empty_caller_cache_is_kept(self):
        # regression: an empty ResultCache is falsy (len 0), so the old
        # ``result_cache or ResultCache()`` silently swapped in a fresh
        # one and shared-cache restarts never saw prior results
        cache = ResultCache()
        service = PlacementService(workers=1, result_cache=cache)
        assert service.result_cache is cache

    def test_distinct_requests_miss(self):
        with PlacementService(workers=1) as service:
            service.wait(service.submit(_search(num_nodes=2)).id, 30.0)
            other = service.submit(_search(num_nodes=3))
            assert other.state is JobState.PENDING
            service.wait(other.id, timeout=30.0)

    def test_pending_duplicates_coalesce(self):
        release = threading.Event()
        claimed = threading.Event()
        calls = []

        def slow_once(request, stage_cache=None):
            calls.append(request.num_nodes)
            claimed.set()
            release.wait(10.0)
            return {"computed": request.num_nodes}

        with PlacementService(workers=1, execute_fn=slow_once) as service:
            jobs = [service.submit(_search()) for _ in range(3)]
            assert claimed.wait(5.0)  # the worker holds the first job
            release.set()
            snapshots = [service.wait(j.id, timeout=10.0) for j in jobs]
            assert [s.result for s in snapshots] == [
                {"computed": 2}
            ] * 3
            # only one execution: duplicates were coalesced or served
            # from the result cache, never recomputed
            assert len(calls) == 1
            assert sum(1 for s in snapshots if s.cached) == 2


class TestRetryAndTimeout:
    def test_crash_retries_then_succeeds(self):
        attempts = []

        def flaky(request, stage_cache=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient worker crash")
            return {"ok": True}

        with PlacementService(
            workers=1, max_retries=1, execute_fn=flaky
        ) as service:
            job = service.submit(_search())
            finished = service.wait(job.id, timeout=10.0)
            assert finished.state is JobState.DONE
            assert finished.attempts == 2
            assert len(attempts) == 2

    def test_retries_exhausted_fails_with_error(self):
        def always_crashes(request, stage_cache=None):
            raise RuntimeError("hard crash")

        with PlacementService(
            workers=1, max_retries=2, execute_fn=always_crashes
        ) as service:
            job = service.submit(_search())
            finished = service.wait(job.id, timeout=10.0)
            assert finished.state is JobState.FAILED
            assert finished.attempts == 3  # 1 initial + 2 retries
            assert "RuntimeError" in finished.error
            assert "hard crash" in finished.error

    def test_zero_retries_fails_on_first_crash(self):
        def crashes(request, stage_cache=None):
            raise ValueError("no second chance")

        with PlacementService(
            workers=1, max_retries=0, execute_fn=crashes
        ) as service:
            finished = service.wait(
                service.submit(_search()).id, timeout=10.0
            )
            assert finished.state is JobState.FAILED
            assert finished.attempts == 1

    def test_job_timeout_fails_job(self):
        hang = threading.Event()

        def stalls(request, stage_cache=None):
            hang.wait(30.0)
            return {"too": "late"}

        with PlacementService(
            workers=1, job_timeout=0.1, execute_fn=stalls
        ) as service:
            finished = service.wait(
                service.submit(_search()).id, timeout=10.0
            )
            assert finished.state is JobState.FAILED
            assert "timeout" in finished.error
            hang.set()  # release the abandoned daemon thread

    def test_fast_job_beats_timeout(self):
        with PlacementService(workers=1, job_timeout=60.0) as service:
            finished = service.wait(
                service.submit(_search()).id, timeout=30.0
            )
            assert finished.state is JobState.DONE

    def test_crash_results_never_cached(self):
        def crashes(request, stage_cache=None):
            raise RuntimeError("boom")

        cache = ResultCache()
        with PlacementService(
            workers=1, max_retries=0, result_cache=cache, execute_fn=crashes
        ) as service:
            service.wait(service.submit(_search()).id, timeout=10.0)
            assert len(cache) == 0


class TestStats:
    def test_stats_shape(self):
        with PlacementService(workers=2) as service:
            service.wait(service.submit(_search()).id, timeout=30.0)
            stats = service.stats()
            assert stats["workers"] == 2
            assert stats["queue"]["submitted"] == 1
            assert stats["queue"]["done"] == 1
            assert set(stats["result_cache"]) == {
                "hits", "misses", "evictions", "size", "max_entries"
            }
            assert set(stats["stage_cache"]) == {
                "stage_hits", "stage_misses", "node_hits", "node_misses"
            }
            # the search populated some worker's stage cache
            assert stats["stage_cache"]["stage_misses"] > 0


class TestDesRankPath:
    def _rank_request(self, **overrides):
        spec = _spec()
        fields = dict(
            kind="rank",
            spec=spec,
            num_nodes=2,
            candidates={
                "colocated": EnsemblePlacement(
                    2, (MemberPlacement(0, (0,)),)
                ),
                "split": EnsemblePlacement(2, (MemberPlacement(0, (1,)),)),
            },
            robust_rate=0.05,
        )
        fields.update(overrides)
        return PlacementRequest(**fields)

    def test_des_rank_matches_batched_engine_directly(self):
        from repro.faults.recovery import RetryBackoffPolicy
        from repro.scheduler.robust import (
            crash_straggler_factory,
            rank_placements_robust,
            robust_score_placement,
        )

        request = self._rank_request(rank_method="des", trials=4)
        payload = execute_request(request)
        factory = crash_straggler_factory(request.robust_rate)
        direct = rank_placements_robust(
            request.spec,
            request.candidates,
            factory,
            RetryBackoffPolicy(),
            trials=4,
            base_seed=request.base_seed,
            method="des",
        )
        # the serial DES reference: retry recovery replays exactly
        serial = sorted(
            (
                robust_score_placement(
                    request.spec,
                    placement,
                    factory,
                    RetryBackoffPolicy(),
                    trials=4,
                    base_seed=request.base_seed,
                    name=name,
                )
                for name, placement in request.candidates.items()
            ),
            reverse=True,
        )
        for ranking in (direct, serial):
            assert [e["name"] for e in payload["ranking"]] == [
                s.name for s in ranking
            ]
            assert [e["objective"] for e in payload["ranking"]] == [
                s.objective for s in ranking
            ]

    def test_des_rank_scores_carry_trials(self):
        payload = execute_request(
            self._rank_request(rank_method="des", trials=2)
        )
        assert all(e["trials"] == 2 for e in payload["ranking"])

    def test_stats_surface_engine_counters(self):
        with PlacementService(workers=1) as service:
            job = service.submit(
                self._rank_request(rank_method="des", trials=3)
            )
            service.wait(job.id, timeout=60.0)
            assert service.stats()["batched"] == {
                "baseline_sims": 2,
                "replicas_replayed": 2 * 3,
            }
