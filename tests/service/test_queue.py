"""PlacementJobQueue semantics: priority, lifecycle, determinism.

Exercised single-threaded — claim/complete/fail/requeue are called
directly, the way a worker would, so every ordering assertion is
deterministic. Only the blocking-wait tests add a waiter thread.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.runtime.spec import EnsembleSpec, default_member
from repro.service import jobs
from repro.service.jobs import JobState, PlacementJobQueue
from repro.service.schemas import PlacementRequest, canonical_digest
from repro.service.workers import PlacementService
from repro.util.errors import ValidationError


def _request(num_nodes: int = 2, n_steps: int = 2) -> PlacementRequest:
    spec = EnsembleSpec(
        "q", (default_member("em1", num_analyses=1, n_steps=n_steps),)
    )
    return PlacementRequest(kind="search", spec=spec, num_nodes=num_nodes)


class TestSubmitAndIds:
    def test_ids_are_deterministic(self):
        """Replaying a submission sequence reproduces the ids."""

        def run():
            queue = PlacementJobQueue()
            return [
                queue.submit(_request(num_nodes=n)).id for n in (2, 3, 2)
            ]

        first, second = run(), run()
        assert first == second
        assert first[0].startswith("job-000000-")
        assert first[1].startswith("job-000001-")

    def test_id_embeds_content_digest(self):
        queue = PlacementJobQueue()
        request = _request()
        job = queue.submit(request)
        digest = canonical_digest(request)
        assert job.digest == digest
        assert job.id == f"job-000000-{digest[:12]}"

    def test_closed_queue_refuses_submissions(self):
        queue = PlacementJobQueue()
        queue.close()
        with pytest.raises(ValidationError, match="closed"):
            queue.submit(_request())


class TestPriorityOrdering:
    def test_higher_priority_claims_first(self):
        queue = PlacementJobQueue()
        low = queue.submit(_request(num_nodes=2), priority=0)
        high = queue.submit(_request(num_nodes=3), priority=5)
        mid = queue.submit(_request(num_nodes=4), priority=3)
        order = [queue.claim_next(timeout=0).id for _ in range(3)]
        assert order == [high.id, mid.id, low.id]

    def test_equal_priority_is_fifo(self):
        queue = PlacementJobQueue()
        jobs = [queue.submit(_request(num_nodes=n)) for n in (2, 3, 4)]
        order = [queue.claim_next(timeout=0).id for _ in range(3)]
        assert order == [j.id for j in jobs]

    def test_update_priority_reorders_pending(self):
        queue = PlacementJobQueue()
        first = queue.submit(_request(num_nodes=2))
        second = queue.submit(_request(num_nodes=3))
        assert queue.update_priority(second.id, 10)
        assert queue.claim_next(timeout=0).id == second.id
        assert queue.claim_next(timeout=0).id == first.id

    def test_priority_decrease_honoured(self):
        """Stale (higher-priority) heap entries must be skipped."""
        queue = PlacementJobQueue()
        demoted = queue.submit(_request(num_nodes=2), priority=9)
        steady = queue.submit(_request(num_nodes=3), priority=5)
        assert queue.update_priority(demoted.id, 1)
        assert queue.claim_next(timeout=0).id == steady.id
        assert queue.claim_next(timeout=0).id == demoted.id

    def test_update_priority_rejects_non_pending(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.claim_next(timeout=0)
        assert not queue.update_priority(job.id, 7)
        assert not queue.update_priority("job-nope", 7)


class TestLifecycle:
    def test_claim_complete(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        claimed = queue.claim_next(timeout=0)
        assert claimed.id == job.id
        assert claimed.state is JobState.RUNNING
        assert claimed.attempts == 1
        queue.complete(job.id, {"score": 1})
        done = queue.poll(job.id)
        assert done.state is JobState.DONE
        assert done.result == {"score": 1}
        assert done.finished_at is not None

    def test_fail_records_error(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.claim_next(timeout=0)
        queue.fail(job.id, "boom")
        assert queue.poll(job.id).state is JobState.FAILED
        assert queue.poll(job.id).error == "boom"

    def test_requeue_returns_to_pending(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.claim_next(timeout=0)
        queue.requeue(job.id)
        assert queue.poll(job.id).state is JobState.PENDING
        reclaimed = queue.claim_next(timeout=0)
        assert reclaimed.id == job.id
        assert reclaimed.attempts == 2

    def test_complete_requires_running(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        with pytest.raises(ValidationError, match="expected running"):
            queue.complete(job.id, {})
        with pytest.raises(ValidationError, match="unknown job"):
            queue.fail("job-nope", "x")

    def test_cancel_pending_only(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        assert queue.cancel(job.id)
        assert queue.poll(job.id).state is JobState.CANCELLED
        assert not queue.cancel(job.id)  # already terminal
        running = queue.submit(_request(num_nodes=3))
        queue.claim_next(timeout=0)
        assert not queue.cancel(running.id)
        assert not queue.cancel("job-nope")

    def test_cancelled_job_never_claimed(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.cancel(job.id)
        assert queue.claim_next(timeout=0) is None

    def test_claim_returns_none_when_closed_and_drained(self):
        queue = PlacementJobQueue()
        queue.close()
        assert queue.claim_next(timeout=None) is None

    def test_close_still_drains_pending(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.close()
        assert queue.claim_next(timeout=0).id == job.id
        assert queue.claim_next(timeout=0) is None


class TestPopCompletedAndStats:
    def test_pop_completed_removes_terminal_in_submission_order(self):
        queue = PlacementJobQueue()
        a = queue.submit(_request(num_nodes=2))
        b = queue.submit(_request(num_nodes=3))
        c = queue.submit(_request(num_nodes=4), priority=9)
        # c claims first (priority); complete c then a, fail nothing
        queue.claim_next(timeout=0)
        queue.complete(c.id, {})
        queue.claim_next(timeout=0)
        queue.complete(a.id, {})
        popped = queue.pop_completed()
        assert [j.id for j in popped] == [a.id, c.id]  # submission order
        assert queue.poll(a.id) is None
        assert queue.poll(b.id) is not None
        assert queue.pop_completed() == []

    def test_stats_counts_states(self):
        queue = PlacementJobQueue()
        queue.submit(_request(num_nodes=2))
        queue.submit(_request(num_nodes=3))
        queue.submit(_request(num_nodes=4))
        claimed = queue.claim_next(timeout=0)
        queue.complete(claimed.id, {})
        stats = queue.stats()
        assert stats["submitted"] == 3
        assert stats["done"] == 1
        assert stats["pending"] == 2

    def test_add_finished_records_cached_job(self):
        queue = PlacementJobQueue()
        job = queue.add_finished(_request(), {"score": 7}, cached=True)
        assert job.state is JobState.DONE
        assert job.cached
        assert job.result == {"score": 7}
        assert queue.claim_next(timeout=0) is None

    def test_complete_pending_duplicates_coalesces(self):
        queue = PlacementJobQueue()
        original = queue.submit(_request())
        dup1 = queue.submit(_request())
        dup2 = queue.submit(_request())
        other = queue.submit(_request(num_nodes=3))
        claimed = queue.claim_next(timeout=0)
        assert claimed.id == original.id
        queue.complete(original.id, {"score": 42})
        count = queue.complete_pending_duplicates(
            original.digest, {"score": 42}
        )
        assert count == 2
        for dup in (dup1, dup2):
            job = queue.poll(dup.id)
            assert job.state is JobState.DONE
            assert job.cached
            assert job.result == {"score": 42}
        assert queue.poll(other.id).state is JobState.PENDING
        # the coalesced jobs' heap entries are stale, not claimable
        assert queue.claim_next(timeout=0).id == other.id


def _resolve_by(how: str, queue: PlacementJobQueue, job) -> None:
    if how == "cancel":
        queue.cancel(job.id)
        return
    if how == "duplicate":
        # an identical job computed elsewhere resolves the pending one
        queue.complete_pending_duplicates(job.digest, {"score": 1})
        return
    assert queue.claim_next(timeout=0).id == job.id
    if how == "complete":
        queue.complete(job.id, {"score": 1})
    else:
        queue.fail(job.id, "boom")


class TestWait:
    @pytest.mark.parametrize(
        "how, state",
        [
            ("complete", JobState.DONE),
            ("fail", JobState.FAILED),
            ("cancel", JobState.CANCELLED),
            ("duplicate", JobState.DONE),
        ],
    )
    def test_wait_wakes_when_the_job_resolves(self, how, state):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        woken = []
        waiter = threading.Thread(
            target=lambda: woken.append(
                (queue.wait(job.id, timeout=10.0), time.monotonic())
            )
        )
        waiter.start()
        time.sleep(0.05)  # let the waiter block
        assert not woken
        resolved_at = time.monotonic()
        _resolve_by(how, queue, job)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        finished, woke_at = woken[0]
        assert finished is job
        assert finished.state is state
        assert woke_at - resolved_at < 5.0

    def test_expired_wait_returns_the_unfinished_job(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        start = time.monotonic()
        assert queue.wait(job.id, timeout=0.05) is job
        assert time.monotonic() - start >= 0.05
        assert job.state is JobState.PENDING

    def test_zero_timeout_does_not_block(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        assert queue.wait(job.id, timeout=0) is job

    def test_unknown_id_is_none(self):
        assert PlacementJobQueue().wait("job-nope", timeout=5.0) is None

    def test_record_evicted_during_the_wait_is_still_returned(
        self, monkeypatch
    ):
        # no finished record is retained, so the job leaves the table
        # the moment it completes; the waiter answers from its own hold
        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 0)
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        woken = []
        waiter = threading.Thread(
            target=lambda: woken.append(queue.wait(job.id, timeout=10.0))
        )
        waiter.start()
        time.sleep(0.05)
        _resolve_by("complete", queue, job)
        waiter.join(timeout=5.0)
        assert queue.poll(job.id) is None
        assert woken == [job]
        assert job.state is JobState.DONE

    def test_waiters_and_workers_under_contention(self, monkeypatch):
        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 8)
        queue = PlacementJobQueue()
        submitted = [
            queue.submit(_request(num_nodes=n)) for n in range(2, 202)
        ]
        queue.close()  # workers exit once the queue is drained
        answers = [[] for _ in range(4)]

        def worker():
            while (job := queue.claim_next(timeout=5.0)) is not None:
                queue.complete(job.id, {"seq": job.seq})

        def waiter(i):
            for job in submitted[i::4]:
                answers[i].append(queue.wait(job.id, timeout=10.0))

        threads = [threading.Thread(target=worker) for _ in range(4)] + [
            threading.Thread(target=waiter, args=(i,)) for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # a waiter sees its job resolved, or already evicted, never stuck
        answers = [a for chunk in answers for a in chunk]
        assert len(answers) == 200
        assert all(a is None or a.state is JobState.DONE for a in answers)
        assert all(job.state is JobState.DONE for job in submitted)
        assert all(job.result == {"seq": job.seq} for job in submitted)
        # the bound kept exactly the last eight to finish
        kept = queue.jobs()
        kept_ids = {job.id for job in kept}
        evicted = [job for job in submitted if job.id not in kept_ids]
        assert len(kept) == 8
        assert min(j.finished_at for j in kept) >= max(
            j.finished_at for j in evicted
        )
        assert queue.stats() == {
            "pending": 0, "running": 0, "done": 8, "failed": 0,
            "cancelled": 0, "submitted": 200,
        }


class TestRetention:
    def test_oldest_finished_record_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 2)
        queue = PlacementJobQueue()
        a, b, c, d = (queue.submit(_request(num_nodes=n)) for n in range(2, 6))
        for job in (c, a):  # c finishes first, then a
            queue.cancel(job.id)
        assert queue.poll(c.id) is c
        cached = queue.add_finished(_request(num_nodes=9), {"score": 1})
        # the third finished record pushes out the first to finish
        assert queue.poll(c.id) is None
        assert queue.poll(a.id) is a
        assert queue.poll(cached.id) is cached
        # unfinished jobs are never evicted
        assert queue.poll(b.id) is b and queue.poll(d.id) is d
        stats = queue.stats()
        assert stats["submitted"] == 5
        assert stats["cancelled"] == 1 and stats["done"] == 1
        assert stats["pending"] == 2
        assert [j.id for j in queue.pop_completed()] == [a.id, cached.id]
        assert queue.pop_completed() == []

    def test_soak_keeps_the_retained_records_bounded(self):
        requests = [
            PlacementRequest(
                kind="search",
                spec=_request().spec,
                num_nodes=2,
                base_seed=seed,
            )
            for seed in range(10_000)
        ]
        ids = []
        with PlacementService(
            workers=2, execute_fn=lambda request, stage_cache=None: {}
        ) as service:
            # batches well under the bound: a batch's own jobs are never
            # evicted before they are waited on
            for start in range(0, len(requests), 500):
                batch = [
                    service.submit(request).id
                    for request in requests[start : start + 500]
                ]
                for job_id in batch:
                    service.wait(job_id, timeout=10.0)
                ids.extend(batch)
            stats = service.stats()["queue"]
            assert stats["submitted"] == 10_000
            retained = sum(
                count for key, count in stats.items() if key != "submitted"
            )
            assert retained == len(service.queue.jobs())
            assert retained <= jobs.MAX_FINISHED_JOBS
            assert service.queue.poll(ids[0]) is None
            assert service.queue.poll(ids[-1]) is not None
            # the result cache still answers a re-submission by digest
            again = service.submit(requests[-1])
            assert again.state is JobState.DONE and again.cached
