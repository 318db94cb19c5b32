"""The placement job queue: submit / poll / cancel / pop_completed.

A :class:`PlacementJobQueue` is the hand-off point between request
producers (the HTTP API, the Python client, tests) and the worker pool
that drains it. Semantics follow the task-queue idiom of ensemble
brokers (submit returns immediately with a job handle; completion is
observed by polling or by draining ``pop_completed``):

- **priority ordering** — higher ``priority`` first; ties resolve in
  submission order (FIFO), so two equal-priority submissions never
  reorder and a replayed submission sequence schedules identically;
- **deterministic ids** — ``job-<seq>-<digest12>``: the submission
  sequence number plus the request's canonical content digest.
  Replaying the same submissions yields the same ids, and the id
  alone identifies *what* was asked (the digest) and *when* (the
  sequence);
- **lifecycle** — ``PENDING -> RUNNING -> DONE | FAILED``, with
  ``CANCELLED`` reachable only from ``PENDING`` (a running job cannot
  be preempted; its worker owns it until it resolves).

All mutating calls are thread-safe; :meth:`claim_next` blocks workers
on a condition variable so an idle pool costs nothing.
"""

from __future__ import annotations

import enum
import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.schemas import PlacementRequest, canonical_digest
from repro.util.errors import ValidationError


class JobState(enum.Enum):
    """Lifecycle of one submitted placement job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class PlacementJob:
    """One submitted request plus its progress through the queue.

    ``result`` is the JSON-ready payload produced by
    :func:`~repro.service.workers.execute_request` (``None`` until the
    job is DONE); ``error`` the failure reason for FAILED jobs.
    ``cached`` marks results served from the
    :class:`~repro.service.cache.ResultCache` without touching a
    worker.
    """

    id: str
    request: PlacementRequest
    digest: str
    priority: int = 0
    seq: int = 0
    state: JobState = JobState.PENDING
    result: Optional[dict] = None
    error: Optional[str] = None
    cached: bool = False
    attempts: int = 0
    submitted_at: float = field(default_factory=time.monotonic)
    finished_at: Optional[float] = None

    def to_dict(self, include_result: bool = True) -> dict:
        """JSON-ready snapshot (the ``GET /jobs`` representations)."""
        out = {
            "id": self.id,
            "digest": self.digest,
            "kind": self.request.kind,
            "priority": self.priority,
            "state": self.state.value,
            "cached": self.cached,
            "attempts": self.attempts,
            "error": self.error,
        }
        if include_result:
            out["result"] = self.result
        return out


class PlacementJobQueue:
    """Thread-safe priority queue of placement jobs.

    The queue owns every job it has ever seen (until popped via
    :meth:`pop_completed`), so ``poll`` answers for running and
    finished jobs alike. Workers claim with :meth:`claim_next` and
    resolve with :meth:`complete` / :meth:`fail` / :meth:`requeue`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: Dict[str, PlacementJob] = {}
        # heap entries: (-priority, seq, job_id); lazily invalidated on
        # cancel/update_priority (stale entries are skipped on pop)
        self._heap: List[tuple] = []
        self._seq = 0
        self._closed = False

    # -- producer side ------------------------------------------------------
    def submit(
        self,
        request: PlacementRequest,
        priority: int = 0,
        digest: Optional[str] = None,
    ) -> PlacementJob:
        """Enqueue one request; returns its job (state PENDING).

        ``digest`` is the request's canonical digest, computed here
        when the caller does not already hold it.
        """
        if digest is None:
            digest = canonical_digest(request)
        with self._lock:
            if self._closed:
                raise ValidationError("queue is closed to new submissions")
            seq = self._seq
            self._seq += 1
            job = PlacementJob(
                id=f"job-{seq:06d}-{digest[:12]}",
                request=request,
                digest=digest,
                priority=priority,
                seq=seq,
            )
            self._jobs[job.id] = job
            heapq.heappush(self._heap, (-priority, seq, job.id))
            self._not_empty.notify()
            return job

    def add_finished(
        self,
        request: PlacementRequest,
        result: dict,
        cached: bool = True,
        digest: Optional[str] = None,
    ) -> PlacementJob:
        """Record a job that never needs a worker (cache hit on submit)."""
        if digest is None:
            digest = canonical_digest(request)
        with self._lock:
            seq = self._seq
            self._seq += 1
            job = PlacementJob(
                id=f"job-{seq:06d}-{digest[:12]}",
                request=request,
                digest=digest,
                seq=seq,
                state=JobState.DONE,
                result=result,
                cached=cached,
                finished_at=time.monotonic(),
            )
            self._jobs[job.id] = job
            return job

    def poll(self, job_id: str) -> Optional[PlacementJob]:
        """The job for ``job_id``, or None if unknown/popped."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[PlacementJob]:
        """Snapshot of every tracked job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def cancel(self, job_id: str) -> bool:
        """Cancel a PENDING job. Returns False for any other state."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.PENDING:
                return False
            job.state = JobState.CANCELLED
            job.finished_at = time.monotonic()
            return True

    def update_priority(self, job_id: str, priority: int) -> bool:
        """Re-prioritize a PENDING job (False otherwise)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.PENDING:
                return False
            job.priority = priority
            heapq.heappush(self._heap, (-priority, job.seq, job.id))
            self._not_empty.notify()
            return True

    def pop_completed(self) -> List[PlacementJob]:
        """Remove and return every terminal job (submission order)."""
        with self._lock:
            done = [j for j in self._jobs.values() if j.state.terminal]
            for job in done:
                del self._jobs[job.id]
            return sorted(done, key=lambda j: j.seq)

    # -- worker side --------------------------------------------------------
    def claim_next(self, timeout: Optional[float] = None) -> Optional[PlacementJob]:
        """Block until a PENDING job is available; claim it as RUNNING.

        Returns None on timeout or once the queue is closed and
        drained — the worker-loop exit signal.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                job = self._pop_pending_locked()
                if job is not None:
                    job.state = JobState.RUNNING
                    job.attempts += 1
                    return job
                if self._closed:
                    return None
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._not_empty.wait(remaining)

    def _pop_pending_locked(self) -> Optional[PlacementJob]:
        while self._heap:
            neg_priority, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            # skip stale records: cancelled/claimed jobs, and entries
            # whose recorded priority no longer matches the job's (a
            # fresh entry was pushed by update_priority/requeue)
            if job is None or job.state is not JobState.PENDING:
                continue
            if -neg_priority != job.priority:
                continue
            return job
        return None

    def complete(self, job_id: str, result: dict) -> None:
        """Resolve a RUNNING job as DONE with ``result``."""
        with self._lock:
            job = self._require_running(job_id)
            job.state = JobState.DONE
            job.result = result
            job.finished_at = time.monotonic()

    def fail(self, job_id: str, error: str) -> None:
        """Resolve a RUNNING job as FAILED with ``error``."""
        with self._lock:
            job = self._require_running(job_id)
            job.state = JobState.FAILED
            job.error = error
            job.finished_at = time.monotonic()

    def requeue(self, job_id: str) -> None:
        """Return a RUNNING job to PENDING (crash-retry path)."""
        with self._lock:
            job = self._require_running(job_id)
            job.state = JobState.PENDING
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            self._not_empty.notify()

    def complete_pending_duplicates(self, digest: str, result: dict) -> int:
        """Resolve every PENDING job sharing ``digest`` with ``result``.

        Request coalescing: once one worker has computed a digest,
        identical jobs still waiting in the queue are completed in
        place (marked ``cached``) instead of recomputing. Their heap
        records go stale and are skipped on pop. Returns the count.
        """
        with self._lock:
            count = 0
            for job in self._jobs.values():
                if job.state is JobState.PENDING and job.digest == digest:
                    job.state = JobState.DONE
                    job.result = result
                    job.cached = True
                    job.finished_at = time.monotonic()
                    count += 1
            return count

    def _require_running(self, job_id: str) -> PlacementJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ValidationError(f"unknown job {job_id!r}")
        if job.state is not JobState.RUNNING:
            raise ValidationError(
                f"job {job_id!r} is {job.state.value}, expected running"
            )
        return job

    # -- lifecycle / stats --------------------------------------------------
    def close(self) -> None:
        """Refuse new submissions and wake every blocked worker."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def stats(self) -> Dict[str, int]:
        """Per-state job counts plus the total ever submitted."""
        with self._lock:
            counts = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                counts[job.state.value] += 1
            counts["submitted"] = self._seq
            return counts
