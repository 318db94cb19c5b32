"""The placement job queue: submit / poll / wait / cancel.

A :class:`PlacementJobQueue` is the hand-off point between request
producers (the HTTP API, the Python client, tests) and the worker pool
that drains it. Semantics follow the task-queue idiom of ensemble
brokers (submit returns immediately with a job handle; completion is
observed by polling, or by one blocking :meth:`~PlacementJobQueue.wait`
that the resolving call wakes):

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
  be preempted; its worker owns it until it resolves);
- **bounded retention** — at most :data:`MAX_FINISHED_JOBS` terminal
  records are kept; past that the one that finished first is evicted,
  and polling its id answers None (the HTTP API's 404 ``unknown job``).
  Unfinished jobs are never evicted.

All mutating calls are thread-safe; :meth:`claim_next` blocks workers
on a condition variable so an idle pool costs nothing.
"""

from __future__ import annotations

import enum
import heapq
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.schemas import PlacementRequest, canonical_digest
from repro.util.errors import ValidationError

#: terminal job records the queue retains; the oldest finished goes
#: first. Matches the :class:`~repro.service.cache.ResultCache`
#: default, which keeps answering re-submissions by digest.
MAX_FINISHED_JOBS = 1024


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

    The queue owns every unfinished job and the last
    :data:`MAX_FINISHED_JOBS` finished ones (until popped via
    :meth:`pop_completed`), so ``poll`` answers for running and
    recently finished jobs alike. Workers claim with :meth:`claim_next`
    and resolve with :meth:`complete` / :meth:`fail` / :meth:`requeue`;
    :meth:`wait` blocks a reader until the job is resolved.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._resolved = threading.Condition(self._lock)
        self._jobs: Dict[str, PlacementJob] = {}
        # ids of the terminal records in _jobs, oldest finished first
        self._finished: "OrderedDict[str, None]" = OrderedDict()
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
                result=result,
                cached=cached,
            )
            self._jobs[job.id] = job
            self._finish_locked(job, JobState.DONE)
            return job

    def poll(self, job_id: str) -> Optional[PlacementJob]:
        """The job for ``job_id``, or None if unknown, evicted or popped."""
        with self._lock:
            return self._jobs.get(job_id)

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Optional[PlacementJob]:
        """Block until ``job_id`` is terminal or ``timeout`` s have passed.

        Returns the job, terminal or not, or None if the id is unknown.
        ``timeout=None`` waits without limit; ``0`` does not block. The
        answer goes through :meth:`poll`; a record evicted while the
        caller waited is still returned from the object held.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if timeout is None or timeout > 0:
                self._resolved.wait_for(lambda: job.state.terminal, timeout)
        return self.poll(job_id) or job

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
            self._finish_locked(job, JobState.CANCELLED)
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
            done = [self._jobs.pop(job_id) for job_id in self._finished]
            self._finished.clear()
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
            job.result = result
            self._finish_locked(job, JobState.DONE)

    def fail(self, job_id: str, error: str) -> None:
        """Resolve a RUNNING job as FAILED with ``error``."""
        with self._lock:
            job = self._require_running(job_id)
            job.error = error
            self._finish_locked(job, JobState.FAILED)

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
        place (marked ``cached``) instead of recomputing. Every pending
        job has a heap record, so only the heap is scanned, not the
        finished records; those heap records go stale and are skipped
        on pop. Returns the count.
        """
        with self._lock:
            pending: Dict[str, PlacementJob] = {}
            for _, _, job_id in self._heap:  # a job may have two records
                job = self._jobs.get(job_id)
                if (
                    job is not None
                    and job.state is JobState.PENDING
                    and job.digest == digest
                ):
                    pending[job_id] = job
            duplicates = sorted(pending.values(), key=lambda j: j.seq)
            for job in duplicates:
                job.result = result
                job.cached = True
                self._finish_locked(job, JobState.DONE)
            return len(duplicates)

    def _finish_locked(self, job: PlacementJob, state: JobState) -> None:
        """Make ``job`` terminal, wake its waiters, evict past the bound."""
        job.state = state
        job.finished_at = time.monotonic()
        self._finished[job.id] = None
        while len(self._finished) > MAX_FINISHED_JOBS:
            evicted, _ = self._finished.popitem(last=False)
            del self._jobs[evicted]
        self._resolved.notify_all()

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
