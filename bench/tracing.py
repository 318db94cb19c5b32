"""Spans for the benchmark's traced runs, recorded from bench code.

The program itself carries no spans yet, so a traced run wraps each
layer's public functions at the attribute its caller resolves at call
time: module functions in every module that imports them by name,
methods on their classes. :func:`install_service` must run before the
``PlacementService`` is built, because the service binds
``execute_request`` when it is constructed.

A span is ``[id, parent, job, name, start_ns, end_ns, n]``. Times come
from ``time.monotonic_ns``, the one clock every process on the host
shares, so client and server spans line up. ``n`` is an optional count
the span carries (rows scored, events run, replicas replayed).

Spans are keyed by job through a per-thread context. A worker thread
takes the job's id when ``PlacementJobQueue.claim_next`` returns it and
drops it at ``complete``/``fail``/``requeue``. An HTTP thread opens a
fresh context per request and names its job once the handler knows it:
from ``PlacementService.submit`` for a POST, from the path for a GET.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class _Context:
    __slots__ = ("job",)

    def __init__(self, job: Optional[str] = None) -> None:
        self.job = job


class _ThreadState:
    __slots__ = ("spans", "stack", "context", "steps", "run_events")

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: List[int] = []
        self.context: Optional[_Context] = None
        self.steps = 0
        self.run_events = 0


class SpanRecorder:
    """In-memory span store; each thread appends to its own list."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: List[list] = []
        # ids stay unique when client and server spans are merged
        self._ids = itertools.count(os.getpid() * 1_000_000_000 + 1)
        self._patches: List[Tuple[object, str, object]] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._lists.append(state.spans)
        return state

    def set_job(self, job: Optional[str]) -> None:
        """Key this thread's next spans by ``job`` (None: unkeyed)."""
        self.state().context = _Context(job) if job is not None else None

    def new_context(self) -> _Context:
        """Key this thread's next spans by a job named later."""
        context = self.state().context = _Context()
        return context

    def add(self, job: str, name: str, start: int, end: int) -> None:
        """Record a span whose ends were measured elsewhere."""
        self.state().spans.append(
            (next(self._ids), 0, _Context(job), name, start, end, None)
        )

    def export(self) -> List[list]:
        """Every span that belongs to a job, as JSON-ready lists."""
        with self._lock:
            lists = list(self._lists)
        return [
            [sid, parent, context.job, name, start, end, n]
            for spans in lists
            for sid, parent, context, name, start, end, n in list(spans)
            if context is not None and context.job is not None
        ]

    # -- patching -------------------------------------------------------------
    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``count(args, result)`` gives the span's ``n``.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = recorder.state()
            sid = next(recorder._ids)
            state.stack.append(sid)
            start = time.monotonic_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                state.stack.pop()
            parent = state.stack[-1] if state.stack else 0
            n = count(args, result) if count is not None else None
            state.spans.append(
                (sid, parent, state.context, name, start, end, n)
            )
            return result

        self.patch(owner, attr, traced)

    def wrap_everywhere(
        self, modules: Tuple[str, ...], attr: str, name: str, count=None
    ) -> None:
        """Wrap one function in its home module and every importer."""
        wrapped = None
        for module_name in modules:
            module = importlib.import_module(module_name)
            if wrapped is None:
                self.wrap(module, attr, name, count)
                wrapped = getattr(module, attr)
            else:
                self.patch(module, attr, wrapped)


def _events_counted(recorder: SpanRecorder, owner) -> None:
    """Count ``Environment.step`` calls per thread, attach them to ``run``."""
    step = owner.step
    run = owner.run

    def counted_step(self):
        recorder.state().steps += 1
        return step(self)

    def run_with_events(self, *args, **kwargs):
        state = recorder.state()
        before = state.steps
        result = run(self, *args, **kwargs)
        state.run_events = state.steps - before
        return result

    recorder.patch(owner, "step", counted_step)
    recorder.patch(owner, "run", run_with_events)
    recorder.wrap(
        owner,
        "run",
        "des.engine.run",
        lambda args, result: recorder.state().run_events,
    )


def install_compute(recorder: SpanRecorder) -> None:
    """Wrap the planning and simulation layers below the service."""
    from repro.coschedule.admission import AdmissionController
    from repro.coschedule.allocator import ClusterAllocator
    from repro.coschedule.loop import CoScheduler
    from repro.des.engine import Environment
    from repro.reschedule.replanner import Replanner
    from repro.runtime.executor import EnsembleExecutor
    from repro.scheduler.annealing import SimulatedAnnealingPolicy
    from repro.search.cache import StageCache
    from repro.search.vectorized import VectorizedScorer

    recorder.wrap_everywhere(
        (
            "repro.search.engine",
            "repro.service.workers",
            "repro.coschedule.admission",
            "repro.coschedule.allocator",
            "repro.coschedule.scenarios",
        ),
        "find_best_placement",
        "search.engine.find_best_placement",
        lambda args, result: result[1],
    )
    recorder.wrap(
        importlib.import_module("repro.search.canonical"),
        "count_canonical_assignments",
        "search.canonical.count",
    )
    recorder.wrap(
        StageCache, "evaluate_flat", "search.cache.evaluate_flat"
    )
    recorder.wrap(
        importlib.import_module("repro.search.vectorized"),
        "find_best_placement_vectorized",
        "search.vectorized.search",
        lambda args, result: [result.scored, result.pruned],
    )
    recorder.wrap(
        VectorizedScorer,
        "score_chunk",
        "search.vectorized.score_chunk",
        lambda args, result: len(result.objectives),
    )
    recorder.wrap(CoScheduler, "run", "coschedule.loop.run")
    recorder.wrap(
        ClusterAllocator, "allocate", "coschedule.allocator.allocate"
    )
    recorder.wrap(
        AdmissionController, "decide", "coschedule.admission.decide"
    )
    recorder.wrap_everywhere(
        ("repro.scheduler.robust", "repro.service.workers"),
        "rank_placements_robust",
        "scheduler.robust.rank",
    )
    batched = importlib.import_module("repro.faults.batched")
    recorder.wrap(batched, "capture_timeline", "faults.batched.capture")
    recorder.wrap(
        batched,
        "replay_schedules",
        "faults.batched.replay",
        lambda args, result: len(result.objectives),
    )
    recorder.wrap(
        Replanner,
        "replan",
        "reschedule.replanner.replan",
        lambda args, result: int(result.accepted),
    )
    recorder.wrap(
        SimulatedAnnealingPolicy, "place", "scheduler.annealing.place"
    )
    recorder.wrap(EnsembleExecutor, "run", "runtime.executor.run")
    _events_counted(recorder, Environment)


def install_service(recorder: SpanRecorder) -> None:
    """Wrap the service layers and every compute layer below them."""
    from http.server import BaseHTTPRequestHandler

    from repro.service.jobs import PlacementJobQueue
    from repro.service.workers import PlacementService

    install_compute(recorder)
    recorder.wrap(
        importlib.import_module("repro.service.workers"),
        "execute_request",
        "service.worker.execute",
    )
    recorder.wrap(
        importlib.import_module("repro.service.api"),
        "request_from_dict",
        "service.schemas.parse",
    )
    recorder.wrap_everywhere(
        ("repro.service.schemas", "repro.service.jobs"),
        "canonical_digest",
        "service.schemas.digest",
    )

    recorder.wrap(
        BaseHTTPRequestHandler, "handle_one_request", "service.http.handle"
    )
    timed_handle = BaseHTTPRequestHandler.handle_one_request

    def handle_in_context(self):
        context = recorder.new_context()
        try:
            return timed_handle(self)
        finally:
            path = getattr(self, "path", "")
            if context.job is None and path.startswith("/jobs/"):
                context.job = path[len("/jobs/"):]
            recorder.state().context = None

    recorder.patch(
        BaseHTTPRequestHandler, "handle_one_request", handle_in_context
    )

    submit = PlacementService.submit

    def submit_named(self, request, priority=0):
        job = submit(self, request, priority)
        context = recorder.state().context
        if context is not None:
            context.job = job.id
        return job

    recorder.patch(PlacementService, "submit", submit_named)

    claim_next = PlacementJobQueue.claim_next

    def claim_and_key(self, timeout=None):
        job = claim_next(self, timeout)
        if job is not None:
            recorder.set_job(job.id)
            recorder.add(
                job.id,
                "service.queue.wait",
                int(job.submitted_at * 1e9),
                time.monotonic_ns(),
            )
        return job

    recorder.patch(PlacementJobQueue, "claim_next", claim_and_key)

    for attr in ("complete", "fail", "requeue"):
        recorder.patch(
            PlacementJobQueue, attr, _then_unkeyed(recorder, attr)
        )

    poll = PlacementJobQueue.poll
    marked: set = set()
    marked_lock = threading.Lock()

    def poll_and_mark(self, job_id):
        job = poll(self, job_id)
        if job is None or job.finished_at is None:
            return job
        with marked_lock:
            first = job.id not in marked
            marked.add(job.id)
        if first:
            at = int(job.finished_at * 1e9)
            recorder.add(job.id, "service.finished", at, at)
        return job

    recorder.patch(PlacementJobQueue, "poll", poll_and_mark)


def _then_unkeyed(recorder: SpanRecorder, attr: str):
    from repro.service.jobs import PlacementJobQueue

    original = getattr(PlacementJobQueue, attr)

    def resolve(self, job_id, *args):
        try:
            return original(self, job_id, *args)
        finally:
            recorder.set_job(None)

    return resolve


def self_times(spans: List[list]) -> Dict[int, int]:
    """Span id -> its duration minus the time its children cover."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for sid, parent, _job, _name, start, end, _n in spans:
        if parent in own:
            own[parent] -= end - start
    return own
