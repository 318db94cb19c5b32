"""The repo benchmark: seeded workloads through the service and the paper path.

Usage::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--record FILE] [--smoke]

Each service workload starts ``bench/serve.py`` (the placement service,
2 workers, no job timeout) in a child process and drives it over HTTP
from this process with 2 client threads in a closed loop: a thread
sends its next job only after ``PlacementClient.wait`` has returned
the previous one's terminal snapshot. ``paper-figures`` drives
``bench/figures_worker.py`` from one thread instead. CPU time and peak
memory are read from ``/proc/<child pid>``.

A run sends the same job list in ``ROUNDS`` rounds, each against a
freshly started child, so that every round starts cold and no result
is cached across rounds. A job's latency is the least of its
``ROUNDS`` latencies, and throughput and CPU time come from the best
round. Before each start a short probe times every core, and the
child is pinned to the fastest one while this process keeps the
others. On a shared host a core can run half again as slow, or
slower, for seconds to minutes while a neighbour is busy; choosing
the core and keeping the best of five spaced samples drops most of
those spells, which would otherwise decide the spread between runs.

``--seconds`` sets the job count through each workload's nominal rate
(``workloads.py``), not a wall-clock deadline, so two commits always
run the same jobs. A loop that takes ``LOOP_LIMIT`` times as long as
its nominal rate predicts stops sending, so a very slow commit still
finishes.

With ``--trace 0`` (the default) the end-to-end metrics of
``BENCHMARK.json`` are printed; with ``--trace 1`` the same workload
also runs against a traced child and the per-layer metrics are
printed instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

After the timed loops, and outside their timing, every 10th service
job (and the first of each kind) is executed again in this process,
and the payload each round served must render to the same canonical
JSON; ``paper-figures`` reproduces its first seed again and each
round must have produced the same artifact text. Any mismatch exits 2.
"""

from __future__ import annotations

import argparse
import functools
import http.client
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CLIENT_THREADS = 2
#: timed rounds per run, each against a cold child; set-up time is the
#: median of their starts.
ROUNDS = 5
CHECK_EVERY = 10
LOOP_LIMIT = 3.0
SMOKE_JOBS = 12
START_TIMEOUT_S = 60.0

#: the spans each workload must fire, by the layer that records them.
SPANS_BY_WORKLOAD: Dict[str, Tuple[str, ...]] = {
    "plan-mix": (
        "search.engine.find_best_placement",
        "search.canonical.count",
        "search.cache.evaluate_flat",
        "search.vectorized.search",
        "search.vectorized.score_chunk",
        "coschedule.loop.run",
        "coschedule.allocator.allocate",
        "coschedule.admission.decide",
        "service.queue.wait",
        "service.worker.execute",
    ),
    "des-mix": (
        "scheduler.robust.rank",
        "faults.batched.capture",
        "faults.batched.replay",
        "reschedule.replanner.replan",
        "scheduler.annealing.place",
        "runtime.executor.run",
        "des.engine.run",
        "service.queue.wait",
        "service.worker.execute",
    ),
    "hot-cache": (
        "client.submit",
        "client.poll",
        "service.http.handle",
        "service.schemas.parse",
        "service.schemas.digest",
        "service.queue.wait",
        "service.worker.execute",
        "service.finished",
    ),
    "paper-figures": (
        "experiments",
        "runtime.executor.run",
        "des.engine.run",
    ),
}


class BenchError(RuntimeError):
    """The benchmark could not run to the end (not a wrong output)."""


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    """``BENCHMARK.json``: workload names, metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- cores --------------------------------------------------------------------
#: the host probe: a fixed pure-Python loop on one core, best of five.
PROBE = """
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
best = float("inf")
for _ in range(5):
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    best = min(best, time.perf_counter() - start)
print(best * 1000.0)
"""


def cores_by_speed(cores: List[int]) -> List[Tuple[float, int]]:
    """``(probe ms, core)`` for each core, fastest first.

    The probes run on all cores at once, so each sees only its own
    core and the whole probe takes about a tenth of a second.
    """
    probes: List[subprocess.Popen] = []
    try:
        for core in cores:
            probes.append(
                subprocess.Popen(
                    [sys.executable, "-c", PROBE, str(core)],
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        times = [float(probe.communicate()[0]) for probe in probes]
    finally:
        for probe in probes:
            if probe.poll() is None:
                probe.kill()
            probe.wait()
            probe.stdout.close()
    return sorted(zip(times, cores))


# -- children -----------------------------------------------------------------
class Child:
    """One program under test running in its own process."""

    def __init__(
        self, script: str, trace: bool, cpu: Optional[int] = None
    ) -> None:
        command = [sys.executable, str(BENCH / script)]
        if trace:
            command.append("--trace")
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        self.script = script
        self.trace = trace
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise BenchError(f"{self.script} exited early")
        return line

    def cpu_ms(self) -> float:
        """utime + stime so far, from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` from ``/proc/<pid>/status``."""
        for line in Path(f"/proc/{self.proc.pid}/status").open():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def spans(self) -> List[list]:
        """Stop a traced child and collect the spans it writes on exit.

        The service writes them on SIGTERM, the figures worker at the
        end of its input.
        """
        try:
            if self.script == "serve.py":
                self.proc.send_signal(signal.SIGTERM)
            else:
                self.proc.stdin.close()
            out = self.proc.stdout.read()
            if self.proc.wait(timeout=START_TIMEOUT_S) != 0:
                raise BenchError(f"{self.script} exited non-zero")
        finally:
            self.kill()
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


# -- one job ------------------------------------------------------------------
@dataclass
class Outcome:
    """One timed job as the client saw it."""

    index: int
    start: int
    end: int
    job_id: Optional[str] = None
    snapshot: Optional[dict] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) / 1e6


def _service_job(client, index, request, recorder=None) -> Outcome:
    from repro.service.client import ServiceError

    start = time.monotonic_ns()
    context = recorder.new_context() if recorder is not None else None
    try:
        job_id = client.submit(request)["id"]
        if context is not None:
            context.job = job_id
        snapshot = client.wait(job_id)
    except (
        ServiceError, TimeoutError, OSError, http.client.HTTPException
    ) as exc:
        return Outcome(
            index, start, time.monotonic_ns(),
            error=f"{type(exc).__name__}: {exc}",
        )
    outcome = Outcome(index, start, time.monotonic_ns(), job_id, snapshot)
    if snapshot["state"] != "done":
        outcome.error = f"job {snapshot['state']}: {snapshot['error']}"
    return outcome


def _figures_job(child: Child, index: int, seed: int) -> Outcome:
    start = time.monotonic_ns()
    child.proc.stdin.write(f"{seed}\n")
    child.proc.stdin.flush()
    reply = json.loads(child.readline())
    return Outcome(index, start, time.monotonic_ns(), str(seed), reply)


def closed_loop(session: "Session", jobs: list, deadline: float):
    """Send ``jobs`` from the session's clients; returns (outcomes, wall s).

    Each client runs one job to its terminal state before it sends the
    next. No job is sent after ``deadline`` (``time.monotonic``).
    """
    outcomes: List[Optional[Outcome]] = [None] * len(jobs)
    cursor = itertools.count()
    lock = threading.Lock()
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    index = next(cursor)
                if index >= len(jobs) or time.monotonic() > deadline:
                    return
                outcomes[index] = session.run_one(index, jobs[index])
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    workers = [
        threading.Thread(target=client) for _ in range(session.threads)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return [o for o in outcomes if o is not None], wall


# -- sessions -----------------------------------------------------------------
@dataclass
class Session:
    """A started child, how to send it one job, and what set-up cost."""

    child: Child
    run_one: Callable[[int, object], Outcome]
    threads: int
    setup_s: float = 0.0
    client: Optional[object] = None
    #: ``(probe ms, core)`` per core at the start, fastest first
    cores: List[Tuple[float, int]] = field(default_factory=list)


def place(cores: List[int]) -> Tuple[Optional[int], list]:
    """Pick the next child's core, and move this process off it.

    A shared host can slow one core by half for minutes at a time,
    while the other stays fast, so each start probes every core and
    gives the child the fastest one; the load generator keeps the
    others. Returns the child's core (``None`` on a single core) and
    the probe times, fastest first.
    """
    speeds = cores_by_speed(cores)
    if len(speeds) < 2:
        return None, speeds
    os.sched_setaffinity(0, [core for _, core in speeds[1:]])
    return speeds[0][1], speeds


def start_service(
    trace: bool, warmup: list, cores: List[int], recorder=None
) -> Session:
    """Spawn the service; ready once /health is 200 and warm-up is done."""
    from repro.service.client import PlacementClient

    cpu, speeds = place(cores)
    start = time.monotonic()
    child = Child("serve.py", trace, cpu)
    try:
        client = PlacementClient(child.readline().strip())
        while True:
            try:
                if client.health()["status"] == "ok":
                    break
            except OSError:
                if time.monotonic() - start > START_TIMEOUT_S:
                    raise BenchError("service never became healthy")
                time.sleep(0.01)
        session = Session(
            child,
            functools.partial(_service_job, client, recorder=recorder),
            CLIENT_THREADS,
            client=client,
            cores=speeds,
        )
        outcomes, _ = closed_loop(session, warmup, math.inf)
        failed = [o.error for o in outcomes if o.error]
        if failed:
            raise BenchError(f"warm-up job failed: {failed[0]}")
    except BaseException:
        child.kill()
        raise
    session.setup_s = time.monotonic() - start
    return session


def start_figures(trace: bool, warm_seed: int, cores: List[int]) -> Session:
    """Spawn the figures worker; ready after its first reproduction."""
    cpu, speeds = place(cores)
    start = time.monotonic()
    child = Child("figures_worker.py", trace, cpu)
    session = Session(
        child, functools.partial(_figures_job, child), 1, cores=speeds
    )
    try:
        session.run_one(0, warm_seed)
    except BaseException:
        child.kill()
        raise
    session.setup_s = time.monotonic() - start
    return session


@dataclass
class Loop:
    """One timed loop against one child."""

    outcomes: List[Outcome]
    wall_s: float
    cpu_ms: float
    peak_rss_mb: float
    #: ``GET /stats`` before and after the loop (traced service runs)
    stats: Tuple[dict, dict]
    #: the start of the child this loop ran against
    setup_s: float
    #: ``(probe ms, core)`` per core at that start, the child's first
    cores: List[Tuple[float, int]]
    spans: List[list] = field(default_factory=list)

    @property
    def completed(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.error is None]

    @property
    def jobs_per_s(self) -> float:
        return len(self.completed) / self.wall_s

    @property
    def cpu_ms_per_job(self) -> float:
        return self.cpu_ms / len(self.completed)


def timed_loop(workload, session: Session, jobs: list, recorder=None) -> Loop:
    """Run ``jobs`` against a started session; stop the child after."""
    child = session.child
    expected_s = len(jobs) / workload.nominal_rate
    deadline = time.monotonic() + LOOP_LIMIT * expected_s
    with_stats = recorder is not None and workload.service
    try:
        stats_before = session.client.stats() if with_stats else {}
        cpu_before = child.cpu_ms()
        outcomes, wall = closed_loop(session, jobs, deadline)
        cpu = child.cpu_ms() - cpu_before
        peak = child.peak_rss_mb()
        stats_after = session.client.stats() if with_stats else {}
    except BaseException:
        child.kill()
        raise
    loop = Loop(
        outcomes,
        wall,
        cpu,
        peak,
        (stats_before, stats_after),
        session.setup_s,
        session.cores,
    )
    if child.trace:
        loop.spans = child.spans() + recorder.export()
    else:
        child.kill()
    return loop


# -- correctness --------------------------------------------------------------
def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def check_service(jobs: list, loops: List[Loop]) -> Dict[str, int]:
    """Re-execute sampled jobs in process; returns checked counts by kind.

    Each sampled job is executed once here and compared with the
    payload every round served. Raises :class:`WrongOutput` on the
    first payload that differs.
    """
    from repro.service.schemas import canonical_digest
    from repro.service.workers import execute_request

    reference: Dict[str, str] = {}
    checked: Dict[str, int] = {}
    for loop in loops:
        done = {o.index: o for o in loop.completed}
        sample = {i for i in done if i % CHECK_EVERY == 0}
        first_of_kind: Dict[str, int] = {}
        for i in sorted(done):
            first_of_kind.setdefault(jobs[i].kind, i)
        sample.update(first_of_kind.values())
        for i in sorted(sample):
            request = jobs[i]
            digest = canonical_digest(request)
            if digest not in reference:
                reference[digest] = _canonical(execute_request(request))
            if _canonical(done[i].snapshot["result"]) != reference[digest]:
                raise WrongOutput(
                    f"job {i} ({request.kind}, {done[i].job_id}): served "
                    f"payload differs from in-process execute_request"
                )
            checked[request.kind] = checked.get(request.kind, 0) + 1
    return checked


def check_figures(seeds: list, loops: List[Loop]) -> Dict[str, int]:
    """The first seed, reproduced in process, must give the same text."""
    import figures_worker

    expected = figures_worker.digest(figures_worker.reproduce(seeds[0]))
    for loop in loops:
        first = next(o for o in loop.outcomes if o.index == 0)
        if first.snapshot["sha256"] != expected:
            raise WrongOutput(
                f"paper-figures seed {seeds[0]}: artifact text differs "
                f"from an in-process reproduction"
            )
    return {"figures": len(loops)}


class WrongOutput(Exception):
    """A served output differs from the in-process reference."""


# -- metrics ------------------------------------------------------------------
def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def least_latencies(loops: List[Loop]) -> List[float]:
    """Each completed job's least latency over the rounds, in ms."""
    least: Dict[int, float] = {}
    for loop in loops:
        for o in loop.completed:
            least[o.index] = min(least.get(o.index, math.inf), o.latency_ms)
    return list(least.values())


def end_to_end(loops: List[Loop]) -> Dict[str, float]:
    if not all(loop.completed for loop in loops):
        raise BenchError("a round completed no job")
    latencies = least_latencies(loops)
    return {
        "setup_s": statistics.median(loop.setup_s for loop in loops),
        "jobs_per_s": max(loop.jobs_per_s for loop in loops),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": _p90(latencies),
        "cpu_ms_per_job": min(loop.cpu_ms_per_job for loop in loops),
        "peak_rss_mb": statistics.median(loop.peak_rss_mb for loop in loops),
    }


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def layer_metrics(loop: Loop, untraced_rate: float) -> Dict[str, float]:
    """Per-layer metrics of one traced loop (see ``bench/README.md``)."""
    from tracing import self_times

    completed = {o.job_id: o for o in loop.completed}
    jobs = len(completed)
    spans = [s for s in loop.spans if s[2] in completed]
    own = self_times(loop.spans)
    by_name: Dict[str, List[list]] = {}
    by_job: Dict[str, Dict[str, List[list]]] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
        by_job.setdefault(span[2], {}).setdefault(span[3], []).append(span)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def ms(name: str) -> float:
        return sum(s[5] - s[4] for s in by_name.get(name, ())) / 1e6

    def self_ms(name: str) -> float:
        return sum(own[s[0]] for s in by_name.get(name, ())) / 1e6

    def total_n(name: str) -> float:
        return sum(s[6] for s in by_name.get(name, ()))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def median_ms(values: List[float]) -> float:
        return statistics.median(values) / 1e6 if values else 0.0

    def delta(section: str, key: str) -> int:
        before, after = loop.stats
        if not after:
            return 0
        return after[section][key] - before[section][key]

    submit_ns, poll_lag, wait_ns, unaccounted = [], [], [], []
    for job_id, outcome in completed.items():
        named = by_job.get(job_id, {})
        top = []
        for s in named.get("client.submit", ()):
            submit_ns.append(s[5] - s[4])
            top.append((s[4], s[5]))
        for s in named.get("service.queue.wait", ()):
            wait_ns.append(s[5] - s[4])
            top.append((s[4], s[5]))
        for name in ("service.worker.execute", "experiments"):
            top.extend((s[4], s[5]) for s in named.get(name, ()))
        finished = named.get("service.finished")
        if finished:
            poll_lag.append(outcome.end - finished[0][4])
            top.append((finished[0][4], outcome.end))
        latency = outcome.end - outcome.start
        unaccounted.append(1.0 - _union_ns(top) / latency)

    attempts = [
        o.snapshot["attempts"]
        for o in completed.values()
        if o.snapshot.get("attempts", 0) >= 1
    ]
    queue_after = loop.stats[1].get("queue", {})
    vectorized = by_name.get("search.vectorized.search", ())
    return {
        "client.submit_ms_p50": median_ms(submit_ns),
        "client.polls_per_job": calls("client.poll") / jobs,
        "client.poll_lag_ms_p50": median_ms(poll_lag),
        "service.http.self_ms_per_job": self_ms("service.http.handle") / jobs,
        "service.schemas.parse_ms_per_job": ms("service.schemas.parse") / jobs,
        "service.schemas.digest_calls_per_job": (
            calls("service.schemas.digest") / jobs
        ),
        "service.schemas.digest_ms_per_job": (
            ms("service.schemas.digest") / jobs
        ),
        "service.result_cache.hit_ratio": ratio(
            delta("result_cache", "hits"),
            delta("result_cache", "hits") + delta("result_cache", "misses"),
        ),
        "service.result_cache.evictions": delta("result_cache", "evictions"),
        "service.queue.wait_ms_p50": median_ms(wait_ns),
        "service.queue.retained_jobs": sum(
            v for k, v in queue_after.items() if k != "submitted"
        ),
        "service.worker.execute_ms_per_job": (
            ms("service.worker.execute") / jobs
        ),
        "service.worker.attempts_per_job": (
            statistics.fmean(attempts) if attempts else 0.0
        ),
        "search.engine.self_ms_per_job": (
            self_ms("search.engine.find_best_placement") / jobs
        ),
        "search.canonical.count_ms_per_job": (
            ms("search.canonical.count") / jobs
        ),
        "search.cache.evaluate_flat_calls_per_job": (
            calls("search.cache.evaluate_flat") / jobs
        ),
        "search.cache.evaluate_flat_ms_per_job": (
            ms("search.cache.evaluate_flat") / jobs
        ),
        "search.cache.stage_hit_ratio": ratio(
            delta("stage_cache", "stage_hits"),
            delta("stage_cache", "stage_hits")
            + delta("stage_cache", "stage_misses"),
        ),
        "search.cache.node_hit_ratio": ratio(
            delta("stage_cache", "node_hits"),
            delta("stage_cache", "node_hits")
            + delta("stage_cache", "node_misses"),
        ),
        "search.vectorized.route_share": ratio(
            len(vectorized), calls("search.engine.find_best_placement")
        ),
        "search.vectorized.score_chunk_ms_per_job": (
            ms("search.vectorized.score_chunk") / jobs
        ),
        "search.vectorized.rows_per_s": ratio(
            total_n("search.vectorized.score_chunk"),
            ms("search.vectorized.score_chunk") / 1e3,
        ),
        "search.vectorized.prune_ratio": ratio(
            sum(s[6][1] for s in vectorized), sum(sum(s[6]) for s in vectorized)
        ),
        "search.engine.candidates_per_s": ratio(
            total_n("search.engine.find_best_placement"),
            ms("search.engine.find_best_placement") / 1e3,
        ),
        "coschedule.loop.self_ms_per_job": (
            self_ms("coschedule.loop.run") / jobs
        ),
        "coschedule.allocator.allocate_ms_per_job": (
            ms("coschedule.allocator.allocate") / jobs
        ),
        "coschedule.admission.decide_ms_per_job": (
            ms("coschedule.admission.decide") / jobs
        ),
        "scheduler.robust.self_ms_per_job": (
            self_ms("scheduler.robust.rank") / jobs
        ),
        "faults.batched.capture_ms_per_job": (
            ms("faults.batched.capture") / jobs
        ),
        "faults.batched.replay_ms_per_job": (
            ms("faults.batched.replay") / jobs
        ),
        "faults.batched.replicas_per_s": ratio(
            total_n("faults.batched.replay"),
            ms("faults.batched.replay") / 1e3,
        ),
        "reschedule.replanner.replan_ms_per_job": (
            ms("reschedule.replanner.replan") / jobs
        ),
        "scheduler.annealing.place_ms_per_job": (
            ms("scheduler.annealing.place") / jobs
        ),
        "reschedule.replans_accepted_ratio": ratio(
            total_n("reschedule.replanner.replan"),
            calls("reschedule.replanner.replan"),
        ),
        "runtime.executor.self_ms_per_job": (
            self_ms("runtime.executor.run") / jobs
        ),
        "runtime.executor.runs_per_job": calls("runtime.executor.run") / jobs,
        # self time: the rescheduling controller replans inside the loop
        "des.engine.run_ms_per_job": self_ms("des.engine.run") / jobs,
        "des.engine.events_per_job": total_n("des.engine.run") / jobs,
        "des.engine.events_per_s": ratio(
            total_n("des.engine.run"), self_ms("des.engine.run") / 1e3
        ),
        "experiments.self_ms_per_job": self_ms("experiments") / jobs,
        "trace.unaccounted_ratio": statistics.median(unaccounted),
        "trace.overhead_ratio": 1.0 - loop.jobs_per_s / untraced_rate,
    }


# -- one workload -------------------------------------------------------------
@dataclass
class WorkloadRun:
    """Everything one workload run reports."""

    name: str
    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, float]
    mix: Dict[str, object]
    loops: List[Loop]
    checked: Dict[str, int] = field(default_factory=dict)
    span_counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> WorkloadRun:
    import workloads

    workload = workloads.WORKLOADS[name]
    count = SMOKE_JOBS if smoke else workload.job_count(seconds, ROUNDS)
    warmup, jobs = workloads.make_jobs(name, seed, count)
    rounds = 1 if smoke or trace else ROUNDS
    cores = sorted(os.sched_getaffinity(0))

    def start(traced: bool, recorder=None) -> Session:
        if workload.service:
            return start_service(traced, warmup, cores, recorder)
        # warm up on the seed after the last timed one
        return start_figures(traced, jobs[-1] + 1, cores)

    span_counts: Dict[str, int] = {}
    try:
        loops = [
            timed_loop(workload, start(False), jobs) for _ in range(rounds)
        ]
        metrics = end_to_end(loops)
        if trace:
            from tracing import SpanRecorder

            recorder = SpanRecorder()
            if workload.service:
                from repro.service.client import PlacementClient

                recorder.wrap(PlacementClient, "submit", "client.submit")
                recorder.wrap(PlacementClient, "job", "client.poll")
            try:
                traced = timed_loop(
                    workload, start(True, recorder), jobs, recorder
                )
            finally:
                recorder.uninstall()
            metrics = layer_metrics(traced, metrics["jobs_per_s"])
            timed_ids = {o.job_id for o in traced.completed}
            for span in traced.spans:
                if span[2] in timed_ids:
                    span_counts[span[3]] = span_counts.get(span[3], 0) + 1
            loops.append(traced)
    finally:
        os.sched_setaffinity(0, cores)

    attempted = sum(len(loop.outcomes) for loop in loops)
    run = WorkloadRun(
        name,
        attempted=attempted,
        failed=attempted - sum(len(loop.completed) for loop in loops),
        correct=True,
        metrics=metrics,
        mix=workloads.describe(jobs),
        loops=loops,
        span_counts=span_counts,
    )
    run.mix["jobs"] = len(jobs)
    run.mix["latency_samples"] = len(least_latencies(loops))
    try:
        check = check_service if workload.service else check_figures
        run.checked = check(jobs, loops)
    except WrongOutput as exc:
        run.correct = False
        run.error = str(exc)
    return run


# -- reporting ----------------------------------------------------------------
def metric_units(trace: bool) -> Dict[str, str]:
    section = spec()["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def report(run: WorkloadRun, seed: int, trace: bool) -> None:
    mix = run.mix
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(mix["kinds"].items()))
    print(
        f"== {run.name} (seed {seed}): {mix['jobs']} jobs [{kinds}] "
        f"x {len(run.loops)} rounds"
    )
    if "search" in mix["kinds"]:
        print(
            f"   search jobs at or above 2048 candidates: "
            f"{mix['search_vectorized_share']:.1%}"
        )
    for name, unit in metric_units(trace).items():
        print(f"   {name:<42} {run.metrics[name]:>14.6g} {unit}")
    error_rate = run.failed / run.attempted
    print(
        f"   {'error_rate':<42} {error_rate:>14.6g} ratio "
        f"({run.failed} of {run.attempted} failed)"
    )
    if not trace:
        samples = mix["latency_samples"]
        beyond = samples - 1 - math.floor(0.9 * (samples - 1))
        print(
            f"   latency from {samples} jobs, each its least over the "
            f"rounds; {beyond} beyond p90"
        )
    print("   round  jobs/s  cpu ms/job  setup s  core: probe ms, others")
    for i, loop in enumerate(run.loops, 1):
        (child_ms, core), *others = loop.cores
        rest = ", ".join(f"{ms:.1f}" for ms, _ in others)
        print(
            f"   {i:>5} {loop.jobs_per_s:>7.4g} {loop.cpu_ms_per_job:>11.4g}"
            f" {loop.setup_s:>8.3f}  {core}: {child_ms:.1f}, {rest}"
        )
    checked = ", ".join(f"{k} {v}" for k, v in sorted(run.checked.items()))
    verdict = "ok" if run.correct else f"WRONG: {run.error}"
    print(f"   correctness [{checked}]: {verdict}")


def result_line(runs: List[WorkloadRun], trace: bool) -> dict:
    units = metric_units(trace)

    def key(run: WorkloadRun, name: str) -> str:
        return name if len(runs) == 1 else f"{run.name}.{name}"

    return {
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            key(run, name): {"value": run.metrics[name], "unit": unit}
            for run in runs
            for name, unit in units.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repo benchmark: seeded workloads, end to end or traced."
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=[w["name"] for w in spec()["workloads"]],
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(spec()["run_seconds"])
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--record", type=Path, help="append this run as a JSON line"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny job counts, one start"
    )
    args = parser.parse_args(argv)

    # unwind on SIGTERM too, so that every child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 1
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)

    names = args.workload or [w["name"] for w in spec()["workloads"]]
    runs = []
    try:
        for name in names:
            run = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke
            )
            report(run, args.seed, bool(args.trace))
            runs.append(run)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    line = result_line(runs, bool(args.trace))
    if args.record is not None:
        with args.record.open("a") as record:
            for run in runs:
                record.write(
                    json.dumps(
                        {
                            "workload": run.name,
                            "seed": args.seed,
                            "trace": args.trace,
                            "result": result_line([run], bool(args.trace)),
                        }
                    )
                    + "\n"
                )
    print(json.dumps(line))
    return 0 if line["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
