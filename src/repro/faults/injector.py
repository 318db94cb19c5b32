"""The fault injector: perturbs DES stage events per a fault schedule.

The executor routes every *timed* stage (S, W, R, A) through
:meth:`FaultInjector.execute`, passing a :class:`StageContext` whose
``duration`` is the stage's nominal (jittered) time. A pass of the
stage is one timeout of ``duration * scale``. The injector reproduces
the stage with the scheduled faults applied:

- stalls delay the stage start;
- stragglers scale every pass by the inflation factor;
- crashes burn the completed fraction, consult the recovery policy,
  pay its delay, and re-run the stage (or abort via
  :class:`AnalysisDropped` when the policy degrades);
- chunk faults (scheduled on the producer) append a detection delay
  plus a full re-read to consumers' R stages.

With an empty schedule ``execute`` waits exactly ``duration`` — the
identical event sequence the executor would emit with no injector at
all, which is what keeps zero-failure injection byte-identical to a
baseline run (regression-tested in ``tests/faults/test_injector.py``).

Every fault is recorded in a :class:`FaultLog`, the raw material for
the resilience metrics in :mod:`repro.monitoring.resilience`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.des.engine import Environment
from repro.faults.models import FaultKind, FaultSchedule
from repro.faults.recovery import RecoveryPolicy, RetryBackoffPolicy
from repro.util.errors import ValidationError


class AnalysisDropped(Exception):
    """Control-flow signal: a degrade policy dropped this analysis.

    Raised out of :meth:`FaultInjector.execute` and handled by the
    executor's analysis process, which releases the member's read
    barriers and retires the component. Not a :class:`ReproError` —
    it must never be swallowed by ``except ReproError`` handlers.
    """

    def __init__(self, component: str, step: int) -> None:
        super().__init__(f"{component} dropped at step {step}")
        self.component = component
        self.step = step


@dataclass(frozen=True)
class StageContext:
    """Who is executing what when the injector is consulted.

    ``duration`` is the nominal (already noise-jittered) stage time;
    ``step_time`` the component's nominal full-step time (used by
    checkpoint-restart to price re-computation); ``producer`` names the
    chunk producer for R stages so chunk faults can be looked up.
    """

    member: str
    component: str
    stage: str  # "S" | "W" | "R" | "A"
    step: int
    duration: float
    step_time: float = 0.0
    producer: Optional[str] = None


@dataclass(frozen=True)
class FaultRecord:
    """One materialized fault: what happened, when, and what it cost.

    ``detected`` is the virtual time the fault manifested (crash
    instant, stall onset, corrupt-chunk checksum failure);
    ``recovered`` the time the component resumed useful work;
    ``lost_work`` the virtual seconds of discarded or redundant work.
    """

    member: str
    component: str
    stage: str
    step: int
    kind: FaultKind
    policy: str
    detected: float
    recovered: float
    lost_work: float
    attempts: int = 1

    @property
    def recovery_time(self) -> float:
        return self.recovered - self.detected


class FaultLog:
    """Chronological record of every fault the injector materialized."""

    def __init__(self) -> None:
        self._records: List[FaultRecord] = []
        self.dropped_components: List[str] = []

    def record(self, rec: FaultRecord) -> FaultRecord:
        self._records.append(rec)
        return rec

    def mark_dropped(self, component: str) -> None:
        self.dropped_components.append(component)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[FaultRecord]:
        return list(self._records)

    @property
    def recovery_times(self) -> List[float]:
        return [r.recovery_time for r in self._records]

    @property
    def lost_work_total(self) -> float:
        return sum(r.lost_work for r in self._records)

    def of_kind(self, kind: FaultKind) -> List[FaultRecord]:
        return [r for r in self._records if r.kind is kind]

    def counts_by_kind(self) -> dict:
        counts: dict = {}
        for r in self._records:
            counts[r.kind.value] = counts.get(r.kind.value, 0) + 1
        return counts

    def summary(self) -> str:
        """Small text rendering for reports and the CLI."""
        if not self._records:
            return "fault log: no faults materialized"
        parts = [
            f"{kind}={n}" for kind, n in sorted(self.counts_by_kind().items())
        ]
        lines = [
            f"fault log: {len(self._records)} faults ({', '.join(parts)}), "
            f"{self.lost_work_total:.2f} s of work lost"
        ]
        if self.dropped_components:
            lines.append(
                f"  dropped components: {', '.join(self.dropped_components)}"
            )
        for r in self._records:
            lines.append(
                f"  t={r.detected:8.2f}  {r.kind.value:13s} "
                f"{r.component}:{r.stage}{r.step}  "
                f"recovery={r.recovery_time:.2f}s  lost={r.lost_work:.2f}s "
                f"[{r.policy}]"
            )
        return "\n".join(lines)


class FaultInjector:
    """Applies a :class:`FaultSchedule` to the executor's stage events."""

    def __init__(
        self,
        schedule: FaultSchedule,
        policy: Optional[RecoveryPolicy] = None,
        log: Optional[FaultLog] = None,
    ) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ValidationError(
                f"schedule must be a FaultSchedule, got {schedule!r}"
            )
        self.schedule = schedule
        self.policy = policy or RetryBackoffPolicy()
        # one injector == one DES run: stateful policies (adaptive
        # budget tracking) reset here so instances can be reused.
        self.policy.on_run_start()
        # an empty FaultLog is falsy (it defines __len__): test for None
        self.log = log if log is not None else FaultLog()

    def execute(self, env: Environment, ctx: StageContext) -> Generator:
        """Run one stage instance with scheduled faults applied.

        A generator to be ``yield from``-ed inside a DES process. With
        no faults scheduled at this site it degenerates to one timeout
        of ``ctx.duration`` — the baseline event sequence.
        """
        site = self.schedule.events_for(ctx.component, ctx.step, ctx.stage)
        chunk: Tuple = ()
        if ctx.stage == "R" and ctx.producer is not None:
            chunk = self.schedule.chunk_events_for(ctx.producer, ctx.step)
        if not site and not chunk:
            yield env.timeout(ctx.duration)
            return

        # 1. transient stalls delay the stage start
        scale = 1.0
        stragglers = []
        for ev in site:
            if ev.kind is FaultKind.STALL:
                t0 = env.now
                if ev.magnitude > 0:
                    yield env.timeout(ev.magnitude)
                self.log.record(
                    FaultRecord(
                        member=ctx.member,
                        component=ctx.component,
                        stage=ctx.stage,
                        step=ctx.step,
                        kind=ev.kind,
                        policy=self.policy.name,
                        detected=t0,
                        recovered=env.now,
                        lost_work=env.now - t0,
                    )
                )
            elif ev.kind is FaultKind.STRAGGLER:
                scale *= ev.magnitude
                stragglers.append(ev)

        # 2. crashes: burn the completed fraction, recover per policy
        attempt = 0
        for ev in site:
            if ev.kind is not FaultKind.CRASH:
                continue
            for _ in range(ev.repeats):
                t_start = env.now
                lost = ctx.duration * scale * ev.magnitude
                if lost > 0:
                    yield env.timeout(lost)
                detected = env.now
                action = self.policy.on_crash(ctx, attempt)
                attempt += 1
                if action.mode == "drop":
                    self.log.record(
                        FaultRecord(
                            member=ctx.member,
                            component=ctx.component,
                            stage=ctx.stage,
                            step=ctx.step,
                            kind=ev.kind,
                            policy=self.policy.name,
                            detected=detected,
                            recovered=detected,
                            lost_work=detected - t_start,
                            attempts=attempt,
                        )
                    )
                    self.log.mark_dropped(ctx.component)
                    raise AnalysisDropped(ctx.component, ctx.step)
                if action.delay > 0:
                    yield env.timeout(action.delay)
                self.log.record(
                    FaultRecord(
                        member=ctx.member,
                        component=ctx.component,
                        stage=ctx.stage,
                        step=ctx.step,
                        kind=ev.kind,
                        policy=self.policy.name,
                        detected=detected,
                        recovered=env.now,
                        lost_work=detected - t_start,
                        attempts=attempt,
                    )
                )

        # 3. the (re-)run of the stage proper
        t_pass = env.now
        yield env.timeout(ctx.duration * scale)
        if scale > 1.0:
            elapsed = env.now - t_pass
            excess = elapsed * (scale - 1.0) / scale
            for ev in stragglers:
                self.log.record(
                    FaultRecord(
                        member=ctx.member,
                        component=ctx.component,
                        stage=ctx.stage,
                        step=ctx.step,
                        kind=ev.kind,
                        policy=self.policy.name,
                        detected=t_pass,
                        recovered=env.now,
                        lost_work=excess / len(stragglers),
                    )
                )

        # 4. chunk faults: detection latency + full re-read
        for ev in chunk:
            t0 = env.now
            if ev.magnitude > 0:
                yield env.timeout(ev.magnitude)
            yield env.timeout(ctx.duration * scale)
            self.log.record(
                FaultRecord(
                    member=ctx.member,
                    component=ctx.component,
                    stage=ctx.stage,
                    step=ctx.step,
                    kind=ev.kind,
                    policy=self.policy.name,
                    detected=t0,
                    recovered=env.now,
                    lost_work=env.now - t0,
                )
            )
