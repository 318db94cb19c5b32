"""Runtime invariant checking for the DES executor.

The executor routes every timed S/W/R/A stage through its ``_stage``
choke point; when verification is enabled, an :class:`InvariantChecker`
observes each stage instance there (component, stage code, step, start
and end clock, nominal duration) and audits the run against the
protocol's structural invariants:

- **event-clock monotonicity** — ``end >= start`` for every stage, and
  each component's stages begin at or after its previous stage ended
  (the DES clock never runs backwards through a process);
- **step ordering** — per ``(component, stage)`` the step index starts
  at 0 and increases by exactly 1 (dropped analyses may stop early,
  never skip);
- **duration fidelity** (exact mode) — with zero timing noise, no
  fault injection, and no drift, every stage's wall time equals its
  nominal effective duration to float precision;
- **Eq. 1 period consistency** (exact mode) — from the second step on,
  consecutive simulation-stage starts are exactly ``sigma* =
  max(S*+W*, max_j R_j*+A_j*)`` apart, the paper's steady-state
  period;
- **Eq. 3 efficiency bounds** — every member's measured ``E``
  satisfies ``E <= 1`` and ``E > 1/K - 1`` (so ``E`` lies in
  ``(0, 1]`` for ``K = 1``).

The checker never touches the
:class:`~repro.des.engine.Environment` — it only *reads* ``env.now``
— so an instrumented run emits a byte-identical event sequence and
trace; with verification disabled the executor's only extra work is an
``is None`` test per stage.

Violations are collected into an :class:`InvariantReport`; callers that
want failures to be loud (the executor's default) raise
:class:`InvariantViolation` carrying the report text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.results import ExecutionResult

#: absolute slack granted to float-exact comparisons (clock arithmetic
#: accumulates one rounding error per event, never more than this).
EXACT_EPS: float = 1e-9


class InvariantViolation(SimulationError):
    """A runtime invariant of the DES execution was violated."""


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of one verified run: audit counters plus violations."""

    stages_observed: int
    checks_performed: int
    violations: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "stages_observed": self.stages_observed,
            "checks_performed": self.checks_performed,
            "passed": self.passed,
            "violations": list(self.violations),
        }

    def to_text(self) -> str:
        status = "ok" if self.passed else "VIOLATED"
        lines = [
            f"invariants: {status} ({self.stages_observed} stages, "
            f"{self.checks_performed} checks, "
            f"{len(self.violations)} violations)"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class InvariantChecker:
    """Audits one DES run through the executor's stage choke point.

    Parameters
    ----------
    exact:
        True when the run is deterministic (zero timing noise, no
        fault injector, no drift): enables the float-exact
        duration and Eq. 1 period checks on top of the structural
        ones. The executor sets this automatically.
    """

    def __init__(self, exact: bool = False) -> None:
        self.exact = exact
        self.stages_observed = 0
        self.checks_performed = 0
        self.violations: List[str] = []
        # per-component bookkeeping
        self._last_end: Dict[str, float] = {}
        self._next_step: Dict[Tuple[str, str], int] = {}
        # exact mode: per-(member, component, step) active time and the
        # per-member simulation S-stage start clocks (for Eq. 1)
        self._active: Dict[Tuple[str, str, int], float] = {}
        self._sim_starts: Dict[str, List[float]] = {}
        self._members_of: Dict[str, set] = {}
        # steps at which each member executed a migration pause
        self._migration_steps: Dict[str, List[int]] = {}

    # -- recording ----------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations.append(message)

    def _check(self, ok: bool, message: str) -> None:
        self.checks_performed += 1
        if not ok:
            self._fail(message)

    def observe_stage(
        self,
        member: str,
        component: str,
        stage: str,
        step: int,
        start: float,
        end: float,
        duration: float,
    ) -> None:
        """Record one completed stage instance (called from ``_stage``).

        This runs once per stage instance, so a message is formatted
        only for a check that fails.
        """
        self.stages_observed += 1

        self.checks_performed += 1
        if not end >= start:
            self._fail(
                f"{component}:{stage}{step}: clock ran backwards "
                f"(start={start!r}, end={end!r})"
            )
        last = self._last_end.get(component)
        if last is not None:
            self.checks_performed += 1
            if not start >= last - EXACT_EPS:
                self._fail(
                    f"{component}:{stage}{step}: started at {start!r} "
                    f"before the component's previous stage ended at "
                    f"{last!r}"
                )
        self._last_end[component] = end

        expected = self._next_step.get((component, stage), 0)
        self.checks_performed += 1
        if step != expected:
            self._fail(
                f"{component}:{stage}: observed step {step}, expected "
                f"{expected} (steps must start at 0 and increase by 1)"
            )
        self._next_step[(component, stage)] = step + 1

        if self.exact:
            self.checks_performed += 1
            if not abs((end - start) - duration) <= EXACT_EPS:
                self._fail(
                    f"{component}:{stage}{step}: wall time "
                    f"{end - start!r} differs from nominal duration "
                    f"{duration!r} in an exact (noise-free, fault-free) "
                    f"run"
                )
            self._active[(member, component, step)] = (
                self._active.get((member, component, step), 0.0) + duration
            )
            self._members_of.setdefault(member, set()).add(component)
            if stage == "S":
                self._sim_starts.setdefault(member, []).append(start)

    def note_migration(
        self,
        member: str,
        step: int,
        delay: float,
        start: float,
        end: float,
    ) -> None:
        """Record one executed migration pause (called by the executor).

        The pause itself is audited — non-negative price, clock moved
        forward by exactly the charged delay — and the step is kept so
        :meth:`check_periods` can segment the Eq. 1 check at the
        migration boundary (the steady-state period legitimately
        changes when the placement does).
        """
        self._check(
            delay >= 0.0,
            f"{member}: migration at step {step} charged a negative "
            f"delay {delay!r}",
        )
        self._check(
            end >= start,
            f"{member}: migration at step {step} ran the clock "
            f"backwards (start={start!r}, end={end!r})",
        )
        self._check(
            abs((end - start) - delay) <= EXACT_EPS * max(1.0, delay),
            f"{member}: migration pause at step {step} spanned "
            f"{end - start!r} on the clock but charged {delay!r}",
        )
        self._migration_steps.setdefault(member, []).append(step)

    # -- end-of-run audits --------------------------------------------------
    def check_periods(self) -> None:
        """Eq. 1: steady-state S-starts are exactly ``sigma*`` apart.

        Exact mode only. The period is derived from the *observed*
        nominal durations — ``sigma* = max`` over the member's
        components of their per-step active time — so the check is
        self-contained: it needs no analytic predictor to disagree
        with.

        Migrations segment the check: a member that migrated before
        step ``m`` runs one steady state on ``[0, m)`` and another on
        ``[m, n)`` (the placement — hence ``sigma*`` — changed), so
        each segment derives its own period from its own first step's
        active times. The period spanning the migration pause and the
        first post-migration period (pipeline re-fill, mirroring the
        run-start warm-up) are excluded. With no migrations there is
        one segment and the check reduces to the original.
        """
        if not self.exact:
            return
        for member, starts in self._sim_starts.items():
            boundaries = sorted(
                {
                    step
                    for step in self._migration_steps.get(member, ())
                    if 0 < step < len(starts)
                }
            )
            segments = list(
                zip([0] + boundaries, boundaries + [len(starts)])
            )
            for seg_start, seg_end in segments:
                # warm-up: the first period of a segment may include
                # pipeline fill; post-migration segments also skip the
                # following period while the coupling re-settles.
                first = seg_start + (1 if seg_start == 0 else 2)
                if seg_end - first < 2:
                    continue
                sigma = max(
                    self._active.get((member, component, seg_start), 0.0)
                    for component in self._members_of.get(member, ())
                )
                scale = max(1.0, sigma)
                for i in range(first, seg_end - 1):
                    period = starts[i + 1] - starts[i]
                    self._check(
                        abs(period - sigma) <= EXACT_EPS * scale,
                        f"{member}: period between S{i} and S{i + 1} is "
                        f"{period!r}, expected sigma*={sigma!r} (Eq. 1)",
                    )

    def check_result(self, result: "ExecutionResult") -> None:
        """Eq. 3 bounds and makespan sanity on the distilled result."""
        for member in result.members:
            k = member.stages.num_couplings
            self._check(
                member.efficiency <= 1.0 + EXACT_EPS,
                f"{member.name}: efficiency E={member.efficiency!r} "
                f"exceeds the Eq. 3 upper bound of 1",
            )
            self._check(
                member.efficiency > (1.0 / k - 1.0) - EXACT_EPS,
                f"{member.name}: efficiency E={member.efficiency!r} "
                f"at or below the Eq. 3 lower bound 1/K - 1 = "
                f"{1.0 / k - 1.0!r} (K={k})",
            )
            self._check(
                member.makespan > 0.0,
                f"{member.name}: non-positive makespan "
                f"{member.makespan!r}",
            )
        self._check(
            result.ensemble_makespan
            >= max(m.makespan for m in result.members) - EXACT_EPS,
            f"ensemble makespan {result.ensemble_makespan!r} below the "
            f"slowest member's "
            f"{max(m.makespan for m in result.members)!r}",
        )

    # -- reporting ----------------------------------------------------------
    def report(self) -> InvariantReport:
        """Freeze the audit into an :class:`InvariantReport`."""
        return InvariantReport(
            stages_observed=self.stages_observed,
            checks_performed=self.checks_performed,
            violations=tuple(self.violations),
        )
