"""Failure models: seeded, deterministic fault schedules.

A failure model turns an ensemble spec into a :class:`FaultSchedule`
*before* the simulation starts: every fault is expressed as a
:class:`FaultEvent` pinned to a ``(member, component, step)`` site (and
a fine-grained stage within the step). The executor's injection hooks
then consult the schedule as the DES run unfolds.

Scheduling faults ahead of time — rather than drawing during the run —
keeps fault randomness strictly separate from the executor's own
timing-noise streams: a zero-rate model yields an empty schedule and
the run is byte-identical to an uninjected baseline.

Fault kinds
-----------
``CRASH``
    The component dies partway through a stage; the partial work is
    lost and a :class:`~repro.faults.recovery.RecoveryPolicy` decides
    how execution resumes. ``magnitude`` is the fraction of the stage
    completed before the crash (in ``(0, 1]``).
``STRAGGLER``
    The stage runs slower than nominal; ``magnitude`` is the
    multiplicative inflation factor (> 1).
``STALL``
    A transient freeze (OS jitter, network brown-out) of ``magnitude``
    seconds before the stage starts.
``CHUNK_LOSS`` / ``CHUNK_CORRUPT``
    The staged chunk for ``(producer, step)`` is lost or corrupted in
    the DTL; every consumer detects the problem during its read (after
    ``magnitude`` seconds of detection latency) and must re-read.
    Scheduled on the producer's ``W`` stage, experienced at consumers'
    ``R`` stages.

Failure processes
-----------------
Fault *arrivals* are decoupled from fault *sites*: an
:class:`ArrivalProcess` produces a per-step fault probability path
(constant Bernoulli, Markov-modulated bursts, or Weibull-gap bursts),
and the models draw site faults against that path. Because the path is
shared by every site within one model, non-constant processes produce
*correlated* failures — several components fault in the same burst
window, which is what independent per-site draws can never express.

:class:`NodeFailureModel` goes one step further: the fault domain is a
*node*, so a single draw crashes every component placed on that node
at that step. Placement and failure domains interact — co-location
concentrates the blast radius — which is exactly the effect the robust
planner objective (:mod:`repro.faults.analytic`) prices in.

Every model also exposes a :class:`HazardProfile` via
:meth:`FailureModel.hazard`: the stationary per-site fault rate and
kind mix the analytic surrogate needs to predict expected makespan
inflation without running the DES. See ``docs/FAULT_MODELS.md`` for
the full reference and the surrogate derivation.
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.util.errors import ValidationError
from repro.util.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.placement import EnsemblePlacement
    from repro.runtime.spec import EnsembleSpec


class FaultKind(enum.Enum):
    """The failure modes the injector understands."""

    CRASH = "crash"
    STRAGGLER = "straggler"
    STALL = "stall"
    CHUNK_LOSS = "chunk-loss"
    CHUNK_CORRUPT = "chunk-corrupt"


#: kinds that perturb the DTL data path: scheduled against the
#: producer's W stage, experienced by every consumer's R of that step.
CHUNK_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.CHUNK_LOSS,
    FaultKind.CHUNK_CORRUPT,
)

#: valid fine-grained stage codes a fault can target (§3.1 notation).
FAULT_STAGES: Tuple[str, ...] = ("S", "W", "R", "A")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault at a ``(member, component, step)`` site.

    ``magnitude`` semantics depend on ``kind`` — see the module
    docstring. ``repeats`` (crashes only) models a component that
    crashes several consecutive times at the same site, exercising the
    recovery policy's escalation behaviour.
    """

    member: str
    component: str
    step: int
    kind: FaultKind
    stage: str
    magnitude: float
    repeats: int = 1

    def __post_init__(self) -> None:
        if not self.member or not self.component:
            raise ValidationError("fault member/component must be non-empty")
        if self.step < 0:
            raise ValidationError(f"fault step must be >= 0, got {self.step}")
        if self.stage not in FAULT_STAGES:
            raise ValidationError(
                f"fault stage must be one of {FAULT_STAGES}, got {self.stage!r}"
            )
        if self.repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {self.repeats}")
        if not math.isfinite(self.magnitude):
            raise ValidationError(
                f"{self.kind.value} magnitude must be finite, got "
                f"{self.magnitude!r}"
            )
        if self.kind is FaultKind.CRASH:
            if not 0.0 < self.magnitude <= 1.0:
                raise ValidationError(
                    f"crash magnitude is the completed fraction and must lie "
                    f"in (0, 1], got {self.magnitude!r}"
                )
        elif self.kind is FaultKind.STRAGGLER:
            if self.magnitude <= 1.0:
                raise ValidationError(
                    f"straggler magnitude is an inflation factor and must be "
                    f"> 1, got {self.magnitude!r}"
                )
        elif self.magnitude < 0:
            raise ValidationError(
                f"{self.kind.value} magnitude must be >= 0, got "
                f"{self.magnitude!r}"
            )

    def __repr__(self) -> str:
        return (
            f"FaultEvent({self.kind.value} @ {self.component}:"
            f"{self.stage}{self.step} x{self.magnitude:g})"
        )


class FaultSchedule:
    """An immutable set of fault events with per-site lookup.

    Component-local faults (crash/straggler/stall) are indexed by
    ``(component, step, stage)``; chunk faults by ``(producer, step)``.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        ordered = sorted(
            events,
            key=lambda e: (e.component, e.step, e.stage, e.kind.value),
        )
        self._events: Tuple[FaultEvent, ...] = tuple(ordered)
        self._by_site: Dict[Tuple[str, int, str], List[FaultEvent]] = {}
        self._chunk: Dict[Tuple[str, int], List[FaultEvent]] = {}
        for ev in self._events:
            if ev.kind in CHUNK_KINDS:
                self._chunk.setdefault((ev.component, ev.step), []).append(ev)
            else:
                key = (ev.component, ev.step, ev.stage)
                self._by_site.setdefault(key, []).append(ev)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """All events in deterministic (component, step, stage) order."""
        return self._events

    @property
    def is_empty(self) -> bool:
        return not self._events

    def __len__(self) -> int:
        return len(self._events)

    def events_for(
        self, component: str, step: int, stage: str
    ) -> Tuple[FaultEvent, ...]:
        """Component-local faults scheduled at one stage instance."""
        return tuple(self._by_site.get((component, step, stage), ()))

    def chunk_events_for(
        self, producer: str, step: int
    ) -> Tuple[FaultEvent, ...]:
        """Chunk faults affecting reads of ``(producer, step)``."""
        return tuple(self._chunk.get((producer, step), ()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultSchedule({len(self._events)} events)"


class ArrivalProcess(abc.ABC):
    """A per-step fault-probability path shared by every site.

    Failure models draw one probability *path* per run — an array of
    per-step fault probabilities — and then test each site against the
    step's probability. A constant path reduces to independent
    Bernoulli draws; a time-varying path correlates faults across
    components, because every site sees the same elevated probability
    during a burst window.
    """

    @abc.abstractmethod
    def step_rates(
        self, n_steps: int, gen: "np.random.Generator"
    ) -> "np.ndarray":
        """Per-step fault probabilities for a run of ``n_steps`` steps.

        Parameters
        ----------
        n_steps:
            Number of in situ steps in the run.
        gen:
            The model's seeded generator; all stochastic structure of
            the path (burst onsets, state flips) must come from here so
            a fixed seed reproduces the path exactly.

        Returns
        -------
        numpy.ndarray
            ``n_steps`` probabilities, each in ``[0, 1]``.
        """

    @property
    @abc.abstractmethod
    def mean_rate(self) -> float:
        """Stationary (long-run average) per-step fault probability.

        This is the rate the analytic surrogate uses, so it must be the
        exact expectation of :meth:`step_rates` entries, not an
        empirical average.
        """


class BernoulliArrivals(ArrivalProcess):
    """Constant-rate arrivals: every step faults with the same ``rate``.

    Parameters
    ----------
    rate:
        Per-step fault probability, in ``[0, 1]``.

    Examples
    --------
    >>> BernoulliArrivals(0.05).mean_rate
    0.05
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"rate must lie in [0, 1], got {rate!r}")
        self.rate = rate

    def step_rates(
        self, n_steps: int, gen: "np.random.Generator"
    ) -> "np.ndarray":
        return np.full(n_steps, self.rate)

    @property
    def mean_rate(self) -> float:
        return self.rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BernoulliArrivals(rate={self.rate:g})"


class MarkovModulatedArrivals(ArrivalProcess):
    """Gilbert-Elliott bursts: a two-state chain modulates the rate.

    The chain starts in the *quiet* state; each step it enters the
    *burst* state with probability ``p_enter`` and leaves it with
    probability ``p_exit``. Sites fault with ``quiet_rate`` outside
    bursts and ``burst_rate`` inside them, so bursts hit many
    components in the same few steps.

    Parameters
    ----------
    quiet_rate / burst_rate:
        Per-step fault probabilities in the two states (both in
        ``[0, 1]``; ``burst_rate`` should exceed ``quiet_rate`` for
        the name to mean anything, but this is not enforced).
    p_enter / p_exit:
        Per-step state-transition probabilities, in ``(0, 1]``.

    Examples
    --------
    The stationary burst occupancy is ``p_enter / (p_enter + p_exit)``:

    >>> p = MarkovModulatedArrivals(
    ...     quiet_rate=0.01, burst_rate=0.5, p_enter=0.1, p_exit=0.5)
    >>> round(p.mean_rate, 4)
    0.0917
    """

    def __init__(
        self,
        quiet_rate: float,
        burst_rate: float,
        p_enter: float,
        p_exit: float,
    ) -> None:
        for label, value in (
            ("quiet_rate", quiet_rate),
            ("burst_rate", burst_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{label} must lie in [0, 1], got {value!r}"
                )
        for label, value in (("p_enter", p_enter), ("p_exit", p_exit)):
            if not 0.0 < value <= 1.0:
                raise ValidationError(
                    f"{label} must lie in (0, 1], got {value!r}"
                )
        self.quiet_rate = quiet_rate
        self.burst_rate = burst_rate
        self.p_enter = p_enter
        self.p_exit = p_exit

    def step_rates(
        self, n_steps: int, gen: "np.random.Generator"
    ) -> "np.ndarray":
        rates = np.empty(n_steps)
        bursting = False
        for step in range(n_steps):
            flip = gen.uniform()
            if bursting:
                if flip < self.p_exit:
                    bursting = False
            else:
                if flip < self.p_enter:
                    bursting = True
            rates[step] = self.burst_rate if bursting else self.quiet_rate
        return rates

    @property
    def mean_rate(self) -> float:
        occupancy = self.p_enter / (self.p_enter + self.p_exit)
        return (
            occupancy * self.burst_rate + (1.0 - occupancy) * self.quiet_rate
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MarkovModulatedArrivals(quiet={self.quiet_rate:g}, "
            f"burst={self.burst_rate:g}, p_enter={self.p_enter:g}, "
            f"p_exit={self.p_exit:g})"
        )


class WeibullBurstArrivals(ArrivalProcess):
    """Weibull-gap bursts: heavy-tailed quiet periods between bursts.

    Inter-burst gaps (in steps) are drawn from a Weibull distribution
    with the given ``shape``, scaled so the expected gap is
    ``mean_gap``; each burst elevates one step's fault probability to
    ``burst_rate`` (steps outside bursts use ``quiet_rate``). A shape
    below 1 yields heavy-tailed gaps — long quiet stretches punctuated
    by clustered bursts, the empirical signature of correlated
    node-level failures in HPC failure traces.

    Parameters
    ----------
    mean_gap:
        Expected number of steps between bursts (>= 1).
    burst_rate / quiet_rate:
        Per-step fault probabilities inside / outside a burst step.
    shape:
        Weibull shape parameter ``k`` (> 0); ``k = 1`` is exponential.

    Examples
    --------
    >>> p = WeibullBurstArrivals(mean_gap=10.0, burst_rate=0.6)
    >>> round(p.mean_rate, 2)
    0.06
    """

    def __init__(
        self,
        mean_gap: float,
        burst_rate: float,
        quiet_rate: float = 0.0,
        shape: float = 0.7,
    ) -> None:
        if mean_gap < 1.0:
            raise ValidationError(
                f"mean_gap must be >= 1 step, got {mean_gap!r}"
            )
        if shape <= 0.0:
            raise ValidationError(f"shape must be > 0, got {shape!r}")
        for label, value in (
            ("burst_rate", burst_rate),
            ("quiet_rate", quiet_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{label} must lie in [0, 1], got {value!r}"
                )
        self.mean_gap = mean_gap
        self.burst_rate = burst_rate
        self.quiet_rate = quiet_rate
        self.shape = shape
        # scale lambda so E[gap] = lambda * Gamma(1 + 1/k) = mean_gap
        self._scale = mean_gap / math.gamma(1.0 + 1.0 / shape)

    def step_rates(
        self, n_steps: int, gen: "np.random.Generator"
    ) -> "np.ndarray":
        rates = np.full(n_steps, self.quiet_rate)
        step = 0
        while step < n_steps:
            gap = max(1.0, self._scale * gen.weibull(self.shape))
            step += int(round(gap))
            if step < n_steps:
                rates[step] = self.burst_rate
        return rates

    @property
    def mean_rate(self) -> float:
        burst_fraction = 1.0 / self.mean_gap
        return (
            burst_fraction * self.burst_rate
            + (1.0 - burst_fraction) * self.quiet_rate
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WeibullBurstArrivals(mean_gap={self.mean_gap:g}, "
            f"burst={self.burst_rate:g}, quiet={self.quiet_rate:g}, "
            f"shape={self.shape:g})"
        )


@dataclass(frozen=True)
class HazardProfile:
    """Stationary fault statistics of a model, for the surrogate.

    The analytic surrogate (:mod:`repro.faults.analytic`) needs only
    four facts about a failure model: how often a site faults per step
    (``site_rate``), the mix of fault kinds (``kind_weights``,
    normalized), each kind's magnitude, and whether the fault domain is
    a whole node (``node_level`` — one event crashes every co-located
    component) rather than a single component.

    Examples
    --------
    >>> profile = RandomFailureModel(rate=0.1).hazard()
    >>> profile.site_rate
    0.1
    >>> profile.kind_weights[FaultKind.CRASH]
    1.0
    """

    site_rate: float
    kind_weights: Mapping[FaultKind, float]
    magnitudes: Mapping[FaultKind, float]
    node_level: bool = False

    def __post_init__(self) -> None:
        if self.site_rate < 0:
            raise ValidationError(
                f"site_rate must be >= 0, got {self.site_rate!r}"
            )
        total = sum(self.kind_weights.values())
        if self.kind_weights and abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"kind_weights must sum to 1, got {total!r}"
            )

    def weights_over(
        self, allowed: Sequence[FaultKind]
    ) -> Dict[FaultKind, float]:
        """Kind weights renormalized over the ``allowed`` subset.

        Components that cannot experience some kinds (analyses never
        see chunk faults) fault at the same ``site_rate`` but with the
        mix renormalized over their admissible kinds — mirroring how
        :class:`RandomFailureModel` redraws kinds per site.
        """
        kept = {
            k: w for k, w in self.kind_weights.items() if k in tuple(allowed)
        }
        total = sum(kept.values())
        if total <= 0:
            return {}
        return {k: w / total for k, w in kept.items()}


class FailureModel(abc.ABC):
    """Maps an ensemble spec to a deterministic fault schedule."""

    @abc.abstractmethod
    def build_schedule(self, spec: "EnsembleSpec") -> FaultSchedule:
        """Produce the fault schedule for one execution of ``spec``."""

    def hazard(self) -> HazardProfile:
        """Stationary hazard statistics for the analytic surrogate.

        Raises
        ------
        ValidationError
            If the model has no closed-form hazard (e.g. a hand-written
            :class:`ScheduledFailureModel` scenario).
        """
        raise ValidationError(
            f"{type(self).__name__} has no analytic hazard profile; "
            "the surrogate supports rate-based models only"
        )


class NoFailureModel(FailureModel):
    """The ideal, failure-free model: an always-empty schedule."""

    def build_schedule(self, spec: "EnsembleSpec") -> FaultSchedule:
        return FaultSchedule(())

    def hazard(self) -> HazardProfile:
        return HazardProfile(
            site_rate=0.0,
            kind_weights={FaultKind.CRASH: 1.0},
            magnitudes={FaultKind.CRASH: 0.5},
        )


class RandomFailureModel(FailureModel):
    """Seeded per-site Bernoulli fault process.

    Every ``(component, step)`` site independently faults with
    probability ``rate``; the fault kind is drawn uniformly from
    ``kinds`` (chunk kinds only apply to simulation components — they
    are skipped for analyses). Sites are enumerated in spec order, so a
    given ``(rate, kinds, seed)`` triple always produces the same
    schedule regardless of how the executor consumes it.

    A rate of exactly 0 produces an empty schedule; injection with an
    empty schedule is byte-identical to no injection at all.

    Parameters
    ----------
    rate:
        Per-site per-step fault probability, in ``[0, 1]``.
    kinds:
        Fault kinds drawn uniformly per faulting site (non-empty).
    seed:
        Seed of the model's private ``RandomSource`` stream.
    crash_point / straggler_factor / stall_seconds / detection_seconds:
        Magnitudes assigned per kind — completed fraction for crashes,
        inflation factor for stragglers, delay seconds for stalls, and
        detection latency for chunk faults.

    Raises
    ------
    ValidationError
        If ``rate`` is outside ``[0, 1]`` or ``kinds`` is empty or
        contains a non-:class:`FaultKind`.

    Examples
    --------
    A fixed seed reproduces the schedule exactly:

    >>> from repro.runtime.spec import EnsembleSpec, default_member
    >>> spec = EnsembleSpec("demo", (default_member("em1", n_steps=6),))
    >>> model = RandomFailureModel(rate=0.5, seed=7)
    >>> len(model.build_schedule(spec)) == len(model.build_schedule(spec))
    True
    >>> RandomFailureModel(rate=0.0).build_schedule(spec).is_empty
    True
    """

    def __init__(
        self,
        rate: float,
        kinds: Sequence[FaultKind] = (FaultKind.CRASH,),
        seed: int = 0,
        crash_point: float = 0.5,
        straggler_factor: float = 3.0,
        stall_seconds: float = 5.0,
        detection_seconds: float = 1.0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"rate must lie in [0, 1], got {rate!r}")
        if not kinds:
            raise ValidationError("kinds must name at least one FaultKind")
        for kind in kinds:
            if not isinstance(kind, FaultKind):
                raise ValidationError(f"not a FaultKind: {kind!r}")
        self.rate = rate
        self.kinds = tuple(kinds)
        self.seed = seed
        self.crash_point = crash_point
        self.straggler_factor = straggler_factor
        self.stall_seconds = stall_seconds
        self.detection_seconds = detection_seconds

    def _magnitude(self, kind: FaultKind) -> float:
        if kind is FaultKind.CRASH:
            return self.crash_point
        if kind is FaultKind.STRAGGLER:
            return self.straggler_factor
        if kind is FaultKind.STALL:
            return self.stall_seconds
        return self.detection_seconds

    def _step_rates(
        self, n_steps: int, gen: "np.random.Generator"
    ) -> "np.ndarray":
        """Per-step fault probabilities (constant for the base model)."""
        return np.full(n_steps, self.rate)

    def build_schedule(self, spec: "EnsembleSpec") -> FaultSchedule:
        if self.rate == 0.0:
            return FaultSchedule(())
        gen = RandomSource(self.seed, name="faults").generator
        max_steps = max(m.n_steps for m in spec.members)
        rates = self._step_rates(max_steps, gen)
        events: List[FaultEvent] = []
        for member in spec.members:
            sites = [(member.simulation.name, True)]
            sites += [(ana.name, False) for ana in member.analyses]
            for component, is_sim in sites:
                allowed = [
                    k for k in self.kinds if is_sim or k not in CHUNK_KINDS
                ]
                if not allowed:
                    continue
                for step in range(member.n_steps):
                    if gen.uniform() >= rates[step]:
                        continue
                    kind = allowed[int(gen.integers(len(allowed)))]
                    if kind in CHUNK_KINDS:
                        stage = "W"
                    else:
                        stage = "S" if is_sim else "A"
                    events.append(
                        FaultEvent(
                            member=member.name,
                            component=component,
                            step=step,
                            kind=kind,
                            stage=stage,
                            magnitude=self._magnitude(kind),
                        )
                    )
        return FaultSchedule(events)

    def hazard(self) -> HazardProfile:
        """Uniform kind mix at the model's constant per-site rate."""
        weight = 1.0 / len(self.kinds)
        return HazardProfile(
            site_rate=self.rate,
            kind_weights={k: weight for k in self.kinds},
            magnitudes={k: self._magnitude(k) for k in self.kinds},
        )


class CorrelatedFailureModel(RandomFailureModel):
    """Component-level faults with a time-correlated arrival process.

    Identical to :class:`RandomFailureModel` except the per-step fault
    probability follows an :class:`ArrivalProcess` path instead of a
    constant: one path is drawn per run and shared by *every* site, so
    burst windows hit several components in the same few steps. The
    site draws themselves remain independent given the path.

    Parameters
    ----------
    process:
        Arrival process generating the shared per-step probability
        path (e.g. :class:`MarkovModulatedArrivals`,
        :class:`WeibullBurstArrivals`).
    kinds / seed / crash_point / straggler_factor / stall_seconds / \
detection_seconds:
        As for :class:`RandomFailureModel`.

    Raises
    ------
    ValidationError
        If ``process`` is not an :class:`ArrivalProcess`, or any base
        parameter fails :class:`RandomFailureModel` validation.

    Examples
    --------
    A fixed seed reproduces both the burst path and the site draws:

    >>> from repro.runtime.spec import EnsembleSpec, default_member
    >>> spec = EnsembleSpec("demo", (default_member("em1", n_steps=8),))
    >>> bursts = MarkovModulatedArrivals(0.0, 1.0, p_enter=0.3, p_exit=0.5)
    >>> model = CorrelatedFailureModel(bursts, seed=3)
    >>> model.build_schedule(spec).events == \
model.build_schedule(spec).events
    True
    """

    def __init__(
        self,
        process: ArrivalProcess,
        kinds: Sequence[FaultKind] = (FaultKind.CRASH,),
        seed: int = 0,
        crash_point: float = 0.5,
        straggler_factor: float = 3.0,
        stall_seconds: float = 5.0,
        detection_seconds: float = 1.0,
    ) -> None:
        if not isinstance(process, ArrivalProcess):
            raise ValidationError(
                f"process must be an ArrivalProcess, got {process!r}"
            )
        super().__init__(
            rate=process.mean_rate,
            kinds=kinds,
            seed=seed,
            crash_point=crash_point,
            straggler_factor=straggler_factor,
            stall_seconds=stall_seconds,
            detection_seconds=detection_seconds,
        )
        self.process = process

    def _step_rates(
        self, n_steps: int, gen: "np.random.Generator"
    ) -> "np.ndarray":
        return self.process.step_rates(n_steps, gen)


class NodeFailureModel(FailureModel):
    """Node-level crashes: one draw kills every component on the node.

    The fault domain is a *node* of the placement, not a component:
    each ``(node, step)`` pair faults with the per-step probability
    (constant ``rate``, or an :class:`ArrivalProcess` path shared by
    all nodes — a burst can then take down several nodes at once), and
    a faulting node emits one simultaneous ``CRASH`` event for every
    component placed on it at that step. Placement therefore interacts
    with the fault model: co-locating a member concentrates its blast
    radius on one node, while spreading it exposes the member to more
    independent fault domains.

    Parameters
    ----------
    placement:
        The component-to-node placement defining the fault domains.
        Must match the spec passed to :meth:`build_schedule` (same
        member count and coupling shape).
    rate:
        Per-node per-step crash probability, in ``[0, 1]``. Ignored
        when ``process`` is given.
    seed:
        Seed of the model's private ``RandomSource`` stream.
    crash_point:
        Completed fraction burned by each component crash, in
        ``(0, 1]``.
    process:
        Optional arrival process; its path is shared by every node.

    Raises
    ------
    ValidationError
        If ``rate`` is outside ``[0, 1]``, or the placement disagrees
        with the spec at :meth:`build_schedule` time.

    Examples
    --------
    At rate 1 every node faults every step, so co-located components
    crash *together* — the schedule carries one event per component
    per step:

    >>> from repro.runtime.spec import EnsembleSpec, default_member
    >>> from repro.runtime.placement import pack_members_per_node
    >>> spec = EnsembleSpec("demo", (default_member("em1", n_steps=4),))
    >>> model = NodeFailureModel(
    ...     pack_members_per_node(spec), rate=1.0, seed=1)
    >>> events = model.build_schedule(spec).events
    >>> sorted({e.component for e in events})
    ['em1.ana1', 'em1.sim']
    >>> len(events)
    8
    """

    def __init__(
        self,
        placement: "EnsemblePlacement",
        rate: float = 0.0,
        seed: int = 0,
        crash_point: float = 0.5,
        process: Optional[ArrivalProcess] = None,
    ) -> None:
        if process is None:
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(
                    f"rate must lie in [0, 1], got {rate!r}"
                )
            process = BernoulliArrivals(rate)
        elif not isinstance(process, ArrivalProcess):
            raise ValidationError(
                f"process must be an ArrivalProcess, got {process!r}"
            )
        if not 0.0 < crash_point <= 1.0:
            raise ValidationError(
                f"crash_point must lie in (0, 1], got {crash_point!r}"
            )
        self.placement = placement
        self.process = process
        self.seed = seed
        self.crash_point = crash_point

    @property
    def rate(self) -> float:
        """Stationary per-node per-step crash probability."""
        return self.process.mean_rate

    def _components_by_node(
        self, spec: "EnsembleSpec"
    ) -> Dict[int, List[Tuple[str, str, str, int]]]:
        """``node -> [(member, component, stage, n_steps), ...]``."""
        if len(self.placement.members) != spec.num_members:
            raise ValidationError(
                f"placement has {len(self.placement.members)} members, "
                f"spec has {spec.num_members}"
            )
        by_node: Dict[int, List[Tuple[str, str, str, int]]] = {}
        for member, mp in zip(spec.members, self.placement.members):
            if mp.num_couplings != member.num_couplings:
                raise ValidationError(
                    f"member {member.name!r}: placement has "
                    f"{mp.num_couplings} analyses, spec has "
                    f"{member.num_couplings}"
                )
            by_node.setdefault(mp.simulation_node, []).append(
                (member.name, member.simulation.name, "S", member.n_steps)
            )
            for ana, node in zip(member.analyses, mp.analysis_nodes):
                by_node.setdefault(node, []).append(
                    (member.name, ana.name, "A", member.n_steps)
                )
        return by_node

    def build_schedule(self, spec: "EnsembleSpec") -> FaultSchedule:
        by_node = self._components_by_node(spec)
        if self.process.mean_rate == 0.0:
            return FaultSchedule(())
        gen = RandomSource(self.seed, name="node-faults").generator
        max_steps = max(m.n_steps for m in spec.members)
        rates = self.process.step_rates(max_steps, gen)
        events: List[FaultEvent] = []
        for node in sorted(by_node):
            for step in range(max_steps):
                if gen.uniform() >= rates[step]:
                    continue
                for member, component, stage, n_steps in by_node[node]:
                    if step >= n_steps:
                        continue
                    events.append(
                        FaultEvent(
                            member=member,
                            component=component,
                            step=step,
                            kind=FaultKind.CRASH,
                            stage=stage,
                            magnitude=self.crash_point,
                        )
                    )
        return FaultSchedule(events)

    def hazard(self) -> HazardProfile:
        """Node-level crash hazard at the process's stationary rate."""
        return HazardProfile(
            site_rate=self.process.mean_rate,
            kind_weights={FaultKind.CRASH: 1.0},
            magnitudes={FaultKind.CRASH: self.crash_point},
            node_level=True,
        )


class ScheduledFailureModel(FailureModel):
    """An explicit, hand-written fault schedule (for tests and replay)."""

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self._schedule = FaultSchedule(events)

    def build_schedule(self, spec: "EnsembleSpec") -> FaultSchedule:
        known = set()
        for member in spec.members:
            known.add(member.simulation.name)
            known.update(a.name for a in member.analyses)
        unknown = sorted(
            {e.component for e in self._schedule.events} - known
        )
        if unknown:
            raise ValidationError(
                f"fault schedule names unknown components {unknown}; "
                f"ensemble has {sorted(known)}"
            )
        return self._schedule
