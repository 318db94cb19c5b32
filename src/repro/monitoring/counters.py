"""Synthetic hardware counters.

The paper reads LLC misses, LLC references, instructions, and cycles
from TAU/PAPI. Here the counters are synthesized from first principles
so they are *consistent with the timing model*: the same contention
assessment that dilates a component's compute stages also sets its
miss ratio and CPI, so Table-1 metrics and makespans move together the
way they do on real hardware.

Derivations per in situ step (compute stages only — I/O and idle
stages retire negligible instructions by comparison):

- ``instructions = solo_compute_time * cores * freq / solo_cpi``
  (what the kernel retires per step, a placement-invariant quantity);
- ``cycles = instructions * cpi_assessed`` (per core);
- ``llc_references = instructions * llc_refs_per_instr``;
- ``llc_misses = llc_references * miss_ratio_assessed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.components.base import ComponentModel
from repro.platform.contention import ContentionAssessment
from repro.util.errors import ValidationError
from repro.util.rng import RandomSource
from repro.util.validation import require_non_negative, require_positive_int


@dataclass(frozen=True)
class HardwareCounters:
    """Aggregate counters over a whole run (all in situ steps)."""

    instructions: float
    cycles: float
    llc_references: float
    llc_misses: float

    def __post_init__(self) -> None:
        require_non_negative("instructions", self.instructions)
        require_non_negative("cycles", self.cycles)
        require_non_negative("llc_references", self.llc_references)
        require_non_negative("llc_misses", self.llc_misses)
        if self.llc_misses > self.llc_references:
            raise ValidationError(
                "llc_misses cannot exceed llc_references "
                f"({self.llc_misses} > {self.llc_references})"
            )

    @property
    def llc_miss_ratio(self) -> float:
        """Table 1: LLC misses / LLC references."""
        if self.llc_references == 0:
            return 0.0
        return self.llc_misses / self.llc_references

    @property
    def memory_intensity(self) -> float:
        """Table 1: LLC misses / instructions."""
        if self.instructions == 0:
            return 0.0
        return self.llc_misses / self.instructions

    @property
    def ipc(self) -> float:
        """Table 1: instructions / cycles."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


def synthesize_counters(
    model: ComponentModel,
    assessment: ContentionAssessment,
    core_freq_hz: float,
    n_steps: int,
    rng: Optional[RandomSource] = None,
    noise: float = 0.0,
) -> HardwareCounters:
    """Counters for a component over ``n_steps`` in situ steps.

    ``noise`` adds multiplicative jitter (relative half-width) to the
    per-run totals, emulating run-to-run counter variation; 0 is exact.
    """
    require_positive_int("n_steps", n_steps)
    require_non_negative("noise", noise)
    profile = model.profile
    instr_per_step = (
        model.solo_compute_time() * model.cores * core_freq_hz / profile.solo_cpi()
    )
    instructions = instr_per_step * n_steps
    cycles = instructions * assessment.cpi
    references = instructions * profile.llc_refs_per_instr
    misses = references * assessment.llc_miss_ratio
    if noise > 0:
        rng = rng or RandomSource(0, name="counters")
        factors = rng.jitter_factors(noise, 4).tolist()
        instructions *= factors[0]
        cycles *= factors[1]
        references *= factors[2]
        misses = min(misses * factors[3], references)
    return HardwareCounters(
        instructions=instructions,
        cycles=cycles,
        llc_references=references,
        llc_misses=misses,
    )
