"""Analytic model of co-location interference.

This module answers one question: *given the set of components resident
on a node (or socket), how much slower does each run, and what do its
hardware counters look like?* The answer feeds both the discrete-event
executor (stage-time dilation) and the monitoring layer (Table 1
metrics: LLC miss ratio, memory intensity, instructions per cycle).

Model
-----
Each component carries a :class:`WorkloadProfile`:

- ``working_set_bytes`` — the hot data it keeps re-touching;
- ``llc_refs_per_instr`` — LLC references per retired instruction;
- ``solo_llc_miss_ratio`` — miss ratio when it owns the whole cache;
- ``max_llc_miss_ratio`` — miss ratio when it retains no cache at all;
- ``contention_exponent`` — shape of the response between those two
  extremes (see below);
- ``base_cpi`` — cycles per instruction if the LLC never missed;
- ``instructions_per_unit`` — instructions retired per unit of work.

**Cache sharing.** Components on the same socket compete for LLC
capacity. Each wins a share proportional to its access pressure
(``llc_refs_per_instr x instruction rate x working set``, simplified to
``llc_refs_per_instr x working_set_bytes`` since all our components are
continuously active during their compute stages). The fraction of its
solo cache footprint it loses interpolates its miss ratio between
``solo`` and ``max``:

    lost_k  = max(0, 1 - share_k*C / min(ws_k, C))
    miss_k  = solo_k + (max_k - solo_k) * lost_k ** exponent_k

The ``contention_exponent`` captures how gracefully a kernel degrades:
a cache-blocked MD kernel (exponent ~2) tolerates losing half its
cache — its blocked tiles still fit — but collapses when an aggressive
streaming neighbour evicts nearly everything, whereas a streaming
analysis kernel (exponent ~1) degrades linearly because every line it
loses is a line it would have re-used exactly once.

**Memory bandwidth.** Each component's DRAM demand is its miss rate
converted to bytes/s. If the sum over the node exceeds the node's
memory bandwidth, memory time stretches by the overload factor.

**CPI / dilation.** Cycles per instruction is
``base_cpi + llc_refs_per_instr * miss_ratio * miss_penalty * stretch``.
The dilation of a component is the ratio of its contended CPI to its
solo CPI; the executor multiplies compute-stage durations by it.

This is a deliberately simple fixed-point-free model (shares are
computed from static profiles, not from the dilated rates) — it is
deterministic, monotone in co-location pressure, and reproduces the
qualitative orderings in the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.platform.cache import CacheSpec
from repro.util.errors import ValidationError
from repro.util.units import MIB
from repro.util.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)

if TYPE_CHECKING:
    from repro.platform.node import NodeSpec


@dataclass(frozen=True)
class WorkloadProfile:
    """Static micro-architectural description of one component's kernel.

    The defaults are deliberately neutral; use
    :func:`simulation_profile` / :func:`analysis_profile` in
    :mod:`repro.components` for profiles matching the paper's
    compute-intensive simulation and data-intensive analysis.
    """

    name: str
    working_set_bytes: float = 16 * MIB
    llc_refs_per_instr: float = 0.01
    solo_llc_miss_ratio: float = 0.05
    max_llc_miss_ratio: float = 0.60
    contention_exponent: float = 1.0
    base_cpi: float = 0.5
    instructions_per_unit: float = 1e9
    miss_penalty_cycles: float = 200.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("profile name must be non-empty")
        require_positive("working_set_bytes", self.working_set_bytes)
        require_non_negative("llc_refs_per_instr", self.llc_refs_per_instr)
        require_in_range("solo_llc_miss_ratio", self.solo_llc_miss_ratio, 0.0, 1.0)
        require_in_range("max_llc_miss_ratio", self.max_llc_miss_ratio, 0.0, 1.0)
        if self.max_llc_miss_ratio < self.solo_llc_miss_ratio:
            raise ValidationError(
                "max_llc_miss_ratio must be >= solo_llc_miss_ratio"
            )
        require_positive("contention_exponent", self.contention_exponent)
        require_positive("base_cpi", self.base_cpi)
        require_positive("instructions_per_unit", self.instructions_per_unit)
        require_non_negative("miss_penalty_cycles", self.miss_penalty_cycles)

    def scaled(self, name: str, work_scale: float) -> "WorkloadProfile":
        """Derive a profile doing ``work_scale`` times the instructions."""
        require_positive("work_scale", work_scale)
        return replace(
            self, name=name, instructions_per_unit=self.instructions_per_unit * work_scale
        )

    def solo_cpi(self) -> float:
        """Cycles per instruction with the whole cache and no bw pressure."""
        return (
            self.base_cpi
            + self.llc_refs_per_instr
            * self.solo_llc_miss_ratio
            * self.miss_penalty_cycles
        )


@dataclass(frozen=True)
class ContentionAssessment:
    """Per-component outcome of the interference model on one node."""

    profile: WorkloadProfile
    llc_miss_ratio: float
    cpi: float
    dilation: float
    bandwidth_demand: float
    bandwidth_stretch: float

    @property
    def memory_intensity(self) -> float:
        """LLC misses per instruction (the paper's 'memory intensity')."""
        return self.llc_refs_per_instr * self.llc_miss_ratio

    @property
    def llc_refs_per_instr(self) -> float:
        return self.profile.llc_refs_per_instr

    @property
    def ipc(self) -> float:
        """Instructions per cycle under the assessed contention."""
        return 1.0 / self.cpi


class ContentionModel:
    """Evaluates interference for sets of co-resident workload profiles.

    The platform's numbers (clock frequency, cache, node-wide DRAM
    bandwidth) come from the :class:`~repro.platform.node.NodeSpec`
    that :meth:`assess` receives, so a model cannot disagree with the
    node it prices.

    Parameters
    ----------
    enabled:
        When ``False``, every assessment returns solo behaviour — the
        ablation switch used by ``benchmarks/test_bench_ablation.py``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled

    # -- cache sharing within one socket --------------------------------------
    def miss_ratios(
        self, cache: CacheSpec, profiles: Sequence[WorkloadProfile]
    ) -> List[float]:
        """Effective LLC miss ratio of each profile sharing ``cache``."""
        if not profiles:
            return []
        if not self.enabled or len(profiles) == 1:
            return [p.solo_llc_miss_ratio for p in profiles]
        pressures = [
            max(p.llc_refs_per_instr, 1e-12) * p.working_set_bytes for p in profiles
        ]
        total_pressure = sum(pressures)
        capacity = float(cache.size_bytes)
        ratios: List[float] = []
        for p, pressure in zip(profiles, pressures):
            share = pressure / total_pressure
            solo_footprint = min(p.working_set_bytes, capacity)
            kept = min(share * capacity, solo_footprint)
            lost = max(0.0, 1.0 - kept / solo_footprint)
            ratios.append(
                p.solo_llc_miss_ratio
                + (p.max_llc_miss_ratio - p.solo_llc_miss_ratio)
                * lost**p.contention_exponent
            )
        return ratios

    # -- bandwidth demand -------------------------------------------------------
    def bandwidth_demand(
        self,
        profile: WorkloadProfile,
        miss_ratio: float,
        node_spec: "NodeSpec",
        cores: int,
    ) -> float:
        """DRAM traffic (bytes/s) the component generates at ``miss_ratio``.

        Instruction rate is approximated by ``cores * freq / solo_cpi``
        at the node's clock: the demand a component *would* issue if not
        yet slowed down. Misses move the node's LLC lines.
        """
        instr_rate = cores * node_spec.core_freq_hz / profile.solo_cpi()
        miss_rate = instr_rate * profile.llc_refs_per_instr * miss_ratio
        return miss_rate * node_spec.llc.line_bytes

    # -- full assessment ----------------------------------------------------------
    def assess(
        self,
        node_spec: "NodeSpec",
        residents: Sequence[Tuple[WorkloadProfile, int]],
    ) -> List[ContentionAssessment]:
        """Assess a node's ``(profile, cores)`` residents, in allocation order.

        Cores are split across sockets by
        :meth:`~repro.platform.node.NodeSpec.socket_shares`. Each socket
        prices the miss ratio and DRAM demand of every resident holding
        cores on it; a resident spanning sockets takes those of its
        *primary* socket (most cores, ties to the lower socket),
        consistent with first-touch data placement. The node-wide
        demand of every (socket, resident) pair sets the bandwidth
        stretch. Returns one assessment per resident, in input order.
        """
        shares = node_spec.socket_shares([cores for _, cores in residents])
        cache = node_spec.llc
        ratio: Dict[Tuple[int, int], float] = {}
        demand: Dict[Tuple[int, int], float] = {}
        for s in range(node_spec.sockets):
            on_socket = [i for i, share in enumerate(shares) if share[s]]
            ratios = self.miss_ratios(cache, [residents[i][0] for i in on_socket])
            for i, r in zip(on_socket, ratios):
                ratio[i, s] = r
                demand[i, s] = self.bandwidth_demand(
                    residents[i][0], r, node_spec, shares[i][s]
                )
        total_demand = sum(demand.values())
        bandwidth = node_spec.memory_bandwidth
        if self.enabled and total_demand > bandwidth:
            stretch = total_demand / bandwidth
        else:
            stretch = 1.0

        out: List[ContentionAssessment] = []
        for i, (profile, _) in enumerate(residents):
            share = shares[i]
            primary = (i, max(range(node_spec.sockets), key=share.__getitem__))
            cpi = (
                profile.base_cpi
                + profile.llc_refs_per_instr
                * ratio[primary]
                * profile.miss_penalty_cycles
                * stretch
            )
            out.append(
                ContentionAssessment(
                    profile=profile,
                    llc_miss_ratio=ratio[primary],
                    cpi=cpi,
                    dilation=cpi / profile.solo_cpi(),
                    bandwidth_demand=demand[primary],
                    bandwidth_stretch=stretch,
                )
            )
        return out
