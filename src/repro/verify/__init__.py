"""Correctness verification: differential oracles, invariants, goldens.

The repo evaluates the same workflow-ensemble configuration through
several independent paths — the closed-form steady-state model
(Eqs. 1-3, 5-9), the memoized search cache, the analytic fault
surrogate, and the discrete-event executor. This subpackage turns
their agreement into enforced infrastructure:

- :mod:`repro.verify.oracles` — the differential oracle harness: one
  ``(spec, placement)`` through every path, exact agreement for
  cache-vs-reference, tolerance-banded agreement for analytic-vs-DES,
  an accuracy envelope for the fault surrogate, all distilled into a
  machine-readable :class:`DivergenceReport`;
- :mod:`repro.verify.invariants` — the runtime
  :class:`InvariantChecker` the executor hooks into its stage choke
  point (``verify=True`` / CLI ``--verify``): clock monotonicity,
  step ordering, Eq. 1 period consistency, Eq. 3 efficiency
  bounds — zero-cost when disabled;
- :mod:`repro.verify.goldens` — the golden-trace regression store of
  canonical scenarios (``tests/golden/``, regenerated by
  ``scripts/update_goldens.py``).

``docs/TESTING.md`` describes the oracle tiers, the tolerance policy,
and the golden-regeneration workflow.
"""

from repro.verify.goldens import (
    GOLDEN_SCENARIOS,
    GoldenScenario,
    build_golden,
    canonical_json,
    check_goldens,
    diff_goldens,
    load_golden,
    write_goldens,
)
from repro.verify.invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
)
from repro.verify.oracles import (
    DEFAULT_TOLERANCES,
    DivergenceReport,
    MetricCheck,
    run_differential_oracle,
    verify_scenarios,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "DivergenceReport",
    "GOLDEN_SCENARIOS",
    "GoldenScenario",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "MetricCheck",
    "build_golden",
    "canonical_json",
    "check_goldens",
    "diff_goldens",
    "load_golden",
    "run_differential_oracle",
    "verify_scenarios",
    "write_goldens",
]
