"""Single source for the numeric tolerances the test suite asserts.

Before this module existed, each suite hard-coded its own copies of the
same bands (``rel=1e-6`` analytic-vs-DES stage agreement in
``tests/runtime``, the 8 % / 5 % surrogate envelope in ``tests/faults``,
...). They are consolidated here and aligned with the oracle harness:
the tier-1/tier-2 values re-export
:data:`repro.verify.oracles.DEFAULT_TOLERANCES`, so a policy change in
the harness is immediately reflected in every suite (and vice versa —
there is exactly one place to edit).

``docs/TESTING.md`` documents the rationale behind each band.
"""

from repro.verify.oracles import DEFAULT_TOLERANCES

#: Exact agreement: bit-identical floats (tier 0 — memoized/cached
#: paths vs their reference implementations).
EXACT = DEFAULT_TOLERANCES["cache"]

#: Noise-free DES stage estimates vs the analytic prediction (tier 1).
STAGE_REL = DEFAULT_TOLERANCES["stage"]

#: Noise-free DES makespan vs Eq. 2 + drain (tier 1).
MAKESPAN_REL = DEFAULT_TOLERANCES["makespan"]

#: Placement-indicator values recomputed through independent paths.
INDICATOR_REL = DEFAULT_TOLERANCES["indicator"]

#: Ensemble objective (Eq. 9) recomputed through independent paths.
OBJECTIVE_REL = DEFAULT_TOLERANCES["objective"]

#: First-order fault surrogate vs the DES trial mean (tier 2).
SURROGATE_REL = DEFAULT_TOLERANCES["surrogate"]

#: Delta replay vs serial DES trials under the adaptive recovery
#: policy, whose budget drains in global event order (banded tier 0).
BATCHED_ADAPTIVE_REL = DEFAULT_TOLERANCES["batched_adaptive"]

#: Noisy-executor convergence: with timing noise the steady-state
#: estimates only approach the analytic values statistically.
NOISY_REL = 0.05

#: Documented surrogate validation envelope (docs/RESILIENCE.md):
#: every grid cell within 8 %, grid mean within 5 %.
SURROGATE_CELL_REL = 0.08
SURROGATE_GRID_MEAN_REL = 0.05

#: Tolerances mapping handed to ``run_differential_oracle`` /
#: ``verify_scenarios`` by the verification tests — today identical to
#: the harness defaults, but passed explicitly so the suite pins the
#: policy rather than inheriting silent changes.
ORACLE_TOLERANCES = dict(DEFAULT_TOLERANCES)
