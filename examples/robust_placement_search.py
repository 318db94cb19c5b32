#!/usr/bin/env python
"""Robust placement search: the surrogate puts failures in the loop.

Ranks the paper's C1/C2-style placements of a two-member ensemble
three ways and compares the answers:

1. the ideal indicator objective F(P^{U,A,P}) (failure-free);
2. robust F measured from DES trials under node-level crash
   injection — the expensive ground truth;
3. the closed-form robustness surrogate (``method="surrogate"``) —
   the same ranking at a fraction of the cost, cheap enough to hand
   the planner as a ``RobustnessTerm``.

Finally it runs the planner twice — without and with the robustness
term — to show the term's penalty appearing in the plan's score.

Run (finishes in a few seconds):
    python examples/robust_placement_search.py
"""

import time

from repro.faults.analytic import node_crash_term
from repro.faults.models import NodeFailureModel
from repro.faults.recovery import RetryBackoffPolicy
from repro.runtime.placement import (
    pack_members_per_node,
    spread_components,
)
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.scheduler.planner import ResourceConstrainedPlanner
from repro.scheduler.robust import (
    robust_score_placement,
    surrogate_score_placement,
)

NODE_CRASH_RATE = 0.05
POLICY = RetryBackoffPolicy()


def main() -> None:
    spec = EnsembleSpec(
        "robust-search",
        (
            default_member("em1", num_analyses=2, n_steps=15),
            default_member("em2", num_analyses=2, n_steps=15),
        ),
    )
    candidates = {
        "C1-style (co-located)": pack_members_per_node(spec),
        "C2-style (spread)": spread_components(spec),
    }

    print(
        f"ranking {len(candidates)} placements under node-level "
        f"crashes (rate {NODE_CRASH_RATE})\n"
    )

    # node-level fault domains are placement-specific, so each
    # candidate gets a model built on its own placement
    t0 = time.perf_counter()
    des = sorted(
        (
            robust_score_placement(
                spec,
                placement,
                lambda seed, p=placement: NodeFailureModel(
                    p, rate=NODE_CRASH_RATE, seed=seed
                ),
                POLICY,
                trials=3,
                name=name,
            )
            for name, placement in candidates.items()
        ),
        reverse=True,
    )
    t_des = time.perf_counter() - t0

    t0 = time.perf_counter()
    surrogate = sorted(
        (
            surrogate_score_placement(
                spec,
                placement,
                NodeFailureModel(placement, rate=NODE_CRASH_RATE),
                POLICY,
                name=name,
            )
            for name, placement in candidates.items()
        ),
        reverse=True,
    )
    t_sur = time.perf_counter() - t0

    print("DES trials (ground truth):")
    for s in des:
        print(
            f"  F_robust={s.objective:+.5f}  "
            f"inflation=x{s.mean_inflation:.3f}  {s.name}"
        )
    print(f"  ({t_des * 1e3:.1f} ms)\n")

    print("analytic surrogate:")
    for s in surrogate:
        print(
            f"  F_robust={s.objective:+.5f}  "
            f"inflation=x{s.mean_inflation:.3f}  {s.name}"
        )
    print(
        f"  ({t_sur * 1e3:.1f} ms — {t_des / t_sur:.0f}x faster, "
        f"same order: {[s.name for s in des] == [s.name for s in surrogate]})"
    )

    term = node_crash_term(NODE_CRASH_RATE)
    ideal_plan = ResourceConstrainedPlanner().plan(spec, num_nodes=3)
    robust_plan = ResourceConstrainedPlanner(
        context=PlanningContext(robustness=term)
    ).plan(spec, num_nodes=3)
    print("\nplanner without robustness term:")
    print(
        f"  F={ideal_plan.score.objective:.5f}  "
        f"penalty={ideal_plan.score.robust_penalty:.5f}  "
        f"utility={ideal_plan.score.utility:.5f}"
    )
    print("planner with node-crash robustness term:")
    print(
        f"  F={robust_plan.score.objective:.5f}  "
        f"penalty={robust_plan.score.robust_penalty:.5f}  "
        f"utility={robust_plan.score.utility:.5f}"
    )
    print(
        "\nthe surrogate reproduces the DES ranking without a single "
        "DES run, so the same penalty can ride inside greedy or "
        "annealing search — see docs/FAULT_MODELS.md."
    )


if __name__ == "__main__":
    main()
