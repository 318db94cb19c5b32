"""Pinned outputs of the four planning entry points.

Every value below was recorded from the implementation and is compared
with ``==``: the floats are written with ``repr``, which round-trips
exactly, so any change in the arithmetic, the candidate order or the
tie-breaking of :func:`find_best_placement`, :func:`score_placement`,
:func:`rank_placements_robust` or :class:`ResourceConstrainedPlanner`
fails here. The cases cover a non-default platform (contention off, a
lighter DIMES progress tax), a robustness term, a shared stage cache
(called twice, so the second call runs warm), a larger 2 065-candidate
search and a robust plan that the term steers through the planner's
policy.
"""

import pytest

from repro.dtl.dimes import InMemoryStagingDTL
from repro.faults.analytic import (
    RobustnessTerm,
    node_crash_builder,
    node_crash_term,
)
from repro.faults.recovery import RetryBackoffPolicy, make_policy
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.scheduler.planner import ResourceConstrainedPlanner
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
)
from repro.search.cache import StageCache
from repro.search.engine import find_best_placement


def _spec(analyses, n_steps: int = 4) -> EnsembleSpec:
    return EnsembleSpec(
        "pins",
        tuple(
            default_member(f"em{i + 1}", num_analyses=k, n_steps=n_steps)
            for i, k in enumerate(analyses)
        ),
    )


def _contexts():
    return {
        "platform": PlanningContext(
            cache=StageCache(
                make_cori_like_cluster(3, contention_enabled=False),
                InMemoryStagingDTL(producer_progress_tax=0.03),
            )
        ),
        "robust": PlanningContext(
            robustness=RobustnessTerm(
                policy=make_policy("retry"),
                model_builder=node_crash_builder(0.05),
                weight=2.0,
            )
        ),
        "cache": PlanningContext(cache=StageCache()),
        "node-crash": PlanningContext(robustness=node_crash_term(0.05)),
    }


def _placement(p: EnsemblePlacement):
    return (
        p.num_nodes,
        tuple((m.simulation_node, m.analysis_nodes) for m in p.members),
    )


def _score(s):
    return (
        _placement(s.placement),
        s.objective,
        s.ensemble_makespan,
        s.member_indicators,
        s.robust_penalty,
    )


_PACKED_2 = (3, ((0, (0,)), (1, (1, 1))))
_MIXED = (3, ((0, (0,)), (1, (1, 2))))

SEARCH_PINS = {
    "platform": (
        (
            _PACKED_2,
            0.008818068970171122,
            61.251599999999996,
            (0.011757425293561496, 0.008818068970171122),
            0.0,
        ),
        29,
    ),
    "robust": (
        (
            _PACKED_2,
            0.00842779653977458,
            78.74230716223487,
            (0.011368836959665958, 0.008427796539774579),
            0.04369986831069195,
        ),
        29,
    ),
    "cache": (
        (
            _PACKED_2,
            0.00842779653977458,
            78.74230716223487,
            (0.011368836959665958, 0.008427796539774579),
            0.0,
        ),
        29,
    ),
}

SCORE_PINS = {
    "platform": (
        _MIXED,
        0.006420651263521815,
        63.092499999999994,
        (0.011757425293561496, 0.006420651263521815),
        0.0,
    ),
    "robust": (
        _MIXED,
        0.00601620236239225,
        67.5198226172695,
        (0.011368836959665958, 0.00601620236239225),
        0.05960825240527612,
    ),
    "cache": (
        _MIXED,
        0.00601620236239225,
        67.5198226172695,
        (0.011368836959665958, 0.00601620236239225),
        0.0,
    ),
}

PLAN_PINS = {
    "platform": (
        (2, ((0, (0,)), (1, (1,)))),
        8,
        (
            (2, ((0, (0,)), (1, (1,)))),
            0.017636137940342245,
            61.251599999999996,
            (0.017636137940342245, 0.017636137940342245),
            0.0,
        ),
    ),
    "robust": (
        (2, ((0, (0,)), (1, (1,)))),
        8,
        (
            (2, ((0, (0,)), (1, (1,)))),
            0.017053255439498937,
            63.694828884216506,
            (0.017053255439498937, 0.017053255439498937),
            0.04411173260838375,
        ),
    ),
    # the greedy searches on the penalized utility: -0.021256700915381826
    # here, where the plan it chose on F alone scores -0.043017392344546906
    "node-crash": (
        (4, ((0, (0, 0, 1)), (2, (2, 2, 3)))),
        8,
        (
            (4, ((0, (0, 0, 1)), (2, (2, 2, 3)))),
            0.003874088523876012,
            236.2269214867046,
            (0.003874088523876012, 0.003874088523876012),
            0.02513078943925784,
        ),
    ),
}

#: (analyses per member, n_steps, node budget) of a planner case, when
#: not two single-analysis members of 4 steps on 3 nodes
PLAN_SHAPES = {"node-crash": ((3, 3), 12, 4)}

RANK_CANDIDATES = {
    "packed": EnsemblePlacement(
        2, (MemberPlacement(0, (0,)), MemberPlacement(1, (1, 1)))
    ),
    "spread": EnsemblePlacement(
        3, (MemberPlacement(0, (1,)), MemberPlacement(1, (2, 2)))
    ),
    "mixed": EnsemblePlacement(
        3, (MemberPlacement(0, (0,)), MemberPlacement(1, (1, 2)))
    ),
}


class TestFindBestPlacementPins:
    @pytest.mark.parametrize("name", sorted(SEARCH_PINS))
    def test_context(self, name):
        context = _contexts()[name]
        spec = _spec((1, 2))
        for _ in range(2):  # the second call sees a warm shared cache
            best, evaluated = find_best_placement(
                spec, 3, 32, context=context
            )
            assert (_score(best), evaluated) == SEARCH_PINS[name]

    def test_kernel_route(self):
        best, evaluated = find_best_placement(_spec((2, 2, 1)), 6, 32)
        assert evaluated == 2065
        assert _score(best) == (
            (6, ((0, (0, 0)), (1, (1, 1)), (2, (2,)))),
            0.004010861798319544,
            78.74230716223487,
            (0.004213898269887289, 0.004213898269887289, 0.005684418479832979),
            0.0,
        )


class TestScorePlacementPins:
    @pytest.mark.parametrize("name", sorted(SCORE_PINS))
    def test_context(self, name):
        score = score_placement(
            _spec((1, 2)), RANK_CANDIDATES["mixed"], context=_contexts()[name]
        )
        assert _score(score) == SCORE_PINS[name]


class TestRankPlacementsRobustPins:
    def test_surrogate_on_a_platform_context(self):
        ranking = rank_placements_robust(
            _spec((1, 2)),
            RANK_CANDIDATES,
            crash_straggler_factory(0.05),
            RetryBackoffPolicy(),
            method="surrogate",
            context=_contexts()["platform"],
        )
        assert [(s.name, s.objective, s.mean_inflation) for s in ranking] == [
            ("packed", -0.115041294229832, 1.1282683976850887),
            ("spread", -0.11627515302179985, 1.1204342786765733),
            ("mixed", -0.11783564305120581, 1.1242562943147276),
        ]

    def test_des_on_the_batched_engine(self):
        ranking = rank_placements_robust(
            _spec((1, 2)),
            RANK_CANDIDATES,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            trials=2,
            method="des",
            context=_contexts()["platform"],
        )
        assert [(s.name, s.objective, s.mean_inflation) for s in ranking] == [
            ("packed", 0.008244699698994648, 1.5551896866515302),
            ("mixed", 0.004131750391520936, 1.5387202957632244),
            ("spread", 0.0027633202241802565, 1.5230437105033148),
        ]


class TestPlannerPins:
    @pytest.mark.parametrize("name", sorted(PLAN_PINS))
    def test_context(self, name):
        analyses, n_steps, num_nodes = PLAN_SHAPES.get(name, ((1, 1), 4, 3))
        plan = ResourceConstrainedPlanner(context=_contexts()[name]).plan(
            _spec(analyses, n_steps), num_nodes=num_nodes
        )
        assert (
            _placement(plan.placement),
            plan.analysis_cores,
            _score(plan.score),
        ) == PLAN_PINS[name]
