"""The re-planner's decisions, pinned field for field.

Every expected value below was recorded from the re-planner before it
memoized its calibrated predictions and the annealer's states; the
memo tables must not move a single decision or float. Two groups:

- closed-loop runs (the ``scripts/bench_reschedule.py`` canonical
  scenario and the repo benchmark's des-mix reschedule shapes),
  capturing every decision the controller receives;
- direct ``replan`` calls on hand-built telemetry: a two-analysis
  ensemble, a full allocation, a rejection at the migration-cost gate
  and the annealer-free path.
"""

from __future__ import annotations

import pytest

from repro.dtl.dimes import InMemoryStagingDTL
from repro.platform.specs import make_cori_like_cluster
from repro.reschedule import (
    DriftEvent,
    DriftKind,
    RescheduleController,
    StaticDriftModel,
)
from repro.reschedule.replanner import Replanner
from repro.runtime import run_ensemble
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member

#: the DTL price of moving one component's state.
COST = 0.0010764

#: three members packed one per node, node 3 idle.
PACKED = ((0, (0,)), (1, (1,)), (2, (2,)))


def _spec(pattern, n_steps, name="pin"):
    return EnsembleSpec(
        name,
        tuple(
            default_member(f"em{i}", num_analyses=k, n_steps=n_steps)
            for i, k in enumerate(pattern)
        ),
    )


def _placement(num_nodes, members):
    return EnsemblePlacement(
        num_nodes, tuple(MemberPlacement(s, a) for s, a in members)
    )


def _drift(node, magnitude):
    return StaticDriftModel(
        (
            DriftEvent(
                node=node,
                kind=DriftKind.STEP,
                start_step=4,
                magnitude=magnitude,
            ),
        )
    )


def _moves(*moves):
    """``(component, from, to)`` triples as pinned move fields."""
    return tuple(
        (component.split(".")[0], component, src, dst, COST)
        for component, src, dst in moves
    )


def _fields(decision):
    return (
        decision.accepted,
        tuple(
            (mp.simulation_node, mp.analysis_nodes)
            for mp in decision.placement.members
        ),
        tuple(
            (m.member, m.component, m.from_node, m.to_node, m.cost)
            for m in decision.plan.moves
        ),
        decision.static_remaining,
        decision.candidate_remaining,
        decision.migration_cost,
    )


def _captured(monkeypatch, run):
    """The fields of every decision the controller received in ``run``."""
    decisions = []
    replan = Replanner.replan

    def spy(self, current, slowdown, remaining_steps):
        decision = replan(self, current, slowdown, remaining_steps)
        decisions.append(decision)
        return decision

    monkeypatch.setattr(Replanner, "replan", spy)
    run()
    return [_fields(d) for d in decisions]


class TestClosedLoopPins:
    def test_canonical_bench_scenario(self, monkeypatch):
        decisions = _captured(
            monkeypatch,
            lambda: run_ensemble(
                _spec((1, 1, 1), 24, name="bench-reschedule"),
                _placement(4, PACKED),
                seed=0,
                timing_noise=0.02,
                drift=_drift(0, 2.5),
                rescheduler=RescheduleController(
                    window=4, threshold=1.2, min_dwell=4, max_migrations=4
                ),
            ),
        )
        assert decisions == [
            (
                True,
                ((3, (3,)), (1, (1,)), (2, (2,))),
                _moves(("em0.sim", 0, 3), ("em0.ana1", 0, 3)),
                453.07666464757267,
                347.43230188778927,
                0.0021528,
            )
        ]

    #: (n_steps, drift magnitude, drifted node) -> (placement, moves,
    #: static remaining, candidate remaining, migration cost); every
    #: decision is accepted.
    DES_MIX = {
        (12, 2.0, 0): (
            ((3, (0,)), (1, (1,)), (2, (2,))),
            (("em0.sim", 0, 3),),
            175.52923501760702, 156.34781523513976, 0.0010764,
        ),
        (12, 2.0, 1): (
            ((0, (0,)), (3, (1,)), (2, (2,))),
            (("em1.sim", 1, 3),),
            175.52923501760702, 156.34781523513976, 0.0010764,
        ),
        (12, 2.0, 2): (
            ((0, (0,)), (1, (1,)), (3, (3,))),
            (("em2.sim", 2, 3), ("em2.ana1", 2, 3)),
            175.52923501760702, 140.42410801408565, 0.0021528,
        ),
        (12, 3.0, 0): (
            ((3, (3,)), (1, (1,)), (2, (2,))),
            (("em0.sim", 0, 3), ("em0.ana1", 0, 3)),
            210.63436202112845, 156.34781523513976, 0.0021528,
        ),
        (12, 3.0, 1): (
            ((0, (0,)), (3, (3,)), (2, (2,))),
            (("em1.sim", 1, 3), ("em1.ana1", 1, 3)),
            210.63436202112845, 156.34781523513976, 0.0021528,
        ),
        (12, 3.0, 2): (
            ((0, (0,)), (1, (1,)), (3, (3,))),
            (("em2.sim", 2, 3), ("em2.ana1", 2, 3)),
            210.63436202112845, 140.42410801408565, 0.0021528,
        ),
        (14, 2.0, 0): (
            ((3, (0,)), (1, (1,)), (2, (2,))),
            (("em0.sim", 0, 3),),
            215.33830307024235, 188.19522967724802, 0.0010764,
        ),
        (14, 2.0, 1): (
            ((0, (0,)), (3, (1,)), (2, (2,))),
            (("em1.sim", 1, 3),),
            215.33830307024235, 188.19522967724802, 0.0010764,
        ),
        (14, 2.0, 2): (
            ((0, (0,)), (1, (1,)), (3, (3,))),
            (("em2.sim", 2, 3), ("em2.ana1", 2, 3)),
            215.33830307024235, 172.2715224561939, 0.0021528,
        ),
        (14, 3.0, 0): (
            ((3, (3,)), (1, (1,)), (2, (2,))),
            (("em0.sim", 0, 3), ("em0.ana1", 0, 3)),
            258.4050836842908, 188.19522967724802, 0.0021528,
        ),
        (14, 3.0, 1): (
            ((0, (0,)), (3, (3,)), (2, (2,))),
            (("em1.sim", 1, 3), ("em1.ana1", 1, 3)),
            258.4050836842908, 188.19522967724802, 0.0021528,
        ),
        (14, 3.0, 2): (
            ((0, (0,)), (1, (1,)), (3, (3,))),
            (("em2.sim", 2, 3), ("em2.ana1", 2, 3)),
            258.4050836842908, 172.2715224561939, 0.0021528,
        ),
        (16, 2.0, 0): (
            ((3, (0,)), (1, (1,)), (2, (2,))),
            (("em0.sim", 0, 3),),
            255.14737112287764, 220.04264411935628, 0.0010764,
        ),
        (16, 2.0, 1): (
            ((0, (0,)), (3, (1,)), (2, (2,))),
            (("em1.sim", 1, 3),),
            255.14737112287764, 220.04264411935628, 0.0010764,
        ),
        (16, 2.0, 2): (
            ((0, (0,)), (1, (1,)), (3, (3,))),
            (("em2.sim", 2, 3), ("em2.ana1", 2, 3)),
            255.14737112287764, 204.11893689830214, 0.0021528,
        ),
        (16, 3.0, 0): (
            ((3, (3,)), (1, (1,)), (2, (2,))),
            (("em0.sim", 0, 3), ("em0.ana1", 0, 3)),
            306.1758053474532, 220.04264411935628, 0.0021528,
        ),
        (16, 3.0, 1): (
            ((0, (0,)), (3, (3,)), (2, (2,))),
            (("em1.sim", 1, 3), ("em1.ana1", 1, 3)),
            306.1758053474532, 220.04264411935628, 0.0021528,
        ),
        (16, 3.0, 2): (
            ((0, (0,)), (1, (1,)), (3, (3,))),
            (("em2.sim", 2, 3), ("em2.ana1", 2, 3)),
            306.1758053474532, 204.11893689830214, 0.0021528,
        ),
    }

    @pytest.mark.parametrize("case", sorted(DES_MIX), ids=str)
    def test_des_mix_shapes(self, monkeypatch, case):
        n_steps, magnitude, node = case
        decisions = _captured(
            monkeypatch,
            lambda: run_ensemble(
                _spec((1, 1, 1), n_steps, name="des-mix"),
                _placement(4, PACKED),
                seed=0,
                drift=_drift(node, magnitude),
                rescheduler=RescheduleController(
                    window=4, threshold=1.2, max_migrations=1
                ),
            ),
        )
        placement, moves, static, candidate, cost = self.DES_MIX[case]
        assert decisions == [
            (True, placement, _moves(*moves), static, candidate, cost)
        ]


class TestDirectReplanPins:
    @staticmethod
    def _replan(pattern, num_nodes, members, slowdown, remaining, **knobs):
        spec = _spec(pattern, 16)
        cluster = make_cori_like_cluster(num_nodes)
        dtl = InMemoryStagingDTL(
            network=cluster.network,
            memory_bandwidth=cluster.node_spec.memory_bandwidth,
        )
        replanner = Replanner(spec, cluster, dtl, cores_per_node=32, **knobs)
        return _fields(
            replanner.replan(
                _placement(num_nodes, members), slowdown, remaining
            )
        )

    def test_two_analysis_members(self):
        assert self._replan(
            (2, 2, 1),
            5,
            ((0, (0, 1)), (2, (2, 1)), (3, (3,))),
            {0: 2.5, 2: 1.5},
            {"em0": 10, "em1": 10, "em2": 8},
        ) == (
            True,
            ((1, (1, 1)), (3, (3, 3)), (2, (2,))),
            _moves(
                ("em0.sim", 0, 1),
                ("em0.ana1", 0, 1),
                ("em1.sim", 2, 3),
                ("em1.ana1", 2, 3),
                ("em1.ana2", 1, 3),
                ("em2.sim", 3, 2),
                ("em2.ana1", 3, 2),
            ),
            454.57841697206595,
            212.78274735764515,
            0.0075347999999999995,
        )

    def test_full_allocation(self):
        assert self._replan(
            (1, 1, 1, 1),
            4,
            ((0, (0,)), (1, (1,)), (2, (2,)), (3, (3,))),
            {1: 3.0},
            {"em0": 6, "em1": 6, "em2": 6, "em3": 6},
        ) == (
            True,
            ((0, (2,)), (1, (0,)), (2, (2,)), (3, (3,))),
            _moves(("em0.ana1", 0, 2), ("em1.ana1", 1, 0)),
            325.72448071593215,
            305.21492664565255,
            0.0021528,
        )

    def test_rejected_at_the_gate(self):
        assert self._replan(
            (1, 1, 1),
            4,
            PACKED,
            {0: 1.3},
            {"em0": 2, "em1": 2, "em2": 2},
            min_gain=50.0,
        ) == (
            False,
            PACKED,
            (),
            58.346064094089144,
            44.88186468776088,
            0.0021528,
        )

    def test_without_annealer(self):
        assert self._replan(
            (1, 1, 1),
            4,
            PACKED,
            {0: 2.0, 1: 1.4},
            {"em0": 9, "em1": 9, "em2": 9},
            use_annealer=False,
        ) == (
            True,
            ((3, (2,)), (3, (1,)), (2, (2,))),
            _moves(
                ("em0.sim", 0, 3), ("em0.ana1", 0, 2), ("em1.sim", 1, 3)
            ),
            312.6916304702795,
            193.56878389795526,
            0.0032291999999999998,
        )
