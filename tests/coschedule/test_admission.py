"""Admission determinism and decision-evidence properties.

The headline property (ISSUE 10): the same request stream produces
*byte-identical* decision logs — asserted via ``decisions_digest`` on
independently constructed controllers and full scheduler runs.
"""

import pytest
from hypothesis import given, settings

from repro.coschedule import (
    AdmissionAction,
    AdmissionController,
    ClusterAllocator,
    CoScheduler,
    ResidentWorkload,
    canonical_mixed_deadline_stream,
    decisions_digest,
)
from repro.coschedule.requests import EnsembleRequest
from repro.runtime.spec import EnsembleSpec, default_member
from repro.util.errors import PlacementError
from tests.strategies import ensemble_stream

#: CoScheduler-running properties search real placements per example,
#: so the example budget is small and the deadline is off.
loop_settings = settings(max_examples=8, deadline=None)


def _spec(name, members=1, sim_cores=16, ana_cores=8):
    return EnsembleSpec(
        name,
        tuple(
            default_member(
                f"{name}-m{i}",
                n_steps=4,
                sim_cores=sim_cores,
                ana_cores=ana_cores,
            )
            for i in range(members)
        ),
    )


class TestDecisionDeterminism:
    @given(stream=ensemble_stream())
    @loop_settings
    def test_controller_decisions_are_byte_identical(self, stream):
        logs = []
        for _ in range(2):
            controller = AdmissionController(total_nodes=4)
            logs.append(
                [
                    controller.decide(request, free_nodes=4, now=0.0)
                    for request in stream
                ]
            )
        assert logs[0] == logs[1]
        assert decisions_digest(logs[0]) == decisions_digest(logs[1])

    @given(stream=ensemble_stream(max_requests=3))
    @loop_settings
    def test_full_runs_share_one_decisions_digest(self, stream):
        first = CoScheduler(total_nodes=4).run(stream)
        second = CoScheduler(total_nodes=4).run(stream)
        assert first.decisions_digest() == second.decisions_digest()
        assert first.digest() == second.digest()


class TestDecisionEvidence:
    def test_accept_when_minimum_grant_fits(self):
        controller = AdmissionController(total_nodes=4)
        request = EnsembleRequest(name="fits", spec=_spec("fits"))
        decision = controller.decide(request, free_nodes=4, now=5.0)
        assert decision.action is AdmissionAction.ACCEPT
        assert decision.min_feasible_nodes == 1
        assert decision.feasible_placements > 0
        assert decision.time == 5.0
        assert "admitted" in decision.reason

    def test_queue_when_headroom_too_small(self):
        controller = AdmissionController(total_nodes=4)
        request = EnsembleRequest(name="waits", spec=_spec("waits"))
        decision = controller.decide(request, free_nodes=0, now=0.0)
        assert decision.action is AdmissionAction.QUEUE
        assert "queued" in decision.reason
        assert decision.free_nodes == 0

    def test_reject_infeasible_spec_names_the_cap(self):
        controller = AdmissionController(total_nodes=2, cores_per_node=8)
        # 64-core members cannot fit an 8-core node at any grant
        request = EnsembleRequest(
            name="huge", spec=_spec("huge", sim_cores=64, ana_cores=64)
        )
        decision = controller.decide(request, free_nodes=2, now=0.0)
        assert decision.action is AdmissionAction.REJECT
        assert decision.min_feasible_nodes is None
        assert "infeasible" in decision.reason
        assert "2 x 8 cores" in decision.reason

    def test_reject_unmeetable_deadline_reports_makespan(self):
        controller = AdmissionController(total_nodes=2)
        request = EnsembleRequest(
            name="rush", spec=_spec("rush"), deadline=0.001
        )
        decision = controller.decide(request, free_nodes=2, now=0.0)
        assert decision.action is AdmissionAction.REJECT
        assert "deadline unmeetable" in decision.reason
        assert decision.predicted_makespan is not None
        assert decision.predicted_makespan > request.deadline

    def test_robust_rate_inflates_predicted_makespan(self):
        plain = AdmissionController(total_nodes=2)
        robust = AdmissionController(total_nodes=2, robust_rate=0.1)
        request = EnsembleRequest(name="r", spec=_spec("r"))
        assert robust.predicted_makespan(request) > plain.predicted_makespan(
            request
        )

    def test_grant_cap_respects_max_nodes(self):
        controller = AdmissionController(total_nodes=8)
        capped = EnsembleRequest(name="c", spec=_spec("c"), max_nodes=3)
        uncapped = EnsembleRequest(name="u", spec=_spec("u"))
        assert controller.grant_cap(capped) == 3
        assert controller.grant_cap(uncapped) == 8

    def test_min_feasible_nodes_memo_is_transparent(self):
        controller = AdmissionController(total_nodes=4)
        spec = _spec("memo")
        first = controller.min_feasible_nodes(spec)
        second = controller.min_feasible_nodes(spec)
        assert first == second == 1


class TestBudgetAbovePhysicalNode:
    """A 48-core budget on the 32-core node: admission must refuse what
    the allocator's search refuses, or an admitted ensemble fails."""

    def test_admission_rejects_what_allocation_refuses(self):
        # two 16+8 members can co-locate 40 cores under a 48-core budget
        spec = _spec("wide", members=2)
        controller = AdmissionController(total_nodes=6, cores_per_node=48)
        decision = controller.decide(
            EnsembleRequest(name="wide", spec=spec), free_nodes=6, now=0.0
        )
        assert decision.action is AdmissionAction.REJECT
        assert decision.min_feasible_nodes is None
        assert decision.feasible_placements == 0
        assert decision.reason == (
            "infeasible: no placement of 'wide' fits on any grant up to "
            "6 x 48 cores of a 32-core node"
        )
        allocator = ClusterAllocator(6, cores_per_node=48)
        with pytest.raises(PlacementError, match="'wide' fits no grant"):
            allocator.allocate([ResidentWorkload(name="wide", spec=spec)])

    def test_admitted_spec_is_allocated(self):
        # one 16+8 member never exceeds 32 cores on a node
        spec = _spec("narrow")
        controller = AdmissionController(total_nodes=6, cores_per_node=48)
        assert controller.min_feasible_nodes(spec) == 1
        allocation = ClusterAllocator(6, cores_per_node=48).allocate(
            [ResidentWorkload(name="narrow", spec=spec)]
        )
        assert allocation.entries[0].num_nodes == 6

    def test_every_admitted_request_completes(self):
        stream = canonical_mixed_deadline_stream()
        result = CoScheduler(total_nodes=6, cores_per_node=48).run(stream)
        assert result.rejected == ("ens1", "ens2", "ens4")
        assert result.admitted == ("ens3",)
        assert [c.name for c in result.completions] == ["ens3"]
