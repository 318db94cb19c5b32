"""Event-loop behaviors: conservation over time, elasticity, queueing."""

from hypothesis import given, settings

from repro.coschedule import (
    CoScheduler,
    canonical_mixed_deadline_stream,
    fifo_exclusive_schedule,
)
from repro.coschedule.requests import EnsembleRequest, MembershipEvent
from repro.runtime.spec import EnsembleSpec, default_member
from repro.service.workers import ENGINE_SECTIONS
from repro.util.registry import Counters, counting
from tests.strategies import ensemble_stream

loop_settings = settings(max_examples=8, deadline=None)


def _member(name):
    return default_member(name, n_steps=4, sim_cores=16, ana_cores=8)


def _spec(name, members=1):
    return EnsembleSpec(
        name, tuple(_member(f"{name}-m{i}") for i in range(members))
    )


class TestConservationOverTime:
    @given(stream=ensemble_stream(max_requests=3))
    @loop_settings
    def test_no_oversubscription_at_any_event_time(self, stream):
        """At every allocation instant, the used-node sets of resident
        ensembles are pairwise disjoint and fit inside the cluster."""
        total_nodes = 4
        result = CoScheduler(total_nodes=total_nodes).run(stream)
        allocations = [
            event for event in result.timeline if event.kind == "allocation"
        ]
        assert allocations, "every run re-partitions at least once"
        for event in allocations:
            claimed = set()
            for entry in event.detail["entries"]:
                used = set(entry["used_node_list"])
                assert used.isdisjoint(claimed)
                assert all(0 <= node < total_nodes for node in used)
                block = set(
                    range(
                        entry["node_offset"],
                        entry["node_offset"] + entry["num_nodes"],
                    )
                )
                assert used <= block
                claimed |= used
            assert len(claimed) <= total_nodes

    @given(stream=ensemble_stream(max_requests=3))
    @loop_settings
    def test_every_admitted_ensemble_completes(self, stream):
        result = CoScheduler(total_nodes=4).run(stream)
        completed = {completion.name for completion in result.completions}
        assert set(result.admitted) == completed
        for completion in result.completions:
            assert completion.nodes_granted >= 1
            assert completion.finished_at >= completion.started_at


class TestElasticMembership:
    def test_leave_shrinks_and_join_grows_the_resident(self):
        events = (
            MembershipEvent(10.0, "leave", "ela-m1"),
            MembershipEvent(20.0, "join", "late", member=_member("late")),
        )
        request = EnsembleRequest(
            name="ela", spec=_spec("ela", members=2), membership=events
        )
        result = CoScheduler(total_nodes=4).run([request])
        membership = [
            event for event in result.timeline if event.kind == "membership"
        ]
        assert [e.detail["action"] for e in membership] == ["leave", "join"]
        assert [e.detail["members_now"] for e in membership] == [1, 2]
        assert result.completion("ela").reason == "completed"

    def test_membership_repartition_bills_migrations_through_dtl(self):
        events = (MembershipEvent(5.0, "leave", "mig-m1"),)
        request = EnsembleRequest(
            name="mig", spec=_spec("mig", members=3), membership=events
        )
        result = CoScheduler(total_nodes=4).run([request])
        completion = result.completion("mig")
        # the shrink re-partitions onto a different placement, so the
        # surviving members move and the DTL bills the state transfer
        assert completion.migrations > 0
        assert completion.migration_cost > 0.0

    def test_all_members_leaving_completes_the_ensemble(self):
        events = (MembershipEvent(5.0, "leave", "van-m0"),)
        request = EnsembleRequest(
            name="van", spec=_spec("van", members=1), membership=events
        )
        result = CoScheduler(total_nodes=2).run([request])
        completion = result.completion("van")
        assert completion.reason == "all members left"
        assert completion.finished_at < completion.started_at + 10.0

    def test_membership_after_finish_is_skipped_not_applied(self):
        # offset far beyond the ensemble's makespan: the event fires
        # after completion and must be recorded as skipped
        events = (MembershipEvent(1e9, "leave", "gone-m0"),)
        request = EnsembleRequest(
            name="gone", spec=_spec("gone", members=2), membership=events
        )
        result = CoScheduler(total_nodes=4).run([request])
        skipped = [
            event
            for event in result.timeline
            if event.kind == "membership-skipped"
        ]
        assert len(skipped) == 1
        assert skipped[0].detail["name"] == "gone"


class TestQueueing:
    def test_queued_request_dequeues_on_finish(self):
        # 4 two-member ensembles on 4 nodes: floors are 2+2, the third
        # arrival must queue and dequeue when a resident finishes
        stream = [
            EnsembleRequest(
                name=f"q{i}",
                spec=_spec(f"q{i}", members=2),
                arrival_time=float(i),
            )
            for i in range(3)
        ]
        result = CoScheduler(total_nodes=4).run(stream)
        kinds = {d.request: [x for x in result.decisions if x.request == d.request] for d in result.decisions}
        q2 = kinds["q2"]
        assert q2[0].action.value == "queue"
        assert q2[-1].action.value == "accept"
        assert "dequeued" in q2[-1].reason
        assert len(result.completions) == 3

    def test_higher_priority_dequeues_first(self):
        blocker = EnsembleRequest(
            name="blocker", spec=_spec("blocker", members=2), arrival_time=0.0
        )
        low = EnsembleRequest(
            name="low",
            spec=_spec("low", members=2),
            arrival_time=1.0,
            priority=0,
        )
        high = EnsembleRequest(
            name="high",
            spec=_spec("high", members=2),
            arrival_time=2.0,
            priority=5,
        )
        result = CoScheduler(total_nodes=2).run([blocker, low, high])
        accepts = [
            d.request
            for d in result.decisions
            if d.action.value == "accept" and "dequeued" in d.reason
        ]
        assert accepts.index("high") < accepts.index("low")


class TestUtilizationAndCounters:
    def test_canonical_stream_beats_fifo_by_the_bench_floor(self):
        stream = canonical_mixed_deadline_stream()
        result = CoScheduler(total_nodes=6).run(stream)
        fifo = fifo_exclusive_schedule(stream, 6)
        assert result.utilization >= 1.20 * fifo.utilization

    def test_counters_track_one_run(self):
        with counting(Counters(**ENGINE_SECTIONS)) as registry:
            CoScheduler(total_nodes=4).run(
                [EnsembleRequest(name="c", spec=_spec("c"))]
            )
        assert registry.snapshot()["coschedule"] == {
            "streams": 1,
            "arrivals": 1,
            "admitted": 1,
            "queued": 0,
            "rejected": 0,
            "dequeued": 0,
            "completions": 1,
            "repartitions": 1,
            "membership_events": 0,
            "migrations": 0,
        }

    def test_counters_track_the_canonical_stream(self):
        with counting(Counters(**ENGINE_SECTIONS)) as registry:
            CoScheduler(total_nodes=6).run(canonical_mixed_deadline_stream())
        assert registry.snapshot()["coschedule"] == {
            "streams": 1,
            "arrivals": 4,
            "admitted": 4,
            "queued": 1,
            "rejected": 0,
            "dequeued": 1,
            "completions": 4,
            "repartitions": 6,
            "membership_events": 0,
            "migrations": 16,
        }

    def test_empty_stream_is_a_noop_schedule(self):
        result = CoScheduler(total_nodes=4).run([])
        assert result.completions == ()
        assert result.makespan == 0.0
        assert result.utilization == 0.0
