"""Tests for the co-scheduling sweep experiment."""

import pytest

from repro.coschedule import (
    ClusterObjective,
    CoScheduler,
    canonical_mixed_deadline_stream,
    fifo_exclusive_schedule,
)
from repro.experiments import run_coschedule
from repro.experiments.coschedule import DEFAULT_NODES, DEFAULT_OBJECTIVES
from repro.service.workers import ENGINE_SECTIONS
from repro.util.errors import ValidationError
from repro.util.registry import Counters, counting


@pytest.fixture(scope="module")
def sweep():
    return run_coschedule()


def _stream():
    return canonical_mixed_deadline_stream(
        num_requests=4, arrival_spacing=30.0
    )


class TestCoscheduleSweep:
    def test_default_sweep_has_one_row_per_size_and_objective(self, sweep):
        assert len(sweep.rows) == 6
        assert [(row["nodes"], row["objective"]) for row in sweep.rows] == [
            (nodes, label)
            for nodes in DEFAULT_NODES
            for label, *_ in DEFAULT_OBJECTIVES
        ]

    def test_gain_is_the_directly_computed_utilization_ratio(self, sweep):
        stream = _stream()
        profiles = {label: weights for label, *weights in DEFAULT_OBJECTIVES}
        for row in sweep.rows:
            utility, fairness, deadline = profiles[row["objective"]]
            result = CoScheduler(
                total_nodes=row["nodes"],
                objective=ClusterObjective(
                    utility_weight=utility,
                    fairness_weight=fairness,
                    deadline_weight=deadline,
                ),
            ).run(stream)
            fifo = fifo_exclusive_schedule(stream, row["nodes"])
            assert row["utilization"] == result.utilization
            assert row["fifo_utilization"] == fifo.utilization
            assert row["gain"] == result.utilization / fifo.utilization
        six = [row for row in sweep.rows if row["nodes"] == 6]
        assert [round(row["gain"], 3) for row in six] == [1.966] * 3

    def test_two_calls_return_equal_rows(self, sweep):
        assert run_coschedule().rows == sweep.rows

    @pytest.mark.parametrize(
        "kwargs",
        [{"node_counts": ()}, {"objectives": ()}, {"num_requests": 0}],
        ids=["no-sizes", "no-objectives", "no-requests"],
    )
    def test_empty_sweeps_are_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            run_coschedule(**kwargs)

    def test_repartitions_count_allocation_events(self, sweep):
        """The column counts every ``allocation`` timeline event, the
        emptied cluster's included; the ``repartitions`` counter
        counts allocator calls, one fewer on the canonical run."""
        with counting(Counters(**ENGINE_SECTIONS)) as registry:
            result = CoScheduler(total_nodes=6).run(_stream())
        events = sum(1 for e in result.timeline if e.kind == "allocation")
        row = next(
            row
            for row in sweep.rows
            if row["nodes"] == 6 and row["objective"] == "utility"
        )
        assert row["repartitions"] == events == 7
        assert registry.snapshot()["coschedule"]["repartitions"] == 6
