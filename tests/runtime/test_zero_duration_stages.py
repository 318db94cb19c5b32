"""Conformance for zero-duration stages: the DES, the replay and the scorer.

A staging tier whose every transfer is free gives each member W and R
stages of length zero. The DES executor, the DES-free baseline
(:func:`~repro.faults.batched.capture_timeline` +
:func:`~repro.faults.batched.replay_schedules`) and
:func:`~repro.scheduler.objectives.score_placement` on the run's
stages must still agree: the DES and the replay on the makespan, all
three on F. The scorer's makespan is Eq. 2 (``n_steps * sigma*``),
which leaves out the pipeline fill, so it is held within one
``sigma*`` of the DES makespan. A member whose every stage is zero has
``sigma* = 0``, which the column scorer still rejects.
"""

import numpy as np
import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import get_config as table2_config
from repro.configs.table4 import get_config as table4_config
from repro.core.columns import score_columns
from repro.core.indicators import FINAL_STAGE_ORDER
from repro.core.insitu import member_makespan, non_overlapped_segment
from repro.dtl.base import DataTransportLayer, TransferCost
from repro.faults.batched import capture_timeline, replay_schedules
from repro.faults.recovery import RetryBackoffPolicy
from repro.monitoring.tracer import Stage
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.executor import EnsembleExecutor
from repro.search.reference import score_placement_reference
from repro.util.errors import ValidationError

N_STEPS = 5
SEED = 7


class FreeTransfers(DataTransportLayer):
    """A staging tier whose writes and reads cost nothing."""

    def __init__(self) -> None:
        super().__init__("free")

    def write_cost(self, producer_node, nbytes):
        return TransferCost()

    def read_cost(self, producer_node, consumer_node, nbytes):
        return TransferCost()


CONFIGS = {
    "C1.3": table2_config("C1.3"),
    "C1.5": table2_config("C1.5"),
    "Cf": table2_config("Cf"),
    "C2.5": table4_config("C2.5"),
    "C2.8": table4_config("C2.8"),
}


@pytest.fixture(params=sorted(CONFIGS))
def config(request):
    return CONFIGS[request.param]


@pytest.fixture(params=[0.0, 0.02], ids=["exact", "noisy"])
def noise(request):
    return request.param


def _run(config, noise):
    spec = build_spec(config, n_steps=N_STEPS)
    placement = config.placement()
    cluster = make_cori_like_cluster(placement.num_nodes)
    dtl = FreeTransfers()
    executor = EnsembleExecutor(
        spec, placement, cluster=cluster, dtl=dtl, seed=SEED,
        timing_noise=noise,
    )
    return spec, placement, cluster, dtl, executor.run()


def test_every_write_and_read_takes_no_time(config, noise):
    *_, result = _run(config, noise)
    for member in result.members:
        assert member.stages.simulation.write == 0.0
        assert all(a.read == 0.0 for a in member.stages.analyses)
        assert member.stages.simulation.compute > 0.0


def test_des_replay_and_scorer_agree(config, noise):
    spec, placement, cluster, dtl, result = _run(config, noise)
    timeline = capture_timeline(
        spec, placement, cluster=cluster, dtl=dtl, seed=SEED,
        timing_noise=noise,
    )
    outcome = replay_schedules([timeline], [], RetryBackoffPolicy())
    score = score_placement_reference(
        spec,
        placement,
        cluster=cluster,
        dtl=dtl,
        stages={m.name: m.stages for m in result.members},
    )
    objective = result.objective(FINAL_STAGE_ORDER)
    assert outcome.baseline_makespans == (result.ensemble_makespan,)
    assert outcome.ideal_objectives == (objective,)
    assert score.objective == objective

    eq2 = max(member_makespan(m.stages, N_STEPS) for m in result.members)
    assert score.ensemble_makespan == eq2
    sigma = max(non_overlapped_segment(m.stages) for m in result.members)
    assert abs(result.ensemble_makespan - eq2) <= sigma


def test_trace_holds_zero_length_stages_in_protocol_order(config, noise):
    spec, *_, result = _run(config, noise)
    records = result.tracer.records
    position = {
        (r.component, r.stage, r.step): i for i, r in enumerate(records)
    }
    for member in spec.members:
        sim = member.simulation.name
        for step in range(N_STEPS):
            write = records[position[sim, Stage.SIM_WRITE, step]]
            assert write.start == write.end
            for ana in member.analyses:
                read = records[position[ana.name, Stage.ANA_READ, step]]
                assert read.start == read.end
                # W_i, then R_i, then W_{i+1}: in time and in the trace
                assert write.end <= read.start
                assert (
                    position[sim, Stage.SIM_WRITE, step]
                    < position[ana.name, Stage.ANA_READ, step]
                )
                if step + 1 < N_STEPS:
                    nxt = position[sim, Stage.SIM_WRITE, step + 1]
                    assert read.end <= records[nxt].start
                    assert position[ana.name, Stage.ANA_READ, step] < nxt


def test_column_scorer_still_rejects_a_zero_period():
    zeros = np.zeros((1, 1))
    with pytest.raises(ValidationError, match="zero-duration"):
        score_columns(
            compute=zeros, write=zeros, read=zeros, analyze=zeros,
            couplings=[1], cores=[24], placement=np.ones((1, 1)),
            total_nodes=1,
        )
