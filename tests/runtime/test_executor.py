"""Tests for the discrete-event ensemble executor."""

import pytest

from repro.core.insitu import non_overlapped_segment
from repro.monitoring.tracer import Stage
from repro.runtime.executor import EnsembleExecutor
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.runner import run_ensemble
from repro.util.errors import PlacementError, ValidationError


@pytest.fixture
def result(two_member_spec, colocated_placement):
    return run_ensemble(two_member_spec, colocated_placement)


class TestExecution:
    def test_all_steps_executed(self, result, two_member_spec):
        n = two_member_spec.members[0].n_steps
        for member in two_member_spec.members:
            assert result.tracer.num_steps(member.simulation.name) == n
            for ana in member.analyses:
                assert result.tracer.num_steps(ana.name) == n

    def test_every_stage_recorded(self, result, two_member_spec):
        member = two_member_spec.members[0]
        sim = member.simulation.name
        ana = member.analyses[0].name
        n = member.n_steps
        for stage in (Stage.SIM_COMPUTE, Stage.SIM_IDLE, Stage.SIM_WRITE):
            assert len(result.tracer.durations(sim, stage)) == n
        for stage in (Stage.ANA_READ, Stage.ANA_COMPUTE, Stage.ANA_IDLE):
            assert len(result.tracer.durations(ana, stage)) == n

    def test_member_results_complete(self, result):
        assert len(result.members) == 2
        for m in result.members:
            assert m.makespan > 0
            assert 0 < m.efficiency <= 1
        assert result.ensemble_makespan == max(
            m.makespan for m in result.members
        )

    def test_deterministic_without_noise(
        self, two_member_spec, colocated_placement
    ):
        r1 = run_ensemble(two_member_spec, colocated_placement, seed=0)
        r2 = run_ensemble(two_member_spec, colocated_placement, seed=99)
        # no noise: seeds must not matter
        assert r1.ensemble_makespan == r2.ensemble_makespan

    def test_noise_is_seeded(self, two_member_spec, colocated_placement):
        r1 = run_ensemble(
            two_member_spec, colocated_placement, seed=1, timing_noise=0.05
        )
        r2 = run_ensemble(
            two_member_spec, colocated_placement, seed=1, timing_noise=0.05
        )
        r3 = run_ensemble(
            two_member_spec, colocated_placement, seed=2, timing_noise=0.05
        )
        assert r1.ensemble_makespan == r2.ensemble_makespan
        assert r1.ensemble_makespan != r3.ensemble_makespan

    def test_negative_noise_rejected(self, two_member_spec, colocated_placement):
        with pytest.raises(ValidationError):
            EnsembleExecutor(
                two_member_spec, colocated_placement, timing_noise=-0.1
            )

    def test_noise_above_one_rejected_before_any_work(
        self, two_member_spec, colocated_placement
    ):
        # a half-width above 1 could draw a negative stage duration
        # mid-run; the bound refuses it at construction instead
        with pytest.raises(ValidationError, match="timing_noise"):
            EnsembleExecutor(
                two_member_spec, colocated_placement, timing_noise=1.5
            )
        EnsembleExecutor(two_member_spec, colocated_placement, timing_noise=1.0)


class TestProtocolOrdering:
    """The synchronous no-buffering protocol of §2.1/§3.1."""

    def _tracer(self, spec, placement):
        return run_ensemble(spec, placement).tracer

    def test_read_follows_write(self, two_member_spec, colocated_placement):
        tracer = self._tracer(two_member_spec, colocated_placement)
        for member in two_member_spec.members:
            sim = member.simulation.name
            for ana in member.analyses:
                for step in range(member.n_steps):
                    w_end = tracer.stage_end(sim, Stage.SIM_WRITE, step)
                    r_recs = [
                        r
                        for r in tracer.of_component(ana.name)
                        if r.stage == Stage.ANA_READ and r.step == step
                    ]
                    assert r_recs[0].start >= w_end - 1e-9

    def test_next_write_follows_all_reads(
        self, two_member_spec, colocated_placement
    ):
        tracer = self._tracer(two_member_spec, colocated_placement)
        for member in two_member_spec.members:
            sim = member.simulation.name
            for step in range(1, member.n_steps):
                w_recs = [
                    r
                    for r in tracer.of_component(sim)
                    if r.stage == Stage.SIM_WRITE and r.step == step
                ]
                for ana in member.analyses:
                    r_end = tracer.stage_end(
                        ana.name, Stage.ANA_READ, step - 1
                    )
                    assert w_recs[0].start >= r_end - 1e-9

    def test_stages_contiguous_per_component(
        self, two_member_spec, colocated_placement
    ):
        """Each component's stage records tile its timeline with no gaps."""
        tracer = self._tracer(two_member_spec, colocated_placement)
        for comp in tracer.components:
            recs = sorted(
                tracer.of_component(comp), key=lambda r: (r.start, r.end)
            )
            for prev, nxt in zip(recs, recs[1:]):
                assert nxt.start == pytest.approx(prev.end, abs=1e-9)


class TestSteadyState:
    def test_traced_steady_state_matches_sigma(
        self, two_member_spec, colocated_placement
    ):
        """Measured per-step period equals Eq. 1's sigma (no noise)."""
        result = run_ensemble(two_member_spec, colocated_placement)
        for m in result.members:
            sigma = non_overlapped_segment(m.stages)
            n = two_member_spec.members[0].n_steps
            # member makespan = n_steps * sigma + the final pipeline
            # drain (the last analysis step runs after the last write),
            # which is strictly less than one extra sigma
            assert n * sigma - 1e-9 <= m.makespan <= (n + 1) * sigma

    def test_oversubscribed_run_rejected(self, two_member_spec):
        placement = EnsemblePlacement(
            2, (MemberPlacement(0, (0,)), MemberPlacement(0, (1,)))
        )
        with pytest.raises(PlacementError, match="oversubscribed"):
            run_ensemble(two_member_spec, placement)
