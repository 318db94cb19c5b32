"""Tests for the batched delta-replay replication engine.

The contract under test (see ``docs/RESILIENCE.md``): for exactly
replayable recovery policies, a DES-free baseline capture plus
closed-form replay of each fault schedule produces *bit-identical*
robust scores to re-simulating every replica — so every parity
assertion here is ``==``, not ``approx``. The adaptive policy drains
its budget in global event order, which replay can only approximate,
hence its banded tier.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.configs.generator import enumerate_placements
from repro.core.indicators import FINAL_STAGE_ORDER
from repro.dtl.dimes import InMemoryStagingDTL
from repro.faults.batched import (
    batched_score_placement,
    capture_timeline,
    rank_placements_batched,
    replay_schedules,
    score_from_timeline,
)
from repro.faults.batched import replay_tier
from repro.faults.models import (
    FaultKind,
    MarkovModulatedArrivals,
    CorrelatedFailureModel,
    NodeFailureModel,
    RandomFailureModel,
)
from repro.faults.recovery import (
    AdaptiveRecoveryPolicy,
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RetryBackoffPolicy,
)
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.executor import EnsembleExecutor
from repro.runtime.placement import (
    EnsemblePlacement,
    MemberPlacement,
    pack_members_per_node,
    spread_components,
)
from repro.runtime.runner import run_ensemble
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
    robust_score_placement,
)
from repro.util.errors import PlacementError, ValidationError
from repro.util.registry import Counters, counting
from tests.strategies import common_settings, des_ensembles, des_placements
from tests.tolerances import BATCHED_ADAPTIVE_REL


@pytest.fixture(scope="module")
def spec():
    return EnsembleSpec(
        "batched-test",
        (
            default_member("em1", num_analyses=2, n_steps=4),
            default_member("em2", num_analyses=1, n_steps=4),
        ),
    )


@pytest.fixture(scope="module")
def placement(spec):
    return next(iter(enumerate_placements(spec, 2, 32)))


@pytest.fixture(scope="module")
def candidates(spec):
    pool = list(enumerate_placements(spec, 2, 32))
    stride = max(1, len(pool) // 3)
    return {f"c{i}": p for i, p in enumerate(pool[::stride][:3])}


def _serial_ranking(
    spec, candidates, factory, policy, crn=True, context=None, **common
):
    """The serial DES reference ranking: one
    :func:`robust_score_placement` per candidate, best first — what
    ``rank_placements_robust(method="des")`` ran before the replay
    became its only engine."""
    platform = (
        {} if context is None
        else dict(cluster=context.cluster, dtl=context.dtl)
    )
    return sorted(
        (
            robust_score_placement(
                spec,
                placement,
                factory,
                policy,
                name=name,
                seed_label="" if crn else name,
                **platform,
                **common,
            )
            for name, placement in candidates.items()
        ),
        reverse=True,
    )


def _assert_scores_equal(serial, batched):
    assert batched.objective == serial.objective
    assert batched.ideal_objective == serial.ideal_objective
    assert batched.mean_inflation == serial.mean_inflation
    assert batched.mean_goodput == serial.mean_goodput
    assert batched.trials == serial.trials


EXACT_POLICIES = [
    pytest.param(RetryBackoffPolicy, id="retry"),
    pytest.param(CheckpointRestartPolicy, id="restart"),
    pytest.param(DropAnalysisPolicy, id="drop"),
]


class TestExactParity:
    @pytest.mark.parametrize("policy_cls", EXACT_POLICIES)
    def test_bit_identical_to_serial_replication(
        self, spec, placement, policy_cls
    ):
        common = dict(trials=4, base_seed=7)
        serial = robust_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.25),
            policy_cls(),
            **common,
        )
        batched = batched_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.25),
            policy_cls(),
            **common,
        )
        _assert_scores_equal(serial, batched)

    @pytest.mark.parametrize(
        "layout", [pack_members_per_node, spread_components]
    )
    def test_nine_members_replay_exactly(self, layout):
        # numpy sums 8 or more elements in unrolled blocks, so Eq. 9's
        # member-axis means change scheme past eight members; unequal
        # members and noise keep the nine indicators apart
        wide = EnsembleSpec(
            "wide",
            tuple(
                default_member(
                    f"em{i}",
                    num_analyses=1 + i % 2,
                    n_steps=6,
                    natoms=150_000 + 25_000 * i,
                )
                for i in range(9)
            ),
        )
        placement = layout(wide)
        common = dict(trials=6, base_seed=11, timing_noise=0.05)
        serial = robust_score_placement(
            wide,
            placement,
            crash_straggler_factory(0.25),
            RetryBackoffPolicy(),
            **common,
        )
        batched = batched_score_placement(
            wide,
            placement,
            crash_straggler_factory(0.25),
            RetryBackoffPolicy(),
            **common,
        )
        _assert_scores_equal(serial, batched)

    def test_all_fault_kinds_replay_exactly(self, spec, placement):
        factory = lambda seed: RandomFailureModel(  # noqa: E731
            rate=0.3, kinds=tuple(FaultKind), seed=seed
        )
        common = dict(trials=4, base_seed=3)
        serial = robust_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), **common
        )
        batched = batched_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), **common
        )
        _assert_scores_equal(serial, batched)

    def test_correlated_bursts_replay_exactly(self, spec, placement):
        factory = lambda seed: CorrelatedFailureModel(  # noqa: E731
            process=MarkovModulatedArrivals(0.02, 0.4, 0.3, 0.5),
            seed=seed,
        )
        serial = robust_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), trials=3
        )
        batched = batched_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), trials=3
        )
        _assert_scores_equal(serial, batched)

    def test_node_level_crashes_replay_exactly(self, spec, placement):
        factory = lambda seed: NodeFailureModel(  # noqa: E731
            placement, rate=0.15, seed=seed
        )
        serial = robust_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), trials=3
        )
        batched = batched_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), trials=3
        )
        _assert_scores_equal(serial, batched)

    def test_trials_validated(self, spec, placement):
        with pytest.raises(ValidationError):
            batched_score_placement(
                spec,
                placement,
                crash_straggler_factory(0.1),
                RetryBackoffPolicy(),
                trials=0,
            )


class TestHypothesisParity:
    @given(spec=des_ensembles(), placement=des_placements())
    @common_settings
    def test_random_kernels_replay_exactly(self, spec, placement):
        """Batched == serial over randomized kernels and placements.

        The strategies vary atom counts, strides, serial fractions,
        and node assignments enough to exercise both branches of the
        serial-coupling max; retry recovery must stay bit-exact over
        the whole envelope.
        """
        serial = robust_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=2,
            base_seed=11,
        )
        batched = batched_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=2,
            base_seed=11,
        )
        _assert_scores_equal(serial, batched)


class TestAdaptiveBanded:
    def test_adaptive_policy_is_banded_tier(self):
        assert replay_tier(AdaptiveRecoveryPolicy()) == "banded"
        for policy_cls in (
            RetryBackoffPolicy,
            CheckpointRestartPolicy,
            DropAnalysisPolicy,
        ):
            assert replay_tier(policy_cls()) == "exact"

    def test_adaptive_scores_agree_within_band(self, spec, placement):
        """Replay approximates the adaptive budget drain within 5%."""
        common = dict(trials=4, base_seed=7)
        serial = robust_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.25),
            AdaptiveRecoveryPolicy(),
            **common,
        )
        batched = batched_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.25),
            AdaptiveRecoveryPolicy(),
            **common,
        )
        assert batched.ideal_objective == serial.ideal_objective
        assert batched.objective == pytest.approx(
            serial.objective, rel=0.05
        )
        assert batched.mean_inflation == pytest.approx(
            serial.mean_inflation, rel=0.05
        )


class TestRankEngineParity:
    def test_batched_ranking_matches_serial(self, spec, candidates):
        common = dict(trials=3, base_seed=0)
        serial = _serial_ranking(
            spec,
            candidates,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            **common,
        )
        batched = rank_placements_robust(
            spec,
            candidates,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            method="des",
            **common,
        )
        assert [s.name for s in serial] == [b.name for b in batched]
        for s, b in zip(serial, batched):
            _assert_scores_equal(s, b)

    def test_adaptive_ranking_within_band_of_serial(self, spec, candidates):
        # library callers of method="des" with the adaptive policy used
        # to get the serial DES; the replay approximates its global
        # budget drain within the oracle's banded tier
        assert len(candidates) >= 3
        common = dict(trials=4, base_seed=3)
        serial = _serial_ranking(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            AdaptiveRecoveryPolicy(),
            **common,
        )
        replayed = {
            score.name: score
            for score in rank_placements_robust(
                spec,
                candidates,
                crash_straggler_factory(0.3),
                AdaptiveRecoveryPolicy(),
                method="des",
                **common,
            )
        }
        assert sorted(replayed) == sorted(s.name for s in serial)
        for reference in serial:
            score = replayed[reference.name]
            assert score.ideal_objective == reference.ideal_objective
            for metric in ("objective", "mean_inflation", "mean_goodput"):
                assert getattr(score, metric) == pytest.approx(
                    getattr(reference, metric), rel=BATCHED_ADAPTIVE_REL
                ), metric


class TestCommonRandomNumbers:
    def test_crn_pairs_candidate_comparisons(self, spec):
        """CRN reduces the variance of pairwise score differences.

        With common random numbers replica ``t`` draws the same fault
        schedule for every candidate, so the difference between two
        candidates' objectives varies only with the placements'
        response to the *same* faults. Decorrelated seeding adds the
        schedule-to-schedule noise of two independent draws; over many
        base seeds the paired differences must be strictly less
        dispersed.
        """
        import statistics

        pool = list(enumerate_placements(spec, 2, 32))
        names = ("packed", "spread")
        pair = {"packed": pool[0], "spread": pool[-1]}

        def diffs(crn):
            out = []
            for base_seed in range(12):
                scores = {
                    s.name: s.objective
                    for s in rank_placements_batched(
                        spec,
                        pair,
                        crash_straggler_factory(0.3),
                        RetryBackoffPolicy(),
                        trials=2,
                        base_seed=base_seed * 101,
                        crn=crn,
                    )
                }
                out.append(scores[names[0]] - scores[names[1]])
            return out

        paired = statistics.pvariance(diffs(crn=True))
        independent = statistics.pvariance(diffs(crn=False))
        assert paired < independent

    def test_crn_false_decorrelates_candidates(self, spec, candidates):
        """Without CRN each candidate samples its own schedules, so a
        candidate's score changes when scored under its own label vs
        the shared stream."""
        ranked = rank_placements_batched(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=3,
            base_seed=0,
            crn=False,
        )
        shared = rank_placements_batched(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=3,
            base_seed=0,
            crn=True,
        )
        by_name = {s.name: s.objective for s in shared}
        assert any(s.objective != by_name[s.name] for s in ranked)


def _batched_counts(run) -> dict:
    """The ``batched`` section that one call of ``run`` counts."""
    with counting(
        Counters(batched=("baseline_sims", "replicas_replayed"))
    ) as registry:
        run()
    return registry.snapshot()["batched"]


class TestEngineCounters:
    def test_score_tallies_baseline_and_replicas(self, spec, placement):
        counts = _batched_counts(
            lambda: batched_score_placement(
                spec,
                placement,
                crash_straggler_factory(0.2),
                RetryBackoffPolicy(),
                trials=5,
            )
        )
        assert counts == {"baseline_sims": 1, "replicas_replayed": 5}

    def test_ranking_tallies_per_candidate(self, spec, candidates):
        counts = _batched_counts(
            lambda: rank_placements_batched(
                spec,
                candidates,
                crash_straggler_factory(0.2),
                RetryBackoffPolicy(),
                trials=2,
            )
        )
        assert len(candidates) == 3
        assert counts == {"baseline_sims": 3, "replicas_replayed": 3 * 2}


class TestMutantOracle:
    def test_oracle_passes_on_the_real_engine(self, spec, placement):
        from repro.verify.oracles import run_differential_oracle

        report = run_differential_oracle(
            spec,
            placement,
            fault_factory=lambda s: RandomFailureModel(rate=0.2, seed=s),
            recovery=RetryBackoffPolicy(),
            scenario="batched-tier",
        )
        assert report.passed

    def test_oracle_detects_one_stage_perturbation(self, spec, placement):
        """A 1% perturbation of a single captured stage duration must
        trip the exact serial-vs-batched tier — proof the oracle has
        teeth against replay bugs."""
        from repro.verify.oracles import run_differential_oracle

        def mutant_score(spec, placement, factory, policy, **kwargs):
            kwargs.pop("cluster", None)
            kwargs.pop("dtl", None)
            timeline = capture_timeline(spec, placement)
            member = timeline.members[0]
            warped = member.sim_compute.copy()
            warped[2] *= 1.01
            mutated = dataclasses.replace(
                timeline,
                members=(
                    dataclasses.replace(member, sim_compute=warped),
                )
                + timeline.members[1:],
            )
            return score_from_timeline(
                spec, mutated, placement, factory, policy, **kwargs
            )

        report = run_differential_oracle(
            spec,
            placement,
            fault_factory=lambda s: RandomFailureModel(rate=0.2, seed=s),
            recovery=RetryBackoffPolicy(),
            batched_score_fn=mutant_score,
            scenario="batched-mutant",
        )
        failed = {
            (f.scope, f.metric) for f in report.failures
        }
        assert not report.passed
        assert any(paths == "serial-vs-batched" for paths in
                   (f.paths for f in report.failures)), failed


class TestReplayInternals:
    def test_empty_schedule_reproduces_the_baseline(self, spec, placement):
        """Replaying zero faults must return the fault-free metrics:
        inflation exactly 1 and the ideal objective, both read off the
        outcome's baseline row."""
        from repro.faults.models import FaultSchedule

        timeline = capture_timeline(spec, placement)
        outcome = replay_schedules(
            [timeline], [FaultSchedule([])], RetryBackoffPolicy()
        )
        assert outcome.inflations == (1.0,)
        assert outcome.makespans == outcome.baseline_makespans
        assert outcome.objectives == outcome.ideal_objectives

    def test_timelines_of_different_specs_rejected(self, spec, placement):
        other = EnsembleSpec(
            "other", (default_member("em1", num_analyses=1, n_steps=3),)
        )
        timelines = [
            capture_timeline(spec, placement),
            capture_timeline(other, pack_members_per_node(other)),
        ]
        with pytest.raises(ValidationError, match="one spec"):
            replay_schedules(timelines, [], RetryBackoffPolicy())


@st.composite
def _multi_member_runs(draw):
    """A 1-3 member spec (1-3 analyses, 1-12 steps each) with a
    feasible placement on 1-4 nodes, a seed and a timing-noise width."""
    members = tuple(
        default_member(
            f"m{i}",
            num_analyses=draw(st.integers(1, 3)),
            n_steps=draw(st.integers(1, 12)),
            natoms=draw(st.sampled_from((150_000, 250_000, 350_000))),
            sim_cores=draw(st.sampled_from((4, 8, 16))),
            ana_cores=draw(st.sampled_from((2, 4, 8))),
        )
        for i in range(draw(st.integers(1, 3)))
    )
    spec = EnsembleSpec("multi", members)
    num_nodes = draw(st.integers(1, 4))
    node = st.integers(0, num_nodes - 1)
    placement = EnsemblePlacement(
        num_nodes,
        tuple(
            MemberPlacement(
                draw(node), tuple(draw(node) for _ in m.analyses)
            )
            for m in members
        ),
    )
    try:
        placement.validate_against(spec, 32)
    except PlacementError:
        assume(False)
    seed = draw(st.integers(0, 2**16))
    noise = draw(st.sampled_from((0.0, 0.01, 0.1, 0.3)))
    return spec, placement, seed, noise


class TestDesFreeCapture:
    """The capture builds each baseline from the effective stages and
    the executor's RNG streams; the fault-free DES stays the reference
    its baseline row must reproduce bit for bit."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(run=_multi_member_runs())
    def test_baseline_row_equals_a_fault_free_des_run(self, run):
        spec, placement, seed, noise = run
        timeline = capture_timeline(
            spec, placement, seed=seed, timing_noise=noise
        )
        outcome = replay_schedules([timeline], [], RetryBackoffPolicy())
        reference = run_ensemble(
            spec, placement, seed=seed, timing_noise=noise
        )
        assert outcome.ideal_objectives == (
            reference.objective(FINAL_STAGE_ORDER),
        )
        assert outcome.baseline_makespans == (reference.ensemble_makespan,)

    def test_ranking_runs_no_des(self, spec, candidates, monkeypatch):
        runs = []
        original = EnsembleExecutor.run

        def counting_run(self):
            runs.append(1)
            return original(self)

        monkeypatch.setattr(EnsembleExecutor, "run", counting_run)
        for crn in (True, False):
            rank_placements_batched(
                spec,
                candidates,
                crash_straggler_factory(0.2),
                RetryBackoffPolicy(),
                trials=2,
                crn=crn,
            )
        assert runs == []

    @pytest.mark.parametrize(
        "noise, seed, match",
        [
            (-0.1, 0, "timing_noise"),
            (0.0, -1, "seed"),
            (0.1, 1.5, "seed"),
            (1.5, 0, "timing_noise"),
        ],
    )
    def test_bad_input_raises_the_executors_errors(
        self, spec, placement, noise, seed, match
    ):
        with pytest.raises(ValidationError, match=match):
            capture_timeline(spec, placement, seed=seed, timing_noise=noise)

    def test_infeasible_placement_raises_placement_error(self, spec):
        crowded = EnsemblePlacement(
            1, (MemberPlacement(0, (0, 0)), MemberPlacement(0, (0,)))
        )
        with pytest.raises(PlacementError):
            capture_timeline(spec, crowded)


def _step_times(spec, placement):
    timeline = capture_timeline(spec, placement)
    return tuple(m.sim_step_time for m in timeline.members)


class TestOneSweep:
    """All candidates of a ranking replay in one call, each row priced
    from its own candidate."""

    @pytest.mark.parametrize("policy_cls", EXACT_POLICIES)
    def test_sweep_equals_per_candidate_replays_and_serial(
        self, spec, candidates, policy_cls
    ):
        # a shared step time (e.g. the first candidate's) would misprice
        # every other candidate's restarts
        assert len({_step_times(spec, p) for p in candidates.values()}) > 1
        factory = crash_straggler_factory(0.3)
        common = dict(trials=4, base_seed=5)
        swept = rank_placements_batched(
            spec, candidates, factory, policy_cls(), **common
        )
        per_candidate = sorted(
            (
                score_from_timeline(
                    spec,
                    capture_timeline(spec, p, seed=5),
                    p,
                    factory,
                    policy_cls(),
                    name=name,
                    **common,
                )
                for name, p in candidates.items()
            ),
            reverse=True,
        )
        serial = _serial_ranking(
            spec, candidates, factory, policy_cls(), **common
        )
        for other in (per_candidate, serial):
            assert [s.name for s in swept] == [s.name for s in other]
            for a, b in zip(other, swept):
                _assert_scores_equal(a, b)

    def test_sweep_replays_every_candidate_in_one_call(
        self, spec, candidates, monkeypatch
    ):
        from repro.faults import batched

        calls = []
        original = batched.replay_schedules

        def spy(timelines, schedules, policy):
            calls.append(len(timelines))
            return original(timelines, schedules, policy)

        monkeypatch.setattr(batched, "replay_schedules", spy)
        rank_placements_batched(
            spec,
            candidates,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            trials=3,
        )
        assert calls == [len(candidates)]
        calls.clear()
        rank_placements_batched(
            spec,
            candidates,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            trials=3,
            crn=False,
        )
        assert calls == [1] * len(candidates)

    @pytest.mark.parametrize("policy_cls", EXACT_POLICIES)
    def test_without_crn_matches_serial(self, spec, candidates, policy_cls):
        common = dict(trials=3, base_seed=2, crn=False)
        serial = _serial_ranking(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            policy_cls(),
            **common,
        )
        batched = rank_placements_robust(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            policy_cls(),
            method="des",
            **common,
        )
        assert [s.name for s in serial] == [b.name for b in batched]
        for s, b in zip(serial, batched):
            _assert_scores_equal(s, b)

    @pytest.mark.parametrize("policy_cls", EXACT_POLICIES)
    def test_non_default_platform_matches_serial(
        self, spec, candidates, policy_cls
    ):
        context = PlanningContext(
            cluster=make_cori_like_cluster(2, contention_enabled=False),
            dtl=InMemoryStagingDTL(producer_progress_tax=0.03),
        )
        common = dict(trials=3, base_seed=9, context=context)
        serial = _serial_ranking(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            policy_cls(),
            **common,
        )
        batched = rank_placements_robust(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            policy_cls(),
            method="des",
            **common,
        )
        assert [s.name for s in serial] == [b.name for b in batched]
        for s, b in zip(serial, batched):
            _assert_scores_equal(s, b)

    def test_noisy_sweep_matches_serial(self, spec, candidates):
        common = dict(trials=3, base_seed=4, timing_noise=0.1)
        serial = _serial_ranking(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            CheckpointRestartPolicy(),
            **common,
        )
        batched = rank_placements_robust(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            CheckpointRestartPolicy(),
            method="des",
            **common,
        )
        assert [s.name for s in serial] == [b.name for b in batched]
        for s, b in zip(serial, batched):
            _assert_scores_equal(s, b)
