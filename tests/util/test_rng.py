"""Tests for repro.util.rng."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.errors import ValidationError
from repro.util.rng import RandomSource, derive_replica_seed, spawn_rngs


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42).generator.random(10)
        b = RandomSource(42).generator.random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).generator.random(10)
        b = RandomSource(2).generator.random(10)
        assert not np.array_equal(a, b)

    def test_spawned_children_are_independent(self):
        root = RandomSource(0)
        a = root.spawn("a").generator.random(10)
        b = root.spawn("b").generator.random(10)
        assert not np.array_equal(a, b)

    def test_spawn_is_reproducible_across_roots(self):
        a = RandomSource(9).spawn("x").generator.random(5)
        b = RandomSource(9).spawn("x").generator.random(5)
        assert np.array_equal(a, b)

    def test_spawn_names_compose(self):
        child = RandomSource(0, name="root").spawn("timing")
        assert child.name == "root/timing"

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            RandomSource(-1)

    def test_bool_seed_rejected(self):
        with pytest.raises(ValidationError):
            RandomSource(True)

    def test_float_seed_rejected(self):
        with pytest.raises(ValidationError):
            RandomSource(1.5)

    def test_none_seed_allowed(self):
        RandomSource(None).generator.random()


class TestUniformJitter:
    def test_zero_width_returns_base_exactly(self):
        src = RandomSource(3)
        before = src.generator.bit_generator.state["state"]["state"]
        assert src.uniform_jitter(10.0, 0.0) == 10.0
        after = src.generator.bit_generator.state["state"]["state"]
        assert before == after  # no randomness consumed

    def test_jitter_stays_within_bounds(self):
        src = RandomSource(4)
        for _ in range(200):
            v = src.uniform_jitter(10.0, 0.05)
            assert 9.5 <= v <= 10.5

    def test_negative_width_rejected(self):
        with pytest.raises(ValidationError):
            RandomSource(0).uniform_jitter(1.0, -0.1)


class TestJitterFactors:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        width=st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=1.0)
        ),
        count=st.integers(min_value=1, max_value=64),
        base=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_one_vector_draw_is_the_scalar_sequence(
        self, seed, width, count, base
    ):
        vector = RandomSource(seed).jitter_factors(width, count).tolist()
        scalar = RandomSource(seed)
        expected = [scalar.uniform_jitter(base, width) for _ in range(count)]
        assert [base * factor for factor in vector] == expected

    def test_zero_width_draws_nothing(self):
        src = RandomSource(3)
        assert src.jitter_factors(0.0, 5).tolist() == [1.0] * 5
        assert src._generator is None  # the stream was never built
        fresh = RandomSource(3)
        assert src.generator.random() == fresh.generator.random()

    def test_negative_width_rejected(self):
        with pytest.raises(ValidationError):
            RandomSource(0).jitter_factors(-0.1, 3)


class TestLazyGenerator:
    def test_spawning_does_not_build_the_parent_stream(self):
        root = RandomSource(5)
        root.spawn("a")
        assert root._generator is None

    def test_children_do_not_depend_on_the_parent_having_drawn(self):
        drawn = RandomSource(5)
        drawn.generator.random(3)
        a = drawn.spawn("x").generator.random(4)
        b = RandomSource(5).spawn("x").generator.random(4)
        assert np.array_equal(a, b)


class TestSpawnRngs:
    def test_returns_one_source_per_name(self):
        rngs = spawn_rngs(5, ["a", "b", "c"])
        assert set(rngs) == {"a", "b", "c"}
        assert all(isinstance(v, RandomSource) for v in rngs.values())

    def test_deterministic(self):
        a = spawn_rngs(5, ["x", "y"])
        b = spawn_rngs(5, ["x", "y"])
        assert np.array_equal(
            a["y"].generator.random(5), b["y"].generator.random(5)
        )


class TestDeriveReplicaSeed:
    def test_empty_label_is_literal_sum(self):
        """The historical serial scheme — and the CRN pairing scheme:
        same base_seed + replica everywhere means shared fault draws."""
        assert derive_replica_seed(10, 0) == 10
        assert derive_replica_seed(10, 3) == 13
        assert derive_replica_seed(0, 0) == 0

    def test_label_offset_is_deterministic(self):
        a = derive_replica_seed(10, 3, label="c1")
        assert derive_replica_seed(10, 3, label="c1") == a
        assert a != derive_replica_seed(10, 3)

    def test_distinct_labels_decorrelate(self):
        seeds = {
            derive_replica_seed(0, 0, label=name)
            for name in ("c0", "c1", "c2", "c3")
        }
        assert len(seeds) == 4

    def test_labelled_seeds_stay_non_negative(self):
        assert derive_replica_seed(0, 0, label="anything") >= 0

    def test_bool_and_negative_rejected(self):
        with pytest.raises(ValidationError):
            derive_replica_seed(True, 0)
        with pytest.raises(ValidationError):
            derive_replica_seed(0, True)
        with pytest.raises(ValidationError):
            derive_replica_seed(-1, 0)
        with pytest.raises(ValidationError):
            derive_replica_seed(0, -2)
        with pytest.raises(ValidationError):
            derive_replica_seed(1.5, 0)
