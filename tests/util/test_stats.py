"""Tests for repro.util.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.errors import ValidationError
from repro.util.stats import population_std, trimmed_mean

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestPopulationStd:
    def test_constant_sample_has_zero_std(self):
        assert population_std([2.0, 2.0, 2.0]) == 0.0

    def test_known_value(self):
        # population std of [1, 3] is 1 (mean 2, deviations +-1)
        assert population_std([1.0, 3.0]) == pytest.approx(1.0)

    def test_divides_by_n_not_n_minus_1(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert population_std(values) == pytest.approx(
            float(np.std(values))  # numpy default is population std
        )

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            population_std([])

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_always_non_negative(self, values):
        assert population_std(values) >= 0.0

    @given(st.lists(finite_floats, min_size=1, max_size=50), finite_floats)
    def test_translation_invariant(self, values, shift):
        a = population_std(values)
        b = population_std([v + shift for v in values])
        assert a == pytest.approx(b, abs=1e-6 * max(1.0, abs(shift)))


class TestTrimmedMean:
    def test_no_trim_is_plain_mean(self):
        assert trimmed_mean([1.0, 2.0, 3.0], 0.0) == pytest.approx(2.0)

    def test_outlier_is_discarded(self):
        values = [10.0] * 18 + [1000.0, 0.001]
        assert trimmed_mean(values, 0.1) == pytest.approx(10.0)

    def test_small_samples_not_trimmed(self):
        assert trimmed_mean([1.0, 100.0], 0.25) == pytest.approx(50.5)

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            trimmed_mean([])

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValidationError):
            trimmed_mean([1.0], 0.5)
        with pytest.raises(ValidationError):
            trimmed_mean([1.0], -0.1)

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_bounded_by_min_and_max(self, values):
        tm = trimmed_mean(values, 0.2)
        eps = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
        assert min(values) - eps <= tm <= max(values) + eps
