"""Tests for repro.analysis.stats — weighted statistics and CCDFs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import (
    ccdf,
    normal_z,
    stream_years,
    weighted_mean,
    weighted_mean_ci,
    weighted_standard_error,
)


class TestWeightedMean:
    def test_equal_weights_is_plain_mean(self):
        assert weighted_mean([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == pytest.approx(2.0)

    def test_weighting(self):
        assert weighted_mean([0.0, 10.0], [9.0, 1.0]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_mean([], [])
        with pytest.raises(ValueError):
            weighted_mean([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_mean([1.0], [-1.0])


class TestWeightedStandardError:
    def test_reduces_to_plain_se_with_equal_weights(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        se = weighted_standard_error(values, np.ones(100))
        plain = values.std(ddof=1) / np.sqrt(100)
        assert se == pytest.approx(plain, rel=0.02)

    def test_shrinks_with_sample_size(self):
        rng = np.random.default_rng(1)
        small = weighted_standard_error(rng.normal(size=50), np.ones(50))
        large = weighted_standard_error(rng.normal(size=5000), np.ones(5000))
        assert large < small

    def test_heavily_weighted_outlier_dominates(self):
        values = [0.0] * 10 + [10.0]
        light = weighted_standard_error(values, [1.0] * 10 + [0.01])
        heavy = weighted_standard_error(values, [1.0] * 10 + [5.0])
        assert heavy > light

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            weighted_standard_error([1.0], [1.0])


class TestWeightedMeanCi:
    def test_brackets_mean(self):
        rng = np.random.default_rng(2)
        values = rng.normal(10.0, 2.0, 200)
        ci = weighted_mean_ci(values, np.ones(200))
        assert ci.low < 10.0 < ci.high

    def test_confidence_widens_interval(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=100)
        narrow = weighted_mean_ci(values, np.ones(100), confidence=0.68)
        wide = weighted_mean_ci(values, np.ones(100), confidence=0.99)
        assert wide.width > narrow.width

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            weighted_mean_ci([1.0, 2.0], [1.0, 1.0], confidence=0.0)

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_bits_are_those_of_the_formula_written_out(self, confidence):
        """The expression ``weighted_mean_ci`` evaluated before
        ``normal_z`` existed, inline: same ``float.hex()`` triple."""
        from scipy import stats as sps

        rng = np.random.default_rng(4)
        values = rng.normal(16.0, 2.0, 300)
        weights = rng.lognormal(5.0, 1.5, 300)
        mean = weighted_mean(values, weights)
        se = weighted_standard_error(values, weights)
        z = float(sps.norm.ppf(0.5 + confidence / 2.0))
        expected = (mean, mean - z * se, mean + z * se)
        ci = weighted_mean_ci(values, weights, confidence)
        assert [x.hex() for x in (ci.point, ci.low, ci.high)] == [
            x.hex() for x in expected
        ]
        assert ci.confidence == confidence


class TestNormalZ:
    @pytest.mark.parametrize(
        "confidence", [0.5, 0.68, 0.8, 0.9, 0.95, 0.99, 0.999]
    )
    def test_every_level_is_scipys_double(self, confidence):
        """0.95 is answered by a constant (``0.5 + 0.95 / 2`` is the double
        0.975), every other level by scipy itself: the same bits."""
        from scipy.stats import norm

        assert 0.5 + 0.95 / 2 == 0.975
        expected = float(norm.ppf(0.5 + confidence / 2))
        assert normal_z(confidence).hex() == expected.hex()

    @pytest.mark.parametrize(
        "confidence", [0.0, 1.0, -0.1, 2.0, float("inf"), float("nan")]
    )
    def test_rejects_a_level_outside_the_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            normal_z(confidence)


class TestCcdf:
    def test_values_sorted_probabilities_decreasing(self):
        x, p = ccdf([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(x, [1.0, 2.0, 3.0])
        assert all(a >= b for a, b in zip(p, p[1:]))

    def test_last_point_plottable_on_log_axis(self):
        _, p = ccdf([1.0, 2.0, 3.0, 4.0])
        assert p[-1] > 0

    def test_first_probability(self):
        _, p = ccdf(list(range(10)))
        assert p[0] == pytest.approx(0.9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([])

    @given(st.lists(st.floats(0.1, 1e5), min_size=2, max_size=200))
    def test_probabilities_in_unit_interval(self, values):
        _, p = ccdf(values)
        assert np.all((p > 0) & (p <= 1))


class TestStreamYears:
    def test_conversion(self):
        assert stream_years(365.25 * 24 * 3600.0) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stream_years(-1.0)
