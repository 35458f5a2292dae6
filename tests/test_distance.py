import math

import numpy as np
import pytest
from scipy.special import ndtr

from hdclt.distance import (MaxStatSample, anticoncentration_probe,
                            gaussian_max_cdf, ks_distance,
                            ks_distance_with_se, ks_two_sample_critical,
                            rect_family_distance)
from hdclt.errors import BadDiagonal, DimensionMismatch
from hdclt.lowerbound import threshold_xn
from hdclt.matcore import CovarianceModel
from hdclt.sampler import substream


class TestGaussianMaxCdf:
    def test_one_dim_median(self):
        p, se = gaussian_max_cdf(CovarianceModel.identity(1), 0.0)
        assert p == 0.5 and se == 0.0

    def test_identity_at_e_threshold(self):
        for d in (5, 50, 200):
            p, se = gaussian_max_cdf(CovarianceModel.identity(d),
                                     threshold_xn(d))
            assert se == 0.0
            assert p == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_near_perfect_correlation_collapses(self):
        sigma = CovarianceModel.equicorrelation(5, 0.999)
        x = 1.0
        p, se = gaussian_max_cdf(sigma, x, reps=200_000, seed=3)
        # the max dominates any single coordinate, so p <= Phi(x); the
        # residual idiosyncratic noise (sd ~ 0.03) keeps p within ~0.01
        assert p <= float(ndtr(x)) + 3 * se
        assert p >= float(ndtr(x)) - 0.02

    def test_monte_carlo_needs_reps(self):
        with pytest.raises(ValueError):
            gaussian_max_cdf(CovarianceModel.equicorrelation(3, 0.5), 0.0)


class TestKsDistance:
    def test_identical_samples(self):
        a = MaxStatSample(np.array([0.1, 0.5, 0.9]))
        assert ks_distance(a, a) == 0.0

    def test_shifted_normals_closed_form(self):
        rng = substream(5, 0)
        a = MaxStatSample(rng.standard_normal(1_000_000))
        b = MaxStatSample(rng.standard_normal(1_000_000) + 1.0)
        expected = 2.0 * float(ndtr(0.5)) - 1.0  # sup at the midpoint 1/2
        assert ks_distance(a, b) == pytest.approx(expected, abs=0.005)

    def test_disjoint_supports(self):
        a = MaxStatSample(np.array([0.0, 1.0]))
        b = MaxStatSample(np.array([5.0, 6.0]))
        assert ks_distance(a, b) == 1.0

    def test_standard_error_at_sup_point(self):
        # pooled points 0, 1, 2, 3, 3.5, 3.6, 3.7, 4: the gap peaks at x = 3
        # with F_a = 3/4 and F_b = 1/4, so se^2 = 2 * (3/4)(1/4)/4 = 6/64
        a = MaxStatSample(np.array([1.0, 2.0, 3.0, 4.0]))
        b = MaxStatSample(np.array([0.0, 3.5, 3.6, 3.7]))
        dist, se = ks_distance_with_se(a, b)
        assert dist == 0.5 == ks_distance(a, b)
        assert se == pytest.approx(math.sqrt(6.0) / 8.0, rel=1e-15)

    def test_critical_value_formula(self):
        r = 100_000
        assert ks_two_sample_critical(r, r, alpha=0.01) == pytest.approx(
            math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2.0 / r), rel=1e-12)
        assert ks_two_sample_critical(r, r, alpha=0.01) == pytest.approx(
            1.6276 * math.sqrt(2.0 / r), abs=1e-5)


class TestRectFamilies:
    def _draws(self, seed, reps=2000, d=3, shift=0.0):
        return substream(seed, 0).standard_normal((reps, d)) + shift

    def test_identical_draws_zero_everywhere(self):
        a = self._draws(1)
        for family in ("one_sided_max", "two_sided_max",
                       ("random_rects", 64, 7)):
            assert rect_family_distance(a, a, family) == 0.0

    def test_one_sided_equals_ks_on_max_stats(self):
        a, b = self._draws(2), self._draws(3, shift=0.3)
        direct = ks_distance(MaxStatSample.from_draws(a, "one_sided"),
                             MaxStatSample.from_draws(b, "one_sided"))
        assert rect_family_distance(a, b, "one_sided_max") == direct

    def test_random_rects_dominates_one_sided(self):
        a, b = self._draws(4), self._draws(5, shift=0.4)
        one_sided = rect_family_distance(a, b, "one_sided_max")
        random_rects = rect_family_distance(a, b, ("random_rects", 10_000, 9))
        assert random_rects >= one_sided - 0.01

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rect_family_distance(self._draws(6, d=2), self._draws(7, d=3))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            rect_family_distance(self._draws(8), self._draws(9), "diagonal")


class TestAnticoncentration:
    def test_zero_eps_is_zero(self):
        probe = anticoncentration_probe(CovarianceModel.identity(5), 0.0,
                                        reps=10_000, seed=1)
        assert probe == 0.0

    def test_identity_d100_below_nazarov_shape(self):
        probe = anticoncentration_probe(CovarianceModel.identity(100), 0.1,
                                        reps=1_000_000, seed=2)
        assert probe <= 2.0 * 0.1 * math.sqrt(math.log(100))

    def test_near_linear_in_eps(self):
        sigma = CovarianceModel.identity(20)
        small = anticoncentration_probe(sigma, 0.05, reps=400_000, seed=3)
        large = anticoncentration_probe(sigma, 0.10, reps=400_000, seed=3)
        assert 1.5 <= large / small <= 2.5

    def test_variances_below_one_rejected(self):
        with pytest.raises(BadDiagonal):
            anticoncentration_probe(CovarianceModel(np.eye(3) * 0.5), 0.1,
                                    reps=1000)


class TestMaxStatSample:
    def test_sorted_and_sided(self):
        s = MaxStatSample(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
        assert s.cdf(2.0) == pytest.approx(2.0 / 3.0)

    def test_two_sided_uses_absolute_values(self):
        draws = np.array([[-5.0, 1.0], [0.5, -0.2]])
        s = MaxStatSample.from_draws(draws, "two_sided")
        np.testing.assert_array_equal(s.values, [0.5, 5.0])

    def test_bad_side(self):
        with pytest.raises(ValueError):
            MaxStatSample(np.array([1.0]), side="sideways")
