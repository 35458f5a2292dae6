import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from hdclt.distance import gaussian_max_cdf
from hdclt.matcore import CovarianceModel
from hdclt.sampler import (DataMatrix, DistributionSpec, apply_quasi_gaussian,
                           derive_seed, sample, sample_scaled_sums,
                           scaled_sum, substream, two_point_support)


class TestSubstream:
    def test_same_key_reproduces(self):
        a = substream(7, 1, 2).standard_normal(5)
        b = substream(7, 1, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = substream(7, 1).standard_normal(5)
        b = substream(7, 2).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_derive_seed_is_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)


class TestTwoPoint:
    def test_support_closed_form(self):
        a, b, p = two_point_support(2.0)
        assert a == pytest.approx(math.sqrt(3.0), abs=1e-7)
        assert b == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-7)
        assert p == 0.25
        # centered with unit variance by construction
        assert p * a + (1 - p) * b == pytest.approx(0.0, abs=1e-15)
        assert p * a**2 + (1 - p) * b**2 == pytest.approx(1.0, rel=1e-15)

    def test_envelope_requires_b_at_least_two(self):
        with pytest.raises(ValueError):
            two_point_support(1.5)

    def test_empirical_mean_and_variance(self):
        x = sample(DistributionSpec.two_point(2.0, 4), 50_000, seed=3).values
        assert abs(x.mean()) <= 3.0 / math.sqrt(x.size)
        assert x.var() == pytest.approx(1.0, abs=0.02)

    def test_fourth_moment_closed_form(self):
        spec = DistributionSpec.two_point(2.0, 1)
        assert spec.fourth_moment() == pytest.approx(7.0 / 3.0, rel=1e-12)
        x = sample(spec, 200_000, seed=5).values
        assert np.mean(x**4) == pytest.approx(7.0 / 3.0, abs=0.05)


class TestGaussianFamily:
    def test_empirical_covariance(self):
        spec = DistributionSpec.gaussian(CovarianceModel.identity(3))
        x = sample(spec, 100_000, seed=11).values
        emp = np.cov(x.T, bias=True)
        assert np.max(np.abs(emp - np.eye(3))) < 0.02


class TestLocalMeans:
    def test_rows_sum_to_zero_exactly(self):
        x = sample(DistributionSpec.local_means(10), 200, seed=2).values
        np.testing.assert_allclose(x.sum(axis=1), 0.0, atol=1e-12)

    def test_empirical_covariance_matches_exact(self):
        x = sample(DistributionSpec.local_means(10), 100_000, seed=4).values
        emp = np.cov(x.T, bias=True)
        assert np.max(np.abs(np.diag(emp) - 1.0)) < 0.03
        off = emp[~np.eye(10, dtype=bool)]
        assert np.max(np.abs(off + 1.0 / 9.0)) < 0.02

    def test_exact_covariance_is_singular(self):
        assert abs(CovarianceModel.local_means(10).min_eig) < 1e-9


class TestQuasiGaussian:
    def test_zero_base_gives_pure_gaussian_max(self):
        zeros = DataMatrix(np.zeros((50, 3)))
        sigma0 = CovarianceModel.identity(3)
        draws = np.array([apply_quasi_gaussian(zeros, sigma0, derive_seed(9, r))[0]
                          for r in range(4000)])
        x = 0.5
        p_hat = np.mean(draws.max(axis=1) <= x)
        p_exact, _ = gaussian_max_cdf(sigma0, x)
        assert p_hat == pytest.approx(p_exact, abs=4 * math.sqrt(0.25 / 4000))

    def test_scaled_sum_covariance_adds(self):
        base = DistributionSpec.rademacher(5)
        spec = DistributionSpec.quasi_gaussian(base, CovarianceModel.identity(5))
        draws = sample_scaled_sums(spec, 30, 100_000, seed=13)
        emp = np.cov(draws.T, bias=True)
        assert np.max(np.abs(emp - 2.0 * np.eye(5))) < 0.05

    def test_zero_skewness_one_dim(self):
        base = DistributionSpec.rademacher(1)
        spec = DistributionSpec.quasi_gaussian(base, CovarianceModel.identity(1))
        w = sample_scaled_sums(spec, 20, 100_000, seed=17).ravel()
        third = np.mean(w**3)
        se = np.std(w**3, ddof=1) / math.sqrt(w.size)
        assert abs(third) <= 3 * se

    def test_fourth_moment_composition(self):
        base = DistributionSpec.rademacher(2)
        spec = DistributionSpec.quasi_gaussian(base, CovarianceModel.identity(2))
        # E (X+g)^4 = 1 + 6 + 3 for rademacher plus standard normal
        assert spec.fourth_moment() == pytest.approx(10.0, rel=1e-12)


class TestScaledSum:
    def test_zeros(self):
        np.testing.assert_array_equal(scaled_sum(DataMatrix(np.zeros((4, 3)))),
                                      np.zeros(3))

    def test_single_row_identity(self):
        x = DataMatrix(np.array([[1.5, -2.0]]))
        np.testing.assert_array_equal(scaled_sum(x), [1.5, -2.0])

    def test_constant_rows(self):
        x = DataMatrix(np.ones((4, 3)))
        np.testing.assert_allclose(scaled_sum(x), 2.0)


class TestScaledSumTransforms:
    def test_two_point_matches_binomial_law(self):
        # n=5 scaled sum is a monotone map of a Binomial(5, 1/4) count
        a, b, p = two_point_support(2.0)
        n = 5
        draws = sample_scaled_sums(DistributionSpec.two_point(2.0, 1),
                                   n, 100_000, seed=19).ravel()
        support = (np.arange(n + 1) * a + (n - np.arange(n + 1)) * b) / math.sqrt(n)
        for k in (0, 1, 2, 3):
            p_hat = np.mean(np.isclose(draws, support[k]))
            assert p_hat == pytest.approx(binom.pmf(k, n, p), abs=0.006)

    def test_count_transform_in_place(self):
        # equals the plain formula bit for bit with at most two arrays of
        # the output's size alive at once
        a, b, p = two_point_support(2.0)
        n, reps, d = 100, 20_000, 50
        k = substream(31, 1).binomial(n, p, size=(reps, d)).astype(float)
        tracemalloc.start()
        try:
            draws = sample_scaled_sums(DistributionSpec.two_point(2.0, d), n,
                                       reps, seed=31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(draws, (k * a + (n - k) * b) / np.sqrt(n))
        assert peak <= 2 * draws.nbytes + 1_000_000

    def test_rademacher_parity(self):
        draws = sample_scaled_sums(DistributionSpec.rademacher(2), 4, 1000, seed=21)
        # (2K - 4)/2 takes values in {-2, -1, 0, 1, 2}
        assert set(np.unique(draws * 2.0)) <= {-4.0, -2.0, 0.0, 2.0, 4.0}

    def test_generic_fallback_variance(self):
        spec = DistributionSpec.uniform_bounded(2.0, 3)
        draws = sample_scaled_sums(spec, 7, 50_000, seed=23)
        assert np.max(np.abs(draws.var(axis=0) - 4.0 / 3.0)) < 0.05

    def test_local_means_coordinates_match_marginal(self):
        d, n = 8, 40
        draws = sample_scaled_sums(DistributionSpec.local_means(d), n,
                                   50_000, seed=25)
        np.testing.assert_allclose(draws.sum(axis=1), 0.0, atol=1e-9)
        assert draws.mean() == pytest.approx(0.0, abs=0.01)

    def test_reproducible(self):
        spec = DistributionSpec.two_point(2.0, 3)
        a = sample_scaled_sums(spec, 10, 100, seed=1)
        b = sample_scaled_sums(spec, 10, 100, seed=1)
        np.testing.assert_array_equal(a, b)


class TestSpecValidation:
    def test_moment_accessors(self):
        r = DistributionSpec.rademacher(2)
        assert r.third_moment() == 0.0
        assert r.fourth_moment() == 1.0  # excess kurtosis -2, nonzero gamma
        assert r.envelope() == 1.0
        g = DistributionSpec.gaussian(CovarianceModel.identity(2))
        assert math.isinf(g.envelope())

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            DistributionSpec.two_point(1.0, 3)
        with pytest.raises(ValueError):
            DistributionSpec.uniform_bounded(-1.0, 3)
        with pytest.raises(ValueError):
            DistributionSpec.local_means(1)
        with pytest.raises(ValueError):
            DistributionSpec(kind="nope", dim=2)
