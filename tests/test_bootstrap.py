import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from hdclt.bootstrap import (MAMMEN_HIGH, MAMMEN_LOW, MAMMEN_P_LOW,
                             MultiplierKind, bootstrap_bound_inputs,
                             delta0_prime, empirical_cov_centered,
                             empirical_draws, multiplier_draws,
                             simultaneous_quantile)
from hdclt.matcore import CovarianceModel
from hdclt.sampler import (BLOCK_FLOATS, DataMatrix, DistributionSpec, sample,
                           sample_scaled_sums, substream)


class TestMammenLaw:
    def test_first_three_moments(self):
        p = MAMMEN_P_LOW
        m1 = p * MAMMEN_LOW + (1 - p) * MAMMEN_HIGH
        m2 = p * MAMMEN_LOW**2 + (1 - p) * MAMMEN_HIGH**2
        m3 = p * MAMMEN_LOW**3 + (1 - p) * MAMMEN_HIGH**3
        assert m1 == pytest.approx(0.0, abs=1e-14)
        assert m2 == pytest.approx(1.0, rel=1e-14)
        assert m3 == pytest.approx(1.0, rel=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MultiplierKind("cauchy")


class TestMultiplierDraws:
    def test_constant_rows_give_zero(self):
        x = DataMatrix(np.tile([1.0, -2.0], (8, 1)))
        draws = multiplier_draws(x, 50, "gaussian", seed=1)
        np.testing.assert_array_equal(draws, 0.0)

    def test_single_row_rademacher_is_zero(self):
        x = DataMatrix(np.array([[3.0, -1.0]]))
        draws = multiplier_draws(x, 20, "rademacher", seed=2)
        np.testing.assert_array_equal(draws, 0.0)

    def test_gaussian_kind_covariance_matches_empirical(self):
        x = sample(DistributionSpec.gaussian(CovarianceModel.identity(3)),
                   200, seed=3)
        draws = multiplier_draws(x, 100_000, "gaussian", seed=4)
        target = empirical_cov_centered(x).entries
        emp = np.cov(draws.T, bias=True)
        assert np.max(np.abs(emp - target)) < 0.02


class TestEmpiricalDraws:
    def test_constant_rows_give_zero(self):
        x = DataMatrix(np.tile([0.5, 1.5, -1.0], (6, 1)))
        draws = empirical_draws(x, 40, seed=7)
        np.testing.assert_allclose(draws, 0.0, atol=1e-12)

    def test_conditional_mean_and_covariance(self):
        x = sample(DistributionSpec.gaussian(CovarianceModel.identity(3)),
                   150, seed=8)
        draws = empirical_draws(x, 100_000, seed=9)
        target = empirical_cov_centered(x).entries
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02
        assert np.max(np.abs(np.cov(draws.T, bias=True) - target)) < 0.03


class TestBlockBudget:
    # allocations outside the block slab: index arrays, partial sums, and
    # the interpreter's own bookkeeping while tracing
    SLACK_BYTES = 4_000_000

    def _peak(self, fn):
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def test_peak_memory_independent_of_d(self):
        for d in (10, 50):
            x = sample(DistributionSpec.gaussian(CovarianceModel.identity(d)),
                       100, seed=5)
            spec = DistributionSpec.uniform_bounded(1.0, d)
            for fn in (lambda: empirical_draws(x, 1000, seed=6),
                       lambda: sample_scaled_sums(spec, 10, 20_000, seed=7),
                       lambda: multiplier_draws(x, 1000, "mammen", seed=6)):
                peak, out = self._peak(fn)
                assert peak <= BLOCK_FLOATS * 8 + out.nbytes + self.SLACK_BYTES
                np.testing.assert_array_equal(out, fn())


class TestEmpiricalCov:
    def test_interleaved_rows_give_all_ones(self):
        x = DataMatrix(np.array([[1.0, 1.0], [-1.0, -1.0]] * 5))
        np.testing.assert_allclose(empirical_cov_centered(x).entries,
                                   np.ones((2, 2)), atol=1e-12)

    def test_delta0_prime_zero_at_truth(self):
        x = sample(DistributionSpec.gaussian(CovarianceModel.identity(2)),
                   50, seed=10)
        sigma_hat = empirical_cov_centered(x)
        assert delta0_prime(sigma_hat, sigma_hat, 1.0, 2) == 0.0

    def test_delta0_prime_shrinks_with_n(self):
        sigma = CovarianceModel.identity(3)
        spec = DistributionSpec.gaussian(sigma)
        wins = 0
        for trial in range(100):
            small = empirical_cov_centered(sample(spec, 100, seed=1000 + trial))
            big = empirical_cov_centered(sample(spec, 10_000, seed=5000 + trial))
            d_small = delta0_prime(sigma, small, 1.0, 3)
            d_big = delta0_prime(sigma, big, 1.0, 3)
            wins += d_big < d_small
        assert wins >= 95


class TestBoundInputs:
    def test_bounded_data_truncates_to_zero(self):
        B = 2.0
        x = sample(DistributionSpec.uniform_bounded(B, 4), 100, seed=11)
        _, m_star, m_psi = bootstrap_bound_inputs(x, psi=2 * B + 0.1)
        assert m_star <= 2 * B
        assert m_psi == 0.0

    def test_all_zero_data(self):
        x = DataMatrix(np.zeros((5, 2)))
        assert bootstrap_bound_inputs(x, psi=1.0) == (0.0, 0.0, 0.0)

    def test_hand_computed_pair(self):
        x = DataMatrix(np.array([[2.0], [-2.0]]))
        delta1p, m_star, m_psi = bootstrap_bound_inputs(x, psi=1.0)
        assert m_star == 2.0
        assert m_psi == pytest.approx(16.0)
        # centered fourth-moment sum is 2 * 2^4 = 32, log(1)^2 = 0 kills it
        assert delta1p == 0.0


class TestSimultaneousQuantile:
    def test_zero_draws(self):
        assert simultaneous_quantile(np.zeros((200, 3)), 0.9) == 0.0

    def test_one_sided_gaussian_matches_normal_quantile(self):
        draws = substream(12, 0).standard_normal((200_000, 1))
        q = simultaneous_quantile(draws, 0.95, side="one_sided")
        assert q == pytest.approx(float(ndtri(0.95)), abs=0.02)

    def test_level_one_is_max(self):
        rng = substream(13, 0)
        draws = rng.standard_normal((500, 2))
        assert simultaneous_quantile(draws, 1.0) == np.abs(draws).max()

    def test_requires_enough_draws(self):
        with pytest.raises(ValueError):
            simultaneous_quantile(np.zeros((99, 2)), 0.9)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            simultaneous_quantile(np.zeros((200, 2)), 1.5)
