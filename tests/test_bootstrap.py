import math

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import traced_peak
from hdclt.bootstrap import (MAMMEN_HIGH, MAMMEN_LOW, MAMMEN_P_LOW,
                             _TWO_POINT, _low_indicator, empirical_cov_centered,
                             multiplier_draws, simultaneous_quantile)
from hdclt.bounds import delta0
from hdclt.distance import (MaxStatSample, ks_distance, ks_two_sample_critical,
                            max_statistic)
from hdclt.matcore import CovarianceModel
from hdclt.sampler import (BLOCK_FLOATS, DataMatrix, DistributionSpec, sample,
                           substream)

SIDES = ("one_sided", "two_sided")


class TestInputChecks:
    @pytest.mark.parametrize("call, match", [
        (lambda: multiplier_draws(DataMatrix(np.zeros((0, 3))), 100,
                                  "gaussian", 1, "two_sided"), "requires n >= 1"),
        (lambda: multiplier_draws(DataMatrix(np.zeros((0, 3))), 100,
                                  "mammen", 1, "two_sided"), "requires n >= 1"),
        (lambda: multiplier_draws(DataMatrix(np.eye(3)), 100, "gaussian", 1,
                                  "two-sided"), "unknown side"),
        (lambda: empirical_cov_centered(DataMatrix(np.zeros((1, 3)))),
         "requires n >= 2"),
    ])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


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
        x = DataMatrix(np.eye(3))
        with pytest.raises(ValueError):
            multiplier_draws(x, 10, "cauchy", seed=0, side="one_sided")


def _indicator_oracle(p, rng, size):
    # entry by entry: byte i of the raw words, least significant byte first;
    # each byte equal to the cut then takes the next uniform, in order
    m, cut = size[0] * size[1], math.floor(256 * p)
    words = [int(w) for w in rng.bit_generator.random_raw(-(-m // 8))]
    out = []
    for i in range(m):
        byte = (words[i // 8] >> (8 * (i % 8))) & 0xFF
        if byte == cut:
            out.append(float(rng.random() < 256 * p - cut))
        else:
            out.append(float(byte < cut))
    return np.array(out).reshape(size)


class TestTwoPointDraws:
    @pytest.mark.parametrize("tag", sorted(_TWO_POINT))
    @pytest.mark.parametrize("size", [(1, 500), (7, 3), (2000, 500)])
    def test_draw_equals_oracle(self, tag, size):
        p = _TWO_POINT[tag][0]
        got = _low_indicator(p, np.random.default_rng(5), size)
        want = _indicator_oracle(p, np.random.default_rng(5), size)
        assert got.dtype == np.float64 and got.shape == size
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tag", sorted(_TWO_POINT))
    def test_oracle_meets_ties(self, tag):
        # the (2000, 500) draw settles about 1e6 / 256 bytes by a uniform
        raw = np.random.default_rng(5).bit_generator.random_raw(2000 * 500 // 8)
        cut = math.floor(256 * _TWO_POINT[tag][0])
        assert 3500 < np.sum(raw.astype("<u8").view(np.uint8) == cut) < 4300

    @pytest.mark.parametrize("tag", sorted(_TWO_POINT))
    def test_low_fraction_is_p(self, tag):
        # 3.2e7 entries put 5 se below the 0.24 / 256 share of P(low) that
        # Mammen's ties carry, so dropping them fails too
        p, rng, parts = _TWO_POINT[tag][0], np.random.default_rng(6), 8
        low = sum(_low_indicator(p, rng, (4000, 1000)).sum()
                  for _ in range(parts))
        m = parts * 4_000_000
        assert abs(low / m - p) <= 5.0 * math.sqrt(p * (1.0 - p) / m)

    @pytest.mark.parametrize("tag", sorted(_TWO_POINT))
    @pytest.mark.parametrize("n, d", [(500, 20), (8, 20)])
    def test_product_matches_explicit_multipliers(self, tag, n, d):
        p, low, high = _TWO_POINT[tag]
        x = sample(DistributionSpec.uniform_bounded(1.0, d), n, seed=26)
        ind = _low_indicator(p, substream(27, 10, 0), (300, n))
        xi = np.where(ind == 1.0, low, high)
        for side in SIDES:
            np.testing.assert_allclose(multiplier_draws(x, 300, tag, 27, side),
                                       max_statistic(xi @ _centred(x), side),
                                       rtol=0, atol=1e-12)


class TestMultiplierDraws:
    def test_constant_rows_give_zero(self):
        x = DataMatrix(np.tile([1.0, -2.0], (8, 1)))
        for side in SIDES:
            maxima = multiplier_draws(x, 50, "gaussian", seed=1, side=side)
            np.testing.assert_array_equal(maxima, 0.0)

    def test_single_row_rademacher_is_zero(self):
        x = DataMatrix(np.array([[3.0, -1.0]]))
        for side in SIDES:
            maxima = multiplier_draws(x, 20, "rademacher", seed=2, side=side)
            np.testing.assert_array_equal(maxima, 0.0)


def _centred(x):
    return (x.values - x.values.mean(axis=0)) / math.sqrt(x.n)


def _explicit_gaussian_draws(x, reps, seed, chunk=5_000):
    # oracle: the explicit-multiplier formula, reps x n normals times the
    # centred data
    xc = _centred(x)
    rng = substream(seed, 0)
    return np.concatenate([rng.standard_normal((min(chunk, reps - s), x.n)) @ xc
                           for s in range(0, reps, chunk)])


class TestThinQrGaussianDraws:
    SHAPES = [(500, 20), (8, 20)]

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_factor_reproduces_gram_matrix(self, n, d):
        x = sample(DistributionSpec.uniform_bounded(1.0, d), n, seed=20)
        xc = _centred(x)
        r = np.linalg.qr(xc, mode="r")
        assert r.shape == (min(n, d), d)
        np.testing.assert_allclose(r.T @ r, xc.T @ xc, rtol=0, atol=1e-12)
        # the draws are normals from the seed's first block times that factor
        z = substream(21, 10, 0).standard_normal((300, min(n, d)))
        for side in SIDES:
            np.testing.assert_array_equal(
                multiplier_draws(x, 300, "gaussian", 21, side),
                max_statistic(z @ r, side))

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_max_statistic_matches_explicit_multipliers(self, n, d):
        reps = 100_000
        x = sample(DistributionSpec.uniform_bounded(1.0, d), n, seed=22)
        ks = ks_distance(
            MaxStatSample(multiplier_draws(x, reps, "gaussian", 23,
                                           "one_sided")),
            MaxStatSample.from_draws(_explicit_gaussian_draws(x, reps, 24)))
        assert ks <= ks_two_sample_critical(reps, reps, alpha=0.001)

    def test_single_row_gives_zero(self):
        x = DataMatrix(np.array([[3.0, -1.0, 0.5]]))
        for side in SIDES:
            maxima = multiplier_draws(x, 20, "gaussian", seed=25, side=side)
            assert maxima.shape == (20,)
            np.testing.assert_array_equal(maxima, 0.0)


class TestEmpiricalDraws:
    def test_constant_rows_give_zero(self):
        x = DataMatrix(np.tile([0.5, 1.5, -1.0], (6, 1)))
        for side in SIDES:
            maxima = multiplier_draws(x, 40, "empirical", seed=7, side=side)
            np.testing.assert_allclose(maxima, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n, d", [(500, 20), (8, 20)])
    def test_matches_explicit_resampling(self, n, d):
        # oracle: gather the resampled rows picked by the seed's first block
        x = sample(DistributionSpec.uniform_bounded(1.0, d), n, seed=28)
        picks = substream(29, 10, 0).integers(0, n, size=(300, n))
        want = ((x.values[picks].sum(axis=1) - n * x.values.mean(axis=0))
                / math.sqrt(n))
        for side in SIDES:
            np.testing.assert_allclose(
                multiplier_draws(x, 300, "empirical", 29, side),
                max_statistic(want, side), rtol=0, atol=1e-12)


class TestBlockBudget:
    # allocations outside the block slab: index arrays, partial sums, and
    # the interpreter's own bookkeeping while tracing
    SLACK_BYTES = 4_000_000

    def _check(self, fn):
        for side in SIDES:
            peak, out = traced_peak(lambda: fn(side))
            assert peak <= BLOCK_FLOATS * 8 + out.nbytes + self.SLACK_BYTES
            np.testing.assert_array_equal(out, fn(side))

    def test_peak_memory_independent_of_d(self):
        for d in (10, 50):
            x = sample(DistributionSpec.gaussian(CovarianceModel.identity(d)),
                       100, seed=5)
            for kind in ("empirical", "mammen", "gaussian"):
                self._check(lambda side: multiplier_draws(x, 1000, kind, 6,
                                                          side))
        # n < d: each block's rows x d product is wider than its multipliers,
        # and it takes three blocks, so each must reuse the first's product
        x = sample(DistributionSpec.gaussian(CovarianceModel.identity(2000)),
                   10, seed=5)
        for kind in ("mammen", "gaussian", "empirical"):
            self._check(lambda side: multiplier_draws(x, 2000, kind, 6, side))

    def test_two_point_block_holds_one_float_slab(self):
        # n = 2000 fills each block with 995 x 2000 indicator floats; its
        # 2000 / 8 raw words a row come on top and fit in the slack
        x = sample(DistributionSpec.uniform_bounded(1.0, 10), 2000, seed=5)
        for kind in ("mammen", "rademacher"):
            self._check(lambda side: multiplier_draws(x, 2000, kind, 6, side))

    def test_empirical_block_holds_picks_counts_and_floats(self):
        # n = 2000 picks, counts and float multipliers a row: a block of
        # n + d = 2010 floats a row would hold 995 rows, 48 MB of them
        x = sample(DistributionSpec.uniform_bounded(1.0, 10), 2000, seed=5)
        self._check(lambda side: multiplier_draws(x, 2000, "empirical", 6,
                                                  side))


class TestEmpiricalCov:
    def test_interleaved_rows_give_all_ones(self):
        x = DataMatrix(np.array([[1.0, 1.0], [-1.0, -1.0]] * 5))
        np.testing.assert_allclose(empirical_cov_centered(x).entries,
                                   np.ones((2, 2)), atol=1e-12)

    # Delta_0' is Delta_0 with the empirical covariance in place of Sigma_W
    def test_delta0_prime_zero_at_truth(self):
        x = sample(DistributionSpec.gaussian(CovarianceModel.identity(2)),
                   50, seed=10)
        sigma_hat = empirical_cov_centered(x)
        assert delta0(sigma_hat, sigma_hat, 2) == 0.0

    def test_delta0_prime_shrinks_with_n(self):
        sigma = CovarianceModel.identity(3)
        spec = DistributionSpec.gaussian(sigma)
        wins = 0
        for trial in range(100):
            small = empirical_cov_centered(sample(spec, 100, seed=1000 + trial))
            big = empirical_cov_centered(sample(spec, 10_000, seed=5000 + trial))
            d_small = delta0(sigma, small, 3)
            d_big = delta0(sigma, big, 3)
            wins += d_big < d_small
        assert wins >= 95


class TestSimultaneousQuantile:
    def test_zero_draws(self):
        assert simultaneous_quantile(np.zeros(200), 0.9) == 0.0

    def test_two_sided_gaussian_matches_normal_quantile(self):
        # at d = 1 the two-sided max is |Z|, whose 0.95-quantile is the
        # normal 0.975-quantile
        maxima = np.abs(substream(12, 0).standard_normal(200_000))
        q = simultaneous_quantile(maxima, 0.95)
        assert q == pytest.approx(float(ndtri(0.975)), abs=0.02)

    def test_level_one_is_max(self):
        maxima = substream(13, 0).standard_normal(500)
        assert simultaneous_quantile(maxima, 1.0) == maxima.max()

    def test_requires_enough_draws(self):
        with pytest.raises(ValueError):
            simultaneous_quantile(np.zeros(99), 0.9)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            simultaneous_quantile(np.zeros(200), 1.5)

    @pytest.mark.parametrize("shape", [(200, 3), ()])
    def test_rejects_input_that_is_not_1d(self, shape):
        # a reps x d array of draws is not flattened into one sample
        with pytest.raises(ValueError, match="1-D"):
            simultaneous_quantile(np.zeros(shape), 0.9)
