import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import traced_peak
from distance_oracles import brute_force_ks_to_law
from hdclt import maxlaw
from hdclt.distance import MaxStatSample, ks_distance_with_se, max_stat_sample
from hdclt.lowerbound import (fit_power_law, poisson_approx_check,
                              reference_distance, reference_max_stats,
                              threshold_xn)
from hdclt.matcore import CovarianceModel
from hdclt.maxlaw import (IsotropicGaussianMax, RademacherGaussianMax,
                          law_of, two_point_marginal_tail)
from hdclt.sampler import BLOCK_FLOATS, DistributionSpec, two_point_support
from sampler_oracles import count_scaled_sums


class TestThreshold:
    def test_half_probability_root(self):
        # e^{-1/d} = 0.5 at d = 1/log 2; the threshold is the normal median
        assert abs(threshold_xn(1.0 / math.log(2.0))) <= 1e-12

    def test_forward_consistency_at_d50(self):
        x = threshold_xn(50)
        assert float(ndtr(x)) ** 50 == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_sqrt_two_log_d_trend(self):
        d = 10**6
        assert threshold_xn(d) == pytest.approx(math.sqrt(2 * math.log(d)),
                                                rel=0.10)

    def test_positive_d_required(self):
        with pytest.raises(ValueError):
            threshold_xn(0.0)


class TestSkewness:
    def test_two_point_closed_form(self):
        # E W_1^3 = E X^3 / sqrt(n) for the two-point law of the construction
        a, b, p = two_point_support(2.0)
        gamma = (p * a**3 + (1 - p) * b**3) / math.sqrt(100)
        expected = (1 - 2 * p) / math.sqrt(100 * p * (1 - p))
        assert gamma == pytest.approx(expected, rel=1e-12)
        assert gamma == pytest.approx(0.11547, abs=1e-5)


class TestMarginalTail:
    def test_enumeration_matches_monte_carlo(self):
        B, n, x = 2.0, 50, 1.5
        exact = two_point_marginal_tail(B, n, x)
        draws = count_scaled_sums(DistributionSpec.two_point(B, 1), n,
                                  200_000, seed=3).ravel()
        p_hat = float(np.mean(draws > x))
        se = math.sqrt(exact * (1 - exact) / draws.size)
        assert p_hat == pytest.approx(exact, abs=4 * se)

    def test_degenerate_thresholds(self):
        assert two_point_marginal_tail(2.0, 10, 1e9) == 0.0
        assert two_point_marginal_tail(2.0, 10, -1e9) == pytest.approx(1.0)


class TestPoissonApprox:
    def test_residual_fields_consistent(self):
        spec = DistributionSpec.two_point(2.0, 20)
        rec = poisson_approx_check(spec, n=200, reps=50_000, seed=7)
        assert rec["residual"] == pytest.approx(
            abs(rec["f_hat"] - math.exp(-rec["lambda_hat"])))
        assert rec["residual_bound"] == pytest.approx(
            rec["lambda_hat"]**2 / spec.dim)
        assert rec["lambda_hat"] <= 10.0

    @pytest.mark.parametrize("spec", [
        DistributionSpec.uniform_bounded(1.0, 20),
        DistributionSpec.gaussian(CovarianceModel.equicorrelation(20, 0.3)),
        DistributionSpec.local_means(20),
        DistributionSpec.gaussian(CovarianceModel.identity(20))],
        ids=["uniform_bounded", "equicorrelated", "local_means", "identity"])
    def test_rejects_coordinates_without_known_iid_tail(self, spec):
        # the check is of the two-point construction only
        with pytest.raises(ValueError, match=repr(spec.kind)):
            poisson_approx_check(spec, n=10, reps=100, seed=1)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_counts_follow_binomial_law(self, seed):
        d, n, reps = 50, 1000, 20_000
        spec = DistributionSpec.two_point(2.0, d)
        rec = poisson_approx_check(spec, n=n, reps=reps, seed=seed)
        q = two_point_marginal_tail(2.0, n, threshold_xn(d))
        f = (1 - q) ** d
        assert rec["f_hat"] == pytest.approx(
            f, abs=4 * math.sqrt(f * (1 - f) / reps))
        assert rec["lambda_hat"] == pytest.approx(
            d * q, abs=4 * d * math.sqrt(q * (1 - q) / (reps * d)))

    def test_peak_memory_independent_of_reps_times_d(self):
        # 5e6 coordinate values, 40 MB as one array; the check must never
        # hold a reps x d array of coordinates
        for d in (50, 500):
            spec = DistributionSpec.two_point(2.0, d)
            peak, _ = traced_peak(lambda: poisson_approx_check(
                spec, n=100, reps=5_000_000 // d, seed=3))
            assert peak <= BLOCK_FLOATS * 8 + 4_000_000, (d, peak)


class TestReferenceMaxStats:
    def test_returns_the_exact_isotropic_law(self):
        # W = n^{-1/2} sum of Rademacher plus N(0, 1) rows has covariance 2 I
        assert reference_max_stats(DistributionSpec.quasi_gaussian(20)) == \
            IsotropicGaussianMax(20, math.sqrt(2.0))
        assert reference_max_stats(DistributionSpec.gaussian(
            CovarianceModel.identity(10))) == IsotropicGaussianMax(10)

    @pytest.mark.parametrize("spec", [
        DistributionSpec.local_means(10),
        DistributionSpec.gaussian(CovarianceModel.equicorrelation(10, 0.3)),
        DistributionSpec.gaussian(CovarianceModel(np.diag([1.0, 2.0, 3.0])))],
        ids=["local_means", "equicorrelated", "unequal_variances"])
    def test_refuses_covariance_without_isotropic_law(self, spec):
        with pytest.raises(ValueError, match=f"the {spec.kind} covariance"):
            reference_max_stats(spec)

    @staticmethod
    def _w_samples():
        """(label, W sample, reference spec) cases: two-point W with every
        atom of its law added, so that atoms whose reference CDF rounds to
        0 or 1 are in the sample, local-means W against the identity, and
        the continuous quasi-Gaussian W."""
        for seed, (n, B) in zip(itertools.count(0, 2), itertools.product(
                (50, 400, 2000), (2.0, 4.0))):
            spec = DistributionSpec.two_point(B, 20)
            w = max_stat_sample(spec, n, 2000, seed).values
            atoms = law_of(spec, n).atoms
            yield (f"two_point-{n}-{B}",
                   np.concatenate([w, atoms]), spec)
        for d in (10, 40):
            w = max_stat_sample(DistributionSpec.local_means(d), 50 * d, 2000,
                                d)
            yield (f"local_means-{d}", w.values, DistributionSpec.gaussian(
                CovarianceModel.identity(d)))
        for seed, n in enumerate((100, 400)):
            spec = DistributionSpec.quasi_gaussian(20)
            yield (f"quasi_gaussian-{n}",
                   max_stat_sample(spec, n, 2000, seed).values, spec)

    def test_one_sample_distance_is_the_brute_force_sup(self):
        tails = set()
        for label, w, ref_spec in self._w_samples():
            law = reference_max_stats(ref_spec)
            tails |= {v for v in (0.0, 1.0) if v in law.cdf(w)}
            assert ks_distance_with_se(MaxStatSample(w), law) == \
                brute_force_ks_to_law(w, law.cdf), label
        assert tails == {0.0, 1.0}  # atoms at both rounded ends were met


class TestReferenceDistance:
    # (W spec, n, reference spec): two-point at both ends of the rate
    # curve, local means against the identity, and the continuous W
    CASES = [(DistributionSpec.two_point(2.0, 50), 250, None),
             (DistributionSpec.two_point(2.0, 50), 2000, None),
             (DistributionSpec.local_means(10), 500,
              DistributionSpec.gaussian(CovarianceModel.identity(10))),
             (DistributionSpec.quasi_gaussian(20), 100, None)]
    IDS = ["two_point-250", "two_point-2000", "local_means-10",
           "quasi_gaussian-100"]

    @pytest.mark.parametrize("spec, n, ref_spec", CASES, ids=IDS)
    def test_reference_cdf_per_distinct_value_is_taken_per_draw(
            self, monkeypatch, spec, n, ref_spec):
        ref = reference_max_stats(ref_spec or spec)
        seen, real_cdf = [], IsotropicGaussianMax.cdf
        monkeypatch.setattr(IsotropicGaussianMax, "cdf", lambda self, x:
                            seen.append(np.array(x)) or real_cdf(self, x))
        # the exact distance takes the CDF too; here only the KS does
        monkeypatch.setattr(maxlaw, "sup_distance", lambda law, ref: 0.0)
        dist, se, floor, _ = reference_distance(spec, n, 20_000, 4, ref)
        monkeypatch.undo()
        w = max_stat_sample(spec, n, 20_000, 4).values
        # one CDF call, on the draws' distinct values: at most n + 1 of
        # them on a step law
        (points,) = seen
        assert np.array_equal(points, np.unique(w))
        if spec.kind != "quasi_gaussian":
            assert points.size <= n + 1
        assert (dist, se) == brute_force_ks_to_law(w, ref.cdf)
        c = math.sqrt(-math.log(0.005) / 2.0)
        assert floor == c / math.sqrt(20_000)

    def test_builds_the_w_law_once(self, monkeypatch):
        spec = DistributionSpec.local_means(10)
        ref = reference_max_stats(
            DistributionSpec.gaussian(CovarianceModel.identity(10)))
        lookups, builds = [], []
        real_law_of = maxlaw.law_of
        real_build = maxlaw.LocalMeansMax.__post_init__
        monkeypatch.setattr(maxlaw, "law_of", lambda *a, **k:
                            lookups.append(a) or real_law_of(*a, **k))
        monkeypatch.setattr(maxlaw.LocalMeansMax, "__post_init__",
                            lambda self: builds.append(self) or
                            real_build(self))
        reference_distance(spec, 500, 1000, 2, ref)
        assert len(lookups) == 1 and len(builds) == 1


class TestPowerLawFit:
    def test_exact_power_law(self):
        xs = [250.0, 500.0, 1000.0, 2000.0]
        ys = [3.0 * x**-0.5 for x in xs]
        slope, se, intercept = fit_power_law(xs, ys)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert se <= 1e-12
        assert intercept == pytest.approx(math.log(3.0), abs=1e-10)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])


class TestZeroSkewExactOracle:
    def test_reference_limit(self):
        # huge n: the coordinate law is essentially N(0, 2)
        x = np.array([1.0, 2.0, 3.0])
        val = RademacherGaussianMax(100_000, 20).cdf(x)
        ref = ndtr(x / math.sqrt(2.0)) ** 20
        np.testing.assert_allclose(val, ref, atol=1e-4)

    def test_inverse_n_rate(self):
        # the zero-skewness smooth-case distance decays like n^{-1}; the
        # Monte Carlo criterion at R=1e6 cannot resolve these 1e-4 scale
        # distances, so the rate is verified on the exact enumeration
        xs = np.linspace(-1.0, 5.0, 4001)
        dists = []
        for n in (100, 200, 400):
            exact = RademacherGaussianMax(n, 20).cdf(xs)
            ref = ndtr(xs / math.sqrt(2.0)) ** 20
            dists.append(float(np.max(np.abs(exact - ref))))
        slope, _, _ = fit_power_law([100.0, 200.0, 400.0], dists)
        assert -1.35 <= slope <= -0.65
        assert dists[0] == pytest.approx(5.33e-4, rel=0.05)
