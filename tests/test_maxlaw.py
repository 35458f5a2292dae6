import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import binom

from conftest import traced_peak
from distance_oracles import empirical_cdf
from hdclt.distance import MaxStatSample, ks_distance, ks_two_sample_critical
from hdclt.lowerbound import fit_power_law, threshold_xn
from hdclt.matcore import CovarianceModel
from hdclt import maxlaw
from hdclt.maxlaw import (EquicorrelatedGaussianMax, IsotropicGaussianMax,
                          LocalMeansMax, RademacherGaussianMax, TwoPointMax,
                          law_of, sup_distance, two_point_marginal_tail)
from hdclt.sampler import (BLOCK_FLOATS, DistributionSpec, sample_scaled_sums,
                           substream, two_point_support)
from sampler_oracles import count_scaled_sums

ROOT = Path(__file__).resolve().parents[1]
GATES = ROOT / "perfbench" / "gates.py"
# the extremes of Generator.random: 0 and the largest double below 1
U_EXTREMES = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])


def _two_point_values(B, n):
    a, b, p = two_point_support(B)
    return [((k * a + (n - k) * b) / math.sqrt(n), binom.pmf(k, n, p))
            for k in range(n + 1)]


class TestInputChecks:
    @pytest.mark.parametrize("call, match", [
        (lambda: IsotropicGaussianMax(0), "need d >= 1 and sigma > 0"),
        (lambda: IsotropicGaussianMax(3, sigma=0.0),
         "need d >= 1 and sigma > 0"),
        (lambda: EquicorrelatedGaussianMax(0, 0.5), "need d >= 1, 0 < rho"),
        (lambda: EquicorrelatedGaussianMax(3, 0.0), "need d >= 1, 0 < rho"),
        (lambda: EquicorrelatedGaussianMax(3, 1.0), "need d >= 1, 0 < rho"),
        (lambda: EquicorrelatedGaussianMax(3, 0.5, sigma=-1.0),
         "need d >= 1, 0 < rho"),
        (lambda: TwoPointMax(2.0, 0, 3), "need n >= 1 and d >= 1"),
        (lambda: TwoPointMax(2.0, 5, 0), "need n >= 1 and d >= 1"),
        (lambda: LocalMeansMax(0, 3), "need n >= 1 and d >= 2"),
        (lambda: LocalMeansMax(5, 1), "need n >= 1 and d >= 2"),
        (lambda: RademacherGaussianMax(0, 3), "n and d must be >= 1"),
        (lambda: RademacherGaussianMax(5, 0), "n and d must be >= 1"),
    ])
    def test_constructor_rejects(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestCdf:
    def test_two_point_against_enumeration(self):
        B, n, d = 2.0, 30, 7
        values = _two_point_values(B, n)
        xs = np.linspace(-3.0, 5.0, 97)
        law = TwoPointMax(B, n, d)
        want = [sum(pk for w, pk in values if w <= x) ** d for x in xs]
        np.testing.assert_allclose(law.cdf(xs), want, rtol=1e-12,
                                   atol=1e-300)

    def test_isotropic_against_ndtr_product(self):
        xs = np.linspace(-4.0, 9.0, 131)
        for d, sigma in ((1, 1.0), (20, math.sqrt(2.0)), (500, 3.0)):
            one = IsotropicGaussianMax(d, sigma).cdf(xs)
            np.testing.assert_allclose(one, ndtr(xs / sigma) ** d,
                                       rtol=1e-12, atol=1e-300)

    def test_equicorrelated_against_adaptive_quadrature(self):
        for d, rho, sigma in ((10, 0.05, 1.0), (10, 0.2, 1.0), (5, 0.9, 2.0),
                              (50, 0.999, 1.0)):
            law = EquicorrelatedGaussianMax(d, rho, sigma)
            for x in (-1.0, 0.5, 1.5, 3.0, 5.0):
                def integrand(g):
                    z = (x / sigma - math.sqrt(rho) * g) / math.sqrt(1 - rho)
                    return math.exp(-g * g / 2) * float(ndtr(z)) ** d
                # break at the conditional probability's step
                step = x / sigma / math.sqrt(rho)
                want = quad(integrand, -14, 14, points=[step], epsabs=1e-15,
                            limit=500)[0] / math.sqrt(2 * math.pi)
                assert float(law.cdf(x)) == pytest.approx(want, abs=1e-12)

    def test_rademacher_gaussian_against_enumeration(self):
        n, d = 12, 5
        xs = np.linspace(-2.0, 5.0, 29)
        law = RademacherGaussianMax(n, d)
        want = []
        for x in xs:
            f = 0.0
            for k in range(n + 1):
                c = (2 * k - n) / math.sqrt(n)
                f += math.comb(n, k) / 2**n * ndtr(x - c)
            want.append(f**d)
        np.testing.assert_allclose(law.cdf(xs), want, rtol=1e-10,
                                   atol=1e-300)

    def test_rademacher_gaussian_memory_bounded_in_n(self):
        # the (points, n + 1) terms are taken in blocks of x; unblocked,
        # 256 points at n = 1e5 would hold 200 MB a temporary
        law = RademacherGaussianMax(10**5, 20)
        xs = np.linspace(-1.0, 6.0, 256)
        peak, got = traced_peak(lambda: law.cdf(xs))
        assert peak <= BLOCK_FLOATS * 8 + 4_000_000
        assert np.all(np.diff(got) >= 0) and 0.0 < got[0] < got[-1] < 1.0

    def test_quadrature_64_and_96_nodes_agree(self, monkeypatch):
        xs = np.linspace(-3.0, 8.0, 111)
        cases = ((10, 0.05), (10, 0.2), (50, 0.5), (3, 0.95), (1000, 0.999))
        at64 = [EquicorrelatedGaussianMax(d, rho).cdf(xs) for d, rho in cases]
        monkeypatch.setattr(maxlaw, "QUADRATURE_NODES", 96)
        for (d, rho), a in zip(cases, at64):
            b = EquicorrelatedGaussianMax(d, rho).cdf(xs)
            assert np.max(np.abs(a - b)) <= 1e-12


class TestBinomialLaw:
    """The binomial laws behind the two-point and zero-skew max statistics,
    against scipy.stats.binom at the sizes the default experiments use."""

    @pytest.mark.parametrize("n", [250, 500, 1000, 2000])
    def test_two_point_tables(self, n):
        p = two_point_support(2.0)[2]
        k = np.arange(n + 1)
        np.testing.assert_allclose(TwoPointMax(2.0, n, 50).table,
                                   binom.cdf(k, n, p) ** 50, rtol=1e-9, atol=0)

    def test_poisson_check_marginal_tail(self):
        a, b, p = two_point_support(2.0)
        n, x = 1000, threshold_xn(50)
        k = np.arange(n + 1)
        above = (k * a + (n - k) * b) / math.sqrt(n) > x
        want = binom.pmf(k[above], n, p).sum()
        assert two_point_marginal_tail(2.0, n, x) == \
            pytest.approx(want, rel=1e-9, abs=0)

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_rademacher_gaussian(self, n):
        xs = np.linspace(-2.0, 6.0, 41)
        centers = (2.0 * np.arange(n + 1) - n) / math.sqrt(n)
        pk = binom.pmf(np.arange(n + 1), n, 0.5)
        want = (ndtr(xs[:, None] - centers) @ pk) ** 20
        np.testing.assert_allclose(RademacherGaussianMax(n, 20).cdf(xs), want,
                                   rtol=1e-9, atol=0)

    def test_large_n_table_builds_without_warnings(self):
        # far in the lower tail the table underflows to 0; it must carry
        # those zeros without a log-of-zero warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = TwoPointMax(2.0, 5000, 50).table
        assert table[0] == 0.0
        assert table[-1] == pytest.approx(1.0)
        assert np.all(np.diff(table) >= 0)


def _compositions(n, d):
    """Every vector of d nonnegative counts summing to n."""
    if d == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, d - 1):
            yield (k,) + rest


class TestLocalMeansLaw:
    @pytest.mark.parametrize("n, d", [(12, 3), (20, 4)])
    def test_table_against_enumeration(self, n, d):
        # P(max_j N_j <= m) summed over every multinomial outcome
        pmf = np.zeros(n + 1)
        for counts in _compositions(n, d):
            pmf[max(counts)] += math.exp(
                math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)
                - n * math.log(d))
        np.testing.assert_allclose(LocalMeansMax(n, d).table, np.cumsum(pmf),
                                   rtol=0, atol=1e-12)

    def test_sample_against_multinomial_max(self):
        n, d, reps = 2000, 40, 100_000
        full = count_scaled_sums(DistributionSpec.local_means(d), n, reps,
                                 seed=18)
        drawn = MaxStatSample(full.max(axis=1))
        law = LocalMeansMax(n, d)
        inverted = MaxStatSample(law.sample(substream(19, 0).random(reps)))
        # the inverted draws take exactly the drawn values
        assert set(np.unique(inverted.values)) <= set(law.atoms)
        # each empirical CDF within its alpha = 1e-4 DKW radius of the law;
        # both step at the atoms only, so the sup is taken there
        radius = math.sqrt(math.log(2.0 / 1e-4) / (2.0 * reps))
        for sample in (drawn, inverted):
            gaps = np.abs(empirical_cdf(sample, law.atoms) - law.table)
            assert np.max(gaps) <= radius

    def test_large_table_is_a_cdf_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = LocalMeansMax(5000, 100).table
        assert np.all((table >= 0.0) & (table <= 1.0))
        assert np.all(np.diff(table) >= 0)
        assert table[49] == 0.0 and table[-1] == 1.0


class TestSample:
    REPS = 200_000
    # the alpha = 0.001 two-sample KS critical value at 200k draws a side
    CRIT = ks_two_sample_critical(REPS, REPS, alpha=0.001)

    def _check(self, law, full, seed):
        u = substream(seed, 0).random((law.variates, self.REPS))
        inverted = MaxStatSample(law.sample(*u))
        drawn = MaxStatSample(full.max(axis=1))
        assert ks_distance(inverted, drawn) <= self.CRIT

    def test_two_point_against_full_draw(self):
        full = count_scaled_sums(DistributionSpec.two_point(2.0, 20), 100,
                                 self.REPS, seed=11)
        self._check(TwoPointMax(2.0, 100, 20), full, 12)

    def test_isotropic_against_full_draw(self):
        full = math.sqrt(2.0) * substream(13, 0).standard_normal(
            (self.REPS, 20))
        self._check(IsotropicGaussianMax(20, math.sqrt(2.0)), full, 14)

    def test_equicorrelated_against_full_draw(self):
        spec = DistributionSpec.gaussian(
            CovarianceModel.equicorrelation(10, 0.2))
        full = sample_scaled_sums(spec, 1, self.REPS, seed=15)
        self._check(EquicorrelatedGaussianMax(10, 0.2), full, 16)

    def test_two_point_atoms_are_the_drawn_values(self):
        # inversion returns exactly the values the count transform produces
        full = count_scaled_sums(DistributionSpec.two_point(2.0, 4), 50, 2000,
                                 seed=17)
        assert set(np.unique(full)) <= set(TwoPointMax(2.0, 50, 4).atoms)

    def test_extreme_uniforms_give_finite_ordered_draws(self):
        laws = [TwoPointMax(2.0, 10, 3)]
        laws += [IsotropicGaussianMax(d, 2.0) for d in (1, 50, 10**6)]
        for law in laws:
            x = law.sample(U_EXTREMES)
            assert np.all(np.isfinite(x)) and np.all(np.diff(x) >= 0)
        for rho in (0.01, 0.5, 0.99):
            x = EquicorrelatedGaussianMax(10, rho).sample(U_EXTREMES,
                                                          U_EXTREMES)
            assert np.all(np.isfinite(x)) and np.all(np.diff(x) >= 0)


class TestLawOf:
    def test_dispatch(self):
        identity = DistributionSpec.gaussian(CovarianceModel.identity(5))
        assert law_of(identity, 1) == IsotropicGaussianMax(5)
        scaled = DistributionSpec.gaussian(CovarianceModel(2.0 * np.eye(3)))
        assert law_of(scaled, 1) == IsotropicGaussianMax(3, math.sqrt(2.0))
        equi = DistributionSpec.gaussian(
            CovarianceModel.equicorrelation(5, 0.3))
        assert law_of(equi, 1) == EquicorrelatedGaussianMax(5, 0.3)
        assert law_of(DistributionSpec.two_point(2.0, 4), 9) == \
            TwoPointMax(2.0, 9, 4)
        quasi = DistributionSpec.quasi_gaussian(4)
        assert law_of(quasi, 7) == RademacherGaussianMax(7, 4)
        diagonal = DistributionSpec.gaussian(
            CovarianceModel(np.diag([1.0, 4.0])))
        assert law_of(diagonal, 1) is None
        local = DistributionSpec.local_means(5)
        assert law_of(local, 10) == LocalMeansMax(10, 5)

    def test_no_law_where_coordinates_do_not_factor(self):
        negative = DistributionSpec.gaussian(
            CovarianceModel.equicorrelation(5, -0.1))
        assert law_of(negative, 1) is None
        assert law_of(DistributionSpec.uniform_bounded(1.0, 5), 10) is None


class TestExactDistances:
    def test_rate_vs_n_defaults(self):
        # independent oracle: sup |BinomCDF^d - Phi^d| over both sides of
        # every atom
        a, b, p = two_point_support(2.0)
        got, want = [], []
        for n in (250, 500, 1000, 2000):
            k = np.arange(n + 1)
            right = binom.cdf(k, n, p) ** 50
            left = np.concatenate([[0.0], right[:-1]])
            gauss = ndtr((k * a + (n - k) * b) / math.sqrt(n)) ** 50
            want.append(max(np.max(np.abs(right - gauss)),
                            np.max(np.abs(left - gauss))))
            got.append(sup_distance(TwoPointMax(2.0, n, 50),
                                    IsotropicGaussianMax(50)))
        np.testing.assert_allclose(got, want, rtol=1e-9)
        np.testing.assert_allclose(got, [0.1009, 0.0724, 0.0518, 0.0370],
                                   atol=5e-5)
        assert fit_power_law([250, 500, 1000, 2000], got)[0] == \
            pytest.approx(-0.482, abs=5e-4)

    @pytest.mark.parametrize("law, args, pinned", [
        (TwoPointMax, (2.0, 250, 50), 0.10092184441209479),
        (TwoPointMax, (2.0, 500, 50), 0.07237356621540142),
        (TwoPointMax, (2.0, 1000, 50), 0.05177489217480424),
        (TwoPointMax, (2.0, 2000, 50), 0.03704089523712001),
        (LocalMeansMax, (500, 10), 0.13749304082774683),
        (LocalMeansMax, (2000, 40), 0.1469555250055018)])
    def test_step_law_distances_pinned(self, law, args, pinned):
        # the rate_vs_n and local_means defaults, recorded while the atom
        # sweep was sup_distance's own: sharing step_sup moves no bit
        law = law(*args)
        assert sup_distance(law, IsotropicGaussianMax(law.d)) == pinned

    def test_zero_skew_rate_defaults(self):
        ref = IsotropicGaussianMax(20, math.sqrt(2.0))
        got = [sup_distance(RademacherGaussianMax(n, 20), ref)
               for n in (100, 200, 400)]
        np.testing.assert_allclose(got, [5.33e-4, 2.66e-4, 1.33e-4], rtol=5e-3)
        assert fit_power_law([100, 200, 400], got)[0] == \
            pytest.approx(-1.00, abs=5e-3)


def test_benchmark_gates_keep_their_own_oracle():
    # the benchmark's exact oracle must stay independent of the code it checks
    assert "maxlaw" not in GATES.read_text(encoding="utf-8")


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of the package's import time; tests and the
    # benchmark gates import it as independent oracles, the package must not.
    # The package's linear algebra is numpy's, so scipy.linalg stays out too
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import hdclt.cli, sys; loaded = [m for m in ('scipy.stats', "
            "'scipy.linalg') if m in sys.modules]; assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   check=True)
