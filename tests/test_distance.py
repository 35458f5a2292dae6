import math

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import traced_peak
from distance_oracles import (brute_force_ks_to_law, empirical_cdf,
                              rect_family_distance)
from hdclt import distance
from hdclt.distance import (MaxStatSample, anticoncentration_probe,
                            ks_distance, ks_distance_with_se,
                            ks_two_sample_critical, max_stat_sample,
                            max_statistic)
from hdclt.lowerbound import threshold_xn
from hdclt.matcore import CovarianceModel
from hdclt.maxlaw import IsotropicGaussianMax, TwoPointMax, law_of
from hdclt.sampler import BLOCK_FLOATS, DistributionSpec, substream


def _gaussian_max_cdf(sigma, x):
    return float(law_of(DistributionSpec.gaussian(sigma), 1).cdf(x))


class TestInputChecks:
    @pytest.mark.parametrize("call, match", [
        (lambda: MaxStatSample(np.array([])), "at least one draw"),
        (lambda: MaxStatSample.from_draws(np.zeros((0, 3)), "one_sided"),
         "at least one draw"),
        (lambda: anticoncentration_probe(5, -0.1, reps=1000, seed=1),
         "eps must be >= 0"),
    ])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestGaussianMaxCdf:
    def test_one_dim_median(self):
        assert _gaussian_max_cdf(CovarianceModel.identity(1), 0.0) == 0.5

    def test_identity_at_e_threshold(self):
        for d in (5, 50, 200):
            p = _gaussian_max_cdf(CovarianceModel.identity(d), threshold_xn(d))
            assert p == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_near_perfect_correlation_collapses(self):
        sigma = CovarianceModel.equicorrelation(5, 0.999)
        x = 1.0
        p = _gaussian_max_cdf(sigma, x)
        # the max dominates any single coordinate, so p <= Phi(x); the
        # residual idiosyncratic noise (sd ~ 0.03) keeps p within ~0.01
        assert p <= float(ndtr(x))
        assert p >= float(ndtr(x)) - 0.02


class TestMaxStatHelper:
    # allocations outside the block slab: index arrays, row maxima, and
    # the interpreter's own bookkeeping while tracing
    SLACK_BYTES = 4_000_000

    def test_fallback_peak_memory_independent_of_d(self):
        # the quasi-Gaussian law has no sampler, so W is drawn in blocks
        for d in (10, 50):
            spec = DistributionSpec.quasi_gaussian(d)
            peak, out = traced_peak(
                lambda: max_stat_sample(spec, 100, 100_000, seed=3))
            assert peak <= (BLOCK_FLOATS * 8 + out.values.nbytes
                            + self.SLACK_BYTES)
            np.testing.assert_array_equal(
                out.values, max_stat_sample(spec, 100, 100_000, seed=3).values)

    def test_sides_and_paths(self):
        # exact inversion (identity), block fallback (negative correlation)
        for sigma in (CovarianceModel.identity(4),
                      CovarianceModel.equicorrelation(4, -0.2)):
            spec = DistributionSpec.gaussian(sigma)
            s = max_stat_sample(spec, 1, 1000, seed=4)
            assert s.size == 1000
            assert np.all(np.isfinite(s.values))


class TestSortedInversion:
    """A one-variate law inverts sorted uniforms: the draws must be those of
    the unsorted uniforms, sorted, and must come out sorted."""

    CASES = ([(DistributionSpec.two_point(2.0, 50), 250),
              (DistributionSpec.local_means(10), 500)]
             + [(DistributionSpec.gaussian(CovarianceModel.identity(d)), 1)
                for d in (1, 10, 50)])
    IDS = [f"{spec.kind}-{spec.dim}-{n}-one_sided" for spec, n in CASES]

    @pytest.mark.parametrize("spec, n", CASES, ids=IDS)
    def test_draws_are_the_unsorted_draws_sorted(self, spec, n):
        law = law_of(spec, n)
        assert law.variates == 1
        u = substream(17, 23).random((1, 20_000))[0]
        np.testing.assert_array_equal(
            max_stat_sample(spec, n, 20_000, seed=17).values,
            np.sort(law.sample(u)))

    @pytest.mark.parametrize("spec, n", CASES, ids=IDS)
    def test_inversion_does_not_decrease(self, spec, n):
        # MaxStatSample keeps a sorted input as it is, so no draw is re-sorted
        u = np.sort(np.concatenate([[0.0, 1.0 - 2.0**-53],
                                    substream(18, 23).random(200_000)]))
        x = law_of(spec, n).sample(u)
        assert np.all(x[:-1] <= x[1:])
        assert MaxStatSample(x).values is x


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

    @staticmethod
    def _searchsorted_ks(a, b):
        # oracle: both empirical CDFs at every pooled point by binary search
        pooled = np.sort(np.concatenate([a.values, b.values]), kind="mergesort")
        fa, fb = empirical_cdf(a, pooled), empirical_cdf(b, pooled)
        gaps = np.abs(fa - fb)
        k = int(np.argmax(gaps))
        se = math.sqrt(fa[k] * (1 - fa[k]) / a.size + fb[k] * (1 - fb[k]) / b.size)
        return float(gaps[k]), se

    @staticmethod
    def _case(case):
        rng = substream(31, 0)
        size_b = 30_000 if case == "unequal" else 20_000
        va = rng.standard_normal(20_000)
        vb = rng.standard_normal(size_b) + 0.02
        if case == "tied":
            # coarse rounding gives long tie runs within and across samples
            return np.round(va, 1), np.round(vb, 1)
        if case == "step":
            # an exact step law (51 atoms) against a continuous sample
            law = TwoPointMax(2.0, 50, 10)
            return law.sample(rng.random(20_000)), vb
        if case == "size_one":
            return va[:1], vb
        if case == "both_size_one":
            return va[:1], vb[:1]
        if case == "all_tied":
            return np.full(20_000, 0.5), np.round(vb, 1)
        if case == "cross_ties":
            # both samples take every one of the 9 atoms many times
            return (rng.integers(0, 9, 20_000) / 4.0,
                    rng.integers(0, 9, size_b) / 4.0)
        if case == "equal_step":
            # equal sizes, both with ties: either sample may be the one
            # searched against the other
            return np.round(va, 1), np.round(vb[:20_000], 2)
        if case == "identical":
            # every gap is 0, so the sup is at the first pooled point
            return np.round(va, 1), np.round(va, 1)
        if case.startswith("grid"):
            # small samples on a grid of 2 to 8 atoms in [0, 1); where the
            # first size is a multiple of 4, the second sample is the first
            # tiled 1 to 3 times, so every gap is 0
            rng = substream(33, int(case[4:]))
            atoms = int(rng.integers(2, 9))
            sizes = rng.integers(1, 61, 2)
            ga, gb = (rng.integers(0, atoms, size) / atoms for size in sizes)
            return (ga, np.tile(ga, 1 + sizes[1] % 3)) if sizes[0] % 4 == 0 \
                else (ga, gb)
        return va, vb

    @pytest.mark.parametrize("case", [
        "tied", "untied", "unequal", "step", "size_one", "both_size_one",
        "all_tied", "cross_ties", "equal_step", "identical",
        *(f"grid{i}" for i in range(40))])
    def test_merge_matches_searchsorted(self, case):
        va, vb = self._case(case)
        a, b = MaxStatSample(va), MaxStatSample(vb)
        assert ks_distance_with_se(a, b) == self._searchsorted_ks(a, b)
        assert ks_distance_with_se(b, a) == self._searchsorted_ks(b, a)
        # each sample against a continuous law: U(0, 1), whose CDF is exact
        # and flat outside [0, 1], where a point below v_k may repeat v_(k-1)
        for x in (a, b):
            assert ks_distance_with_se(x, _Uniform()) == \
                brute_force_ks_to_law(x.values, _Uniform().cdf)

    def test_equal_gaps_take_the_first_pooled_point(self):
        # |F_a - F_b| is 1/2 at x = 0 (F_a = 1/2, F_b = 0) and again at x = 1
        # (F_a = 1, F_b = 1/2); a merge reads the se at x = 0
        a = MaxStatSample(np.array([0.0, 0.0, 1.0, 1.0]))
        b = MaxStatSample(np.array([1.0, 5.0]))
        assert ks_distance_with_se(a, b) == (0.5, 0.25)
        assert ks_distance_with_se(b, a) == (0.5, 0.25)

    @staticmethod
    def _peak_bytes(a, b):
        # in either argument order, so the smaller sample is the one scanned
        return max(traced_peak(lambda: ks_distance_with_se(x, y))[0]
                   for x, y in ((a, b), (b, a)))

    def test_peak_memory(self):
        # a step-law sample has at most n + 1 distinct values, and nothing of
        # the pooled size is built: the pooled merge this replaced held
        # 64.1 MB here
        step = MaxStatSample(TwoPointMax(2.0, 1000, 50).sample(
            substream(32, 0).random(200_000)))
        ref = MaxStatSample(IsotropicGaussianMax(50).sample(
            substream(32, 1).random(2_000_000)))
        assert self._peak_bytes(step, ref) < 1_000_000
        # continuous samples: no more than the merge's 12.9 MB
        rng = substream(32, 2)
        a = MaxStatSample(rng.standard_normal(200_000))
        b = MaxStatSample(rng.standard_normal(200_000))
        assert self._peak_bytes(a, b) <= 12_900_000

    def test_critical_value_formula(self):
        r = 100_000
        assert ks_two_sample_critical(r, r, alpha=0.01) == pytest.approx(
            math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2.0 / r), rel=1e-12)
        assert ks_two_sample_critical(r, r, alpha=0.01) == pytest.approx(
            1.6276 * math.sqrt(2.0 / r), abs=1e-5)

    @pytest.mark.parametrize("case, pinned", [
        ("continuous", (0.021199999999999997, 0.010921158912862682)),
        ("tied", (0.03600000000000003, 0.00992486145999026))])
    def test_two_sample_values_pinned(self, case, pinned):
        # recorded before a law could stand in for the second sample: the
        # two-sample path, which bootstrap_agreement takes, moves no bit
        rng = substream(41, 0)
        samples = {"continuous": (rng.standard_normal(3000),
                                  rng.standard_normal(5000) + 0.05)}
        samples["tied"] = (np.round(rng.standard_normal(4000), 1),
                           np.round(rng.standard_normal(4000) + 0.03, 2))
        a, b = (MaxStatSample(x) for x in samples[case])
        assert ks_distance_with_se(a, b) == pinned
        assert ks_distance(b, a) == pinned[0]

    def test_critical_values_pinned(self):
        assert [ks_two_sample_critical(100_000, 100_000),
                ks_two_sample_critical(2000, 4000),
                ks_two_sample_critical(3, 7, alpha=0.05)] == [
            0.007278954160144188, 0.04457430888365532, 0.9371790821032497]

    def test_one_sample_critical_value_is_the_limit(self):
        c = math.sqrt(-math.log(0.005) / 2.0)
        assert ks_two_sample_critical(2000, math.inf) == c / math.sqrt(2000)
        assert ks_two_sample_critical(2000, 10**12) == pytest.approx(
            ks_two_sample_critical(2000, math.inf), rel=1e-9)


class _Uniform:
    """The uniform law on [0, 1], whose CDF at dyadic points is exact."""

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


class TestKsToLaw:
    @staticmethod
    def _counted(law):
        # the law, and the points its CDF was asked for
        seen = []

        class Counted:
            def cdf(self, x):
                seen.append(np.array(x))
                return law.cdf(x)
        return Counted(), seen

    @pytest.mark.parametrize("n, seed", [(5, 0), (5, 1), (50, 2), (1000, 3)])
    def test_step_sample_matches_brute_force(self, n, seed):
        # a TwoPointMax W takes at most n + 1 values, so its draws tie
        step = TwoPointMax(2.0, n, 20)
        values = np.sort(step.sample(substream(seed, 7).random(5000)))
        ref = IsotropicGaussianMax(20)
        law, seen = self._counted(ref)
        assert ks_distance_with_se(MaxStatSample(values), law) == \
            brute_force_ks_to_law(values, ref.cdf)
        # the CDF is taken once per distinct value, at most n + 1 of them
        (points,) = seen
        np.testing.assert_array_equal(points, np.unique(values))
        assert points.size <= n + 1

    @pytest.mark.parametrize("shift", [0.0, 0.05, 3.0, -3.0])
    def test_continuous_sample_matches_brute_force(self, shift):
        values = substream(42, 0).standard_normal(20_000) + shift
        law = IsotropicGaussianMax(1)
        dist, se = ks_distance_with_se(MaxStatSample(values), law)
        assert (dist, se) == brute_force_ks_to_law(values, law.cdf)
        assert ks_distance(MaxStatSample(values), law) == dist

    def test_standard_error_at_the_sup_point(self):
        # draws 0.25 and 0.5 of U(0, 1): the gaps are 0.25 below 0.25,
        # 0.25 at it, 0 below 0.5 and 0.5 at 0.5, where F = 1/2
        dist, se = ks_distance_with_se(MaxStatSample(np.array([0.25, 0.5])),
                                       _Uniform())
        assert dist == 0.5 and se == math.sqrt(0.5 * 0.5 / 2)

    @pytest.mark.parametrize("values, dist, f", [
        # at 0.125 (F = 1/8) and at 0.625 (F = 5/8): both 3/8
        ([0.125, 0.625], 0.375, 0.125),
        # below 0.375 (F = 3/8) and below 0.875 (F = 7/8): both 3/8
        ([0.375, 0.875], 0.375, 0.375),
        # at 1/16 (1/4 - 1/16), then below 11/16 (11/16 - 1/2): both 3/16
        ([0.0625, 0.3125, 0.6875, 0.8125], 0.1875, 0.0625),
        # below 1/2 (1/2 - 1/4), then at 3/4 (1 - 3/4): both 1/4
        ([0.0625, 0.5, 0.5625, 0.75], 0.25, 0.5)])
    def test_equal_gaps_take_the_earlier_point(self, values, dist, f):
        values = np.array(values)
        got = ks_distance_with_se(MaxStatSample(values), _Uniform())
        assert got == (dist, math.sqrt(f * (1 - f) / values.size))
        assert got == brute_force_ks_to_law(values, _Uniform().cdf)


class TestBracketedKs:
    """The one-sample KS takes the law's CDF only where its sup can lie; its
    distance and standard error must be those of the CDF at every draw."""

    STRIDE = distance._KS_STRIDES[0]
    LAW = IsotropicGaussianMax(10)

    def _check(self, values):
        values = np.sort(values)
        got = ks_distance_with_se(MaxStatSample(values), self.LAW)
        assert repr(got) == repr(brute_force_ks_to_law(values, self.LAW.cdf))

    @pytest.mark.parametrize("size", [1, 2, STRIDE - 1, STRIDE, STRIDE + 1,
                                      STRIDE + 2, 2 * STRIDE - 1, 2 * STRIDE,
                                      2 * STRIDE + 1, 2 * STRIDE + 2, 1000,
                                      200_000])
    def test_sizes(self, size):
        u = substream(size, 0).random(size)
        for shift in (0.0, 0.02, 0.5):
            self._check(self.LAW.sample(u) + shift)

    @pytest.mark.parametrize("decimals", [0, 1, 2, 3])
    def test_heavy_ties(self, decimals):
        x = self.LAW.sample(substream(decimals, 1).random(200_000))
        self._check(np.round(x, decimals))
        self._check(np.round(x[:500], decimals))

    @pytest.mark.parametrize("size", [1, 1000])
    def test_all_equal(self, size):
        self._check(np.full(size, 1.5))

    @pytest.mark.parametrize("shift", [-12.0, 12.0])
    def test_far_tails(self, shift):
        # F is about 0 (or 1) at every draw, so the sup sits at the last
        # (or first) distinct value, a knot
        x = self.LAW.sample(substream(3, 2).random(5000)) + shift
        self._check(x)
        self._check(np.round(x, 1))

    def test_atom_beside_a_shifted_stretch(self):
        # one value holds 2-20% of the draws, and the draws below a random
        # quantile are shifted: the sup lies in the shifted stretch, while
        # a passed-over block may hold the atom's step, larger than the sup
        rng = substream(5, 3)
        for _ in range(50):
            size = int(rng.integers(200, 3000))
            x = self.LAW.sample(rng.random(size))
            cut = np.quantile(x, rng.uniform(0.1, 0.9))
            x = np.where(x < cut, x + rng.uniform(-0.3, 0.3), x)
            atom = rng.choice(size, int(rng.uniform(0.02, 0.2) * size),
                              replace=False)
            x[atom] = np.quantile(x, rng.uniform(0.05, 0.95))
            self._check(x)

    def test_random_cases(self):
        rng = substream(4, 3)
        for _ in range(100):
            size = int(10.0 ** rng.uniform(0.0, 5.0))
            x = (self.LAW.sample(rng.random(size)) * rng.uniform(0.9, 1.1)
                 + rng.normal(0.0, 0.05))
            decimals = rng.integers(0, 5)
            self._check(np.round(x, decimals) if decimals < 4 else x)


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
        with pytest.raises(ValueError, match="draw dimensions differ"):
            rect_family_distance(self._draws(6, d=2), self._draws(7, d=3))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            rect_family_distance(self._draws(8), self._draws(9), "diagonal")


class TestAnticoncentration:
    def test_zero_eps_is_zero(self):
        probe = anticoncentration_probe(5, 0.0, reps=10_000, seed=1)
        assert probe == 0.0

    def test_identity_d100_below_nazarov_shape(self):
        probe = anticoncentration_probe(100, 0.1, reps=1_000_000, seed=2)
        assert probe <= 2.0 * 0.1 * math.sqrt(math.log(100))

    def test_near_linear_in_eps(self):
        small = anticoncentration_probe(20, 0.05, reps=400_000, seed=3)
        large = anticoncentration_probe(20, 0.10, reps=400_000, seed=3)
        assert 1.5 <= large / small <= 2.5


class TestMaxStatSample:
    def test_sorted_and_sided(self):
        s = MaxStatSample(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
        assert empirical_cdf(s, 2.0) == pytest.approx(2.0 / 3.0)

    def test_two_sided_uses_absolute_values(self):
        draws = np.array([[-5.0, 1.0], [0.5, -0.2]])
        s = MaxStatSample.from_draws(draws, "two_sided")
        np.testing.assert_array_equal(s.values, [0.5, 5.0])

    def test_statistic_rejects_unknown_side(self):
        # a misspelt two-sided tag must not fall back to max_j draw_j
        with pytest.raises(ValueError):
            max_statistic(np.array([[-5.0, 1.0]]), "two-sided")

    def test_sorted_input_is_kept_read_only(self):
        values = np.sort(substream(3, 1).standard_normal(1000))
        expected = MaxStatSample(values.copy()[::-1]).values
        s = MaxStatSample(values)
        assert s.values is values and not values.flags.writeable
        np.testing.assert_array_equal(s.values, expected)

    @pytest.mark.parametrize("values", [
        np.array([3.0, 1.0, 2.0]),
        np.array([[1.0, 2.0], [0.5, 3.0]]),
        np.array([1.0, np.nan, 2.0]),
        np.array([1, 2, 3])], ids=["unsorted", "2d", "nan", "int"])
    def test_other_input_is_sorted_into_a_copy(self, values):
        before = values.copy()
        s = MaxStatSample(values)
        assert s.values is not values and not s.values.flags.writeable
        np.testing.assert_array_equal(s.values, np.sort(before.ravel()))
        np.testing.assert_array_equal(values, before)
        assert values.flags.writeable
