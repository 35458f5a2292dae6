import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdclt.bounds import (bound_bounded, bound_gaussian_comparison,
                          bounds_local_means, delta0, xlog_factor)
from hdclt.matcore import CovarianceModel


class TestInputChecks:
    @pytest.mark.parametrize("call, match", [
        (lambda: xlog_factor(-0.5), "expects x >= 0"),
        (lambda: bound_gaussian_comparison(-0.5, 10), "D must be nonnegative"),
        # NaN fails a "< 0" guard, so each guard asks ">= 0" instead
        pytest.param(lambda: xlog_factor(math.nan), "expects x >= 0",
                     id="xlog_factor-nan"),
        pytest.param(lambda: bound_gaussian_comparison(math.nan, 10),
                     "D must be nonnegative", id="gaussian_comparison-nan"),
        (lambda: bounds_local_means(100, 1), "requires d >= 2, n >= 3"),
        (lambda: bounds_local_means(2, 10), "requires d >= 2, n >= 3"),
    ])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestXlogFactor:
    def test_values(self):
        assert xlog_factor(0.0) == 0.0
        assert xlog_factor(1.0) == 1.0
        assert xlog_factor(math.exp(-3.0)) == pytest.approx(3.0 * math.exp(-3.0))
        assert xlog_factor(0.5) == pytest.approx(0.5)  # |log 0.5| < 1

    @given(st.floats(1e-12, 1e12))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_monotone_at_large_x(self, x):
        assert xlog_factor(x) >= 0.0
        if x >= 1.0:
            assert xlog_factor(2 * x) >= xlog_factor(x)


class TestDelta0:
    def test_equal_matrices_give_zero(self):
        s = CovarianceModel.equicorrelation(4, 0.3)
        assert delta0(s, s, 4) == 0.0

    def test_local_means_pair_closed_form(self):
        # the surrogate diagonal 1/(1 - p) sits p/(1 - p) = 0.1 above the
        # unit diagonal of Sigma_W, and the off-diagonal gap is p/(1 - p)
        d = 11
        p = 1.0 / d
        sigma_w = CovarianceModel.local_means(d)
        surrogate = CovarianceModel(np.eye(d) / (1.0 - p))
        value = delta0(surrogate, sigma_w, d)
        assert value == pytest.approx(math.log(11) * 0.1, rel=1e-12)


class TestCorollarySimple:
    def test_e1_closed_form(self):
        value = bound_bounded(10_000, 100, 2.0)
        expected = 2.0 * math.log(100) ** 1.5 * math.log(10_000) / 100.0
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1.8204, abs=5e-4)


class TestGaussianComparison:
    def test_zero_gap(self):
        assert bound_gaussian_comparison(0.0, 10) == 0.0

    def test_unit_ratio(self):
        assert bound_gaussian_comparison(1.0, 10) == pytest.approx(
            math.log(10))

    def test_small_ratio_log_kicks_in(self):
        value = bound_gaussian_comparison(math.exp(-3.0), math.e)
        assert value == pytest.approx(3.0 * math.exp(-3.0), rel=1e-12)


class TestLocalMeansBounds:
    def test_combined_vanishes_along_feasible_growth(self):
        # fixed d: the combined bound decays monotonically in n
        values = [bounds_local_means(n, 50)[0]
                  for n in (10**6, 10**9, 10**12)]
        assert values[0] > values[1] > values[2]
        # d = n / (log n)^6 keeps d (log n)^5 / n -> 0, so the bound is
        # small at the far end even though d itself grows
        n = 10**12
        d = int(n / math.log(n) ** 6)
        assert bounds_local_means(n, d)[0] < 0.1

    def test_prior_diverges_along_sqrt_growth(self):
        values = [bounds_local_means(n, int(math.sqrt(n)))[1]
                  for n in (10**6, 10**9, 10**12)]
        assert values[0] < values[1] < values[2]
        assert values[-1] > 1.0
