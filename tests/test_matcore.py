import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdclt.errors import (DegenerateRectangle, DimensionMismatch,
                          NotPositiveDefinite)
from hdclt.matcore import (CovarianceModel, RectangleSpec, _cholesky_lower,
                           enlarge, sup_norm_diff)


class TestCholesky:
    def test_identity_factor_is_identity(self):
        assert np.array_equal(CovarianceModel.identity(3).chol, np.eye(3))

    def test_two_by_two_closed_form(self):
        s = CovarianceModel([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        np.testing.assert_allclose(s.chol, expected, atol=1e-12)
        np.testing.assert_allclose(s.chol @ s.chol.T, s.entries, atol=1e-12)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues {3, -1}: fails the PSD gate at construction
        with pytest.raises(ValueError):
            CovarianceModel([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            _cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_matrix_has_no_factor(self):
        s = CovarianceModel.local_means(5)
        with pytest.raises(NotPositiveDefinite):
            s.chol

    @given(st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        s = CovarianceModel(a @ a.T + 0.1 * np.eye(d))
        low = s.chol
        np.testing.assert_allclose(low @ low.T, s.entries, atol=1e-10)
        assert np.allclose(np.triu(low, 1), 0.0)


class TestMinEigenvalue:
    def test_identity(self):
        assert CovarianceModel.identity(7).min_eig == pytest.approx(1.0)

    def test_equicorrelation(self):
        # eigenvalues are 1 - rho (multiplicity d-1) and 1 + (d-1) rho
        s = CovarianceModel.equicorrelation(3, 0.5)
        assert s.min_eig == pytest.approx(0.5, abs=1e-12)

    def test_local_means_exactly_singular(self):
        for d in (5, 11, 40):
            assert abs(CovarianceModel.local_means(d).min_eig) < 1e-9

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        m = a @ a.T
        s = CovarianceModel(m)
        assert s.min_eig == pytest.approx(np.linalg.eigvalsh(m)[0], rel=1e-10)


class TestSupNormDiff:
    def test_self_distance_zero(self):
        s = CovarianceModel.equicorrelation(4, 0.2)
        assert sup_norm_diff(s, s) == 0.0

    def test_local_means_vs_scaled_identity(self):
        # sup-norm gap to (1/(1-p)) I equals p/(1-p) = 1/(d-1)
        for d in (5, 11):
            p = 1.0 / d
            s = CovarianceModel.local_means(d)
            q = CovarianceModel(np.eye(d) / (1.0 - p))
            assert sup_norm_diff(s, q) == pytest.approx(1.0 / (d - 1), rel=1e-12)

    def test_single_off_diagonal(self):
        s = CovarianceModel.identity(2)
        q = CovarianceModel([[1.0, 0.3], [0.3, 1.0]])
        assert sup_norm_diff(s, q) == pytest.approx(0.3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sup_norm_diff(CovarianceModel.identity(2), CovarianceModel.identity(3))

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        s = CovarianceModel(a @ a.T)
        q = CovarianceModel(b @ b.T)
        assert sup_norm_diff(s, q) == sup_norm_diff(q, s)
        assert sup_norm_diff(s, q) >= 0.0


class TestRectangles:
    def test_enlarge_by_zero_is_identity(self):
        r = RectangleSpec([0.0, 0.0], [1.0, 1.0])
        assert enlarge(r, 0.0) == r

    def test_enlarge_moves_both_endpoints(self):
        r = enlarge(RectangleSpec([0.0], [1.0]), 0.5)
        assert r == RectangleSpec([-0.5], [1.5])

    def test_shrink_past_crossing_raises(self):
        with pytest.raises(DegenerateRectangle):
            enlarge(RectangleSpec([0.0], [1.0]), -0.6)

    def test_infinite_endpoints_stay_infinite(self):
        r = enlarge(RectangleSpec.one_sided(2, 1.0), 3.0)
        assert np.all(np.isinf(r.lower))
        np.testing.assert_array_equal(r.upper, [4.0, 4.0])

    def test_contains_half_open(self):
        r = RectangleSpec([0.0], [1.0])
        member = r.contains(np.array([[0.0], [0.5], [1.0], [1.5]]))
        np.testing.assert_array_equal(member, [False, True, True, False])

    def test_invalid_rectangles(self):
        with pytest.raises(DegenerateRectangle):
            RectangleSpec([1.0], [0.0])
        with pytest.raises(ValueError):
            RectangleSpec([np.nan], [1.0])

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_enlarge_composes_additively(self, s, t):
        r = RectangleSpec([-1.0, 0.0], [1.0, 2.0])
        lhs = enlarge(enlarge(r, s), t)
        rhs = enlarge(r, s + t)
        np.testing.assert_allclose(lhs.lower, rhs.lower, atol=1e-12)
        np.testing.assert_allclose(lhs.upper, rhs.upper, atol=1e-12)
