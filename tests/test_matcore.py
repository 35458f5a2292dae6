import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hdclt.errors import NotPositiveDefinite
from hdclt.matcore import (CovarianceModel, RectangleSpec, _cholesky_lower,
                           sup_norm_diff)
from smoothing_oracles import contains


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

    def test_matches_outer_product_reference(self):
        # the textbook outer-product loop, kept as the reference factor
        def reference(m):
            a = np.array(m, dtype=float)
            for k in range(a.shape[0]):
                a[k, k] = np.sqrt(a[k, k])
                a[k + 1:, k] /= a[k, k]
                a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k + 1:, k])
            return np.tril(a)

        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8))
        models = [CovarianceModel.equicorrelation(10, rho)
                  for rho in (0.05, 0.1, 0.2)]
        models.append(CovarianceModel(a @ a.T + 0.1 * np.eye(8)))
        for s in models:
            np.testing.assert_allclose(s.chol, reference(s.entries),
                                       rtol=0, atol=1e-12)


class TestValidation:
    @pytest.mark.parametrize("entries, match", [
        (np.ones((2, 3)), "expected a square matrix"),
        (np.ones(3), "expected a square matrix"),
        ([[1.0, np.nan], [np.nan, 1.0]], "entries must be finite"),
        ([[1.0, np.inf], [np.inf, 1.0]], "entries must be finite"),
        ([[1.0, 0.5], [0.4, 1.0]], "not symmetric within 1e-12")])
    def test_invalid_covariance_rejected(self, entries, match):
        with pytest.raises(ValueError, match=match):
            CovarianceModel(entries)


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
        assert s.min_eig == pytest.approx(scipy.linalg.eigh(m)[0][0], rel=1e-10)


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
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
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
    def test_contains_half_open(self):
        r = RectangleSpec([0.0], [1.0])
        member = contains(r, np.array([[0.0], [0.5], [1.0], [1.5]]))
        np.testing.assert_array_equal(member, [False, True, True, False])

    def test_invalid_rectangles(self):
        with pytest.raises(ValueError,
                           match="lower_j > upper_j for some coordinate"):
            RectangleSpec([1.0], [0.0])
        with pytest.raises(ValueError):
            RectangleSpec([np.nan], [1.0])

    @pytest.mark.parametrize("lower, upper", [([0.0, 0.0], [1.0]),
                                              ([0.0], [1.0, 1.0])])
    def test_bounds_of_unequal_length(self, lower, upper):
        with pytest.raises(ValueError, match="1-d vectors of equal length"):
            RectangleSpec(lower, upper)
