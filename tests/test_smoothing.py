import collections
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from hdclt import sampler, smoothing
from hdclt.errors import QuadratureNotConverged
from hdclt.matcore import RectangleSpec
from hdclt.runner import ExperimentConfig, run
from hdclt.smoothing import (SmoothingParams, derivative_sum, gaussian_pdf,
                             h_nu, hermite_coefficients, rho_eval, rho_partial,
                             verify_lemmas)
from smoothing_oracles import (contains, h_derivative_coefficient_check,
                               m_indicator, rho_eval_mc)

REFERENCE_CSV = (Path(__file__).resolve().parents[1] / "perfbench"
                 / "reference" / "smoothing_verify.csv")


def _params(d=1, lower=None, upper=None, phi=math.inf, eps=1.0):
    lower = np.full(d, -np.inf) if lower is None else np.asarray(lower, float)
    upper = np.zeros(d) if upper is None else np.asarray(upper, float)
    return SmoothingParams(rect=RectangleSpec(lower, upper), phi=phi, eps=eps)


def _first_partials_sum(w, params):
    """S_1(w) without the perturbation ball: sum_j |d rho / d w_j| at w."""
    return sum(abs(rho_partial(w, (j,), params)) for j in range(params.d))


class TestHermite:
    def test_derivative_identity_on_coefficients(self):
        for nu in range(1, 6):
            assert h_derivative_coefficient_check(nu)

    def test_first_function_is_gaussian_density(self):
        t = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(h_nu(1, t), gaussian_pdf(t), atol=1e-15)

    def test_vanishes_at_infinity(self):
        assert h_nu(3, np.array([np.inf, -np.inf])).tolist() == [0.0, 0.0]

    def test_low_order_coefficients(self):
        np.testing.assert_allclose(hermite_coefficients(2), [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(hermite_coefficients(3), [0.0, -3.0, 0.0, 1.0])


class TestInputChecks:
    @pytest.mark.parametrize("phi, eps, match", [
        (0.0, 1.0, "phi must be > 0"), (-2.0, 1.0, "phi must be > 0"),
        (4.0, 0.0, "eps must be > 0"), (math.inf, -0.5, "eps must be > 0")])
    def test_smoothing_params_reject_nonpositive_scales(self, phi, eps, match):
        with pytest.raises(ValueError, match=match):
            _params(phi=phi, eps=eps)

    @pytest.mark.parametrize("call, match", [
        (lambda: hermite_coefficients(-1), "nu must be >= 0"),
        (lambda: h_nu(0, np.zeros(3)), "nu must be >= 1")])
    def test_hermite_orders_below_range(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_verify_lemmas_rejects_d_below_two(self):
        # the attained constants divide by powers of log d, which is 0 at d = 1
        with pytest.raises(ValueError, match="d >= 2"):
            verify_lemmas([2, 1], [1], [math.inf], [1.0])

    @pytest.mark.parametrize("multi_index", [(2,), (-1,), (0, 5)])
    def test_partial_coordinate_out_of_range(self, multi_index):
        params = _params(d=2, lower=[-1.0] * 2, upper=[1.0] * 2)
        with pytest.raises(IndexError, match="out of range for d=2"):
            rho_partial([0.0, 0.0], multi_index, params)


def _ramp(margin, phi):
    """m_indicator on the 1-d rectangle (-inf, 0], where the margin of w is w."""
    return m_indicator([margin], _params(phi=phi))


class TestRamp:
    def test_anchor_values(self):
        phi = 4.0
        assert _ramp(0.0, phi) == 1.0
        assert _ramp(1.0 / (2 * phi), phi) == pytest.approx(0.5)
        assert _ramp(2.0 / phi, phi) == 0.0

    def test_indicator_limit(self):
        # at phi = inf the ramp is 1{margin <= 0}; 1 - inf * 0 would be NaN
        assert _ramp(0.0, math.inf) == 1.0
        assert _ramp(1e-12, math.inf) == 0.0


class TestSmoothedIndicator:
    def test_deep_inside(self):
        params = _params(d=2, lower=[-1.0, -1.0], upper=[1.0, 1.0], phi=5.0)
        assert m_indicator([0.0, 0.0], params) == 1.0

    def test_ramp_midpoint(self):
        phi = 5.0
        params = _params(d=1, lower=[-1.0], upper=[1.0], phi=phi)
        assert m_indicator([1.0 + 1.0 / (2 * phi)], params) == pytest.approx(0.5)

    def test_sandwich_between_indicators(self):
        phi = 3.0
        rect = RectangleSpec([-1.0, 0.0], [1.0, 2.0])
        params = SmoothingParams(rect=rect, phi=phi, eps=1.0)
        outer = RectangleSpec(rect.lower - 1.0 / phi, rect.upper + 1.0 / phi)
        rng = np.random.default_rng(11)
        w = rng.uniform(-3, 4, size=(1000, 2))
        m_vals = m_indicator(w, params)
        inner = contains(rect, w).astype(float)
        assert np.all(inner <= m_vals + 1e-12)
        assert np.all(m_vals <= contains(outer, w).astype(float) + 1e-12)

    @pytest.mark.parametrize("phi", [3.0, math.inf])
    def test_array_equals_row_by_row(self, phi):
        params = _params(d=4, lower=[-1.0] * 4, upper=[1.0] * 4, phi=phi)
        w = np.random.default_rng(5).uniform(-1.5, 1.5, size=(1000, 4))
        vals = m_indicator(w, params)
        assert vals.shape == (1000,)
        assert vals.tolist() == [float(m_indicator(p, params)) for p in w]

    def test_indicator_limit_in_one_array(self):
        # margins 0, 1e-12 and -1 at phi = inf: no NaN from inf * 0
        vals = m_indicator(np.array([[0.0], [1e-12], [-1.0]]), _params())
        assert vals.tolist() == [1.0, 0.0, 1.0]


class TestRhoEval:
    def test_half_line_at_origin(self):
        assert rho_eval([0.0], _params()) == pytest.approx(0.5, abs=1e-14)

    def test_half_line_far_left(self):
        assert rho_eval([-30.0], _params()) == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(23)
        for phi in (4.0, math.inf):
            params = _params(d=3, lower=[-1.0] * 3, upper=[1.0] * 3,
                             phi=phi, eps=0.7)
            for k in range(5):
                w = rng.uniform(-1.5, 1.5, size=3)
                exact = rho_eval(w, params)
                mc, se = rho_eval_mc(w, params, reps=400_000, seed=100 + k)
                assert exact == pytest.approx(mc, abs=4 * se + 1e-6)

    @pytest.mark.parametrize("phi, seed, want", [
        (4.0, 0, (0.43140874495689097, 0.004598549049204689)),
        (4.0, 101, (0.4388035845129141, 0.004632278326545549)),
        (math.inf, 0, (0.3334, 0.004714516588863239)),
        (math.inf, 101, (0.3416, 0.00474269894884041))])
    def test_monte_carlo_pinned(self, phi, seed, want):
        # pinned by repr: the draws are substream 30's standard normals
        params = _params(d=3, lower=[-1.0] * 3, upper=[1.0] * 3, phi=phi,
                         eps=0.7)
        got = rho_eval_mc([0.5, -0.25, 0.9], params, reps=10_000, seed=seed)
        assert repr(got) == repr(want)


class TestRhoPartial:
    def test_half_line_first_derivative(self):
        value = rho_partial([0.0], (0,), _params())
        assert value == pytest.approx(-norm.pdf(0.0), abs=1e-12)
        assert value == pytest.approx(-0.3989423, abs=1e-7)

    def test_odd_derivative_vanishes_by_symmetry(self):
        params = _params(d=1, lower=[-1.0], upper=[1.0], phi=math.inf)
        assert abs(rho_partial([0.0], (0,), params)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        params = _params(d=3, lower=[-1.2] * 3, upper=[1.2] * 3,
                         phi=6.0, eps=0.8)
        h = 1e-4
        for _ in range(8):
            w = rng.uniform(-1.5, 1.5, size=3)
            j = int(rng.integers(0, 3))
            exact = rho_partial(w, (j,), params)
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (rho_eval(wp, params) - rho_eval(wm, params)) / (2 * h)
            assert exact == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="total order 7 exceeds cap 6"):
            rho_partial([0.0], (0,) * 7, _params())


class TestDerivativeSum:
    def test_far_tail_vanishes(self):
        params = _params(d=1)
        assert _first_partials_sum([-20.0], params) <= 1e-80

    def test_phi_linearity_in_the_ramp_regime(self):
        # S_1 grows linearly in phi while 1/phi stays above the h_1 peak
        # scale of the eps-convolution (phi * eps well below ~0.24)
        params = lambda phi: _params(d=3, lower=[-1.5] * 3, upper=[1.5] * 3,
                                     phi=phi, eps=1.0 / 1024)
        w = np.full(3, 1.5)
        s_lo = _first_partials_sum(w, params(64.0))
        s_hi = _first_partials_sum(w, params(128.0))
        assert 1.6 <= s_hi / s_lo <= 2.4

    def test_eps_scaling_at_indicator_limit(self):
        # S_2 at phi=inf scales like (1/eps)^2 at the rectangle corner
        w = np.full(2, 1.0)
        s_big = derivative_sum(2, w, _params(d=2, lower=[-1.0] * 2,
                                             upper=[1.0] * 2, eps=0.25))
        s_small = derivative_sum(2, w, _params(d=2, lower=[-1.0] * 2,
                                               upper=[1.0] * 2, eps=0.125))
        assert 3.2 <= s_small / s_big <= 4.8

    def test_budget(self):
        params = _params(d=11, lower=[-1.0] * 11, upper=[1.0] * 11)
        with pytest.raises(ValueError,
                           match=r"d\^v = 14641 exceeds budget 10000"):
            derivative_sum(4, np.zeros(11), params)
        with pytest.raises(ValueError):
            derivative_sum(5, np.zeros(11), params)

    def test_perturbation_grid_shapes(self):
        assert _params(d=2, upper=np.ones(2), lower=-np.ones(2),
                       ).perturbations().shape == (5, 2)
        p7 = _params(d=7, upper=np.ones(7), lower=-np.ones(7))
        assert p7.perturbations().shape == (15, 7)


class TestVerifySweep:
    def test_c62_stable_and_decay(self):
        rows = verify_lemmas([3], [1, 2], [math.inf], [1.0, 0.5, 0.25])
        for v in (1, 2):
            vals = [r["attained_C62"] for r in rows if r["v"] == v]
            assert max(vals) / min(vals) <= 2.0
        eta = 4.0 / math.sqrt(math.log(3))
        floor = math.exp((4.0 - eta) ** 2 / 8.0)
        assert all(r["decay_ratio"] >= floor for r in rows if r["v"] == 1)

    def test_c61_stable_in_linear_regime(self):
        rows = verify_lemmas([3], [1], [4.0, 8.0], [1.0 / 256])
        vals = [r["attained_C61"] for r in rows]
        assert max(vals) / min(vals) <= 2.0

    def test_summary_carries_boundary_derivative_sums(self, tmp_path):
        # S_v, the boundary-grid max of derivative_sum behind both attained
        # constants, rides in summary.json in CSV row order, not in the CSV
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "smoothing_verify", "phi_list": [8.0],
             "eps_list": [0.5], "d_list": [2]})
        manifest = run(cfg, out_dir=str(tmp_path))
        assert "S_v" not in Path(manifest.csv_paths[0]).read_text()
        rows = verify_lemmas([2], [1, 2], [8.0], [0.5])
        assert manifest.summary["S_v"] == [r["S_v"] for r in rows]
        params = _params(d=2, lower=[-1.5] * 2, upper=[1.5] * 2, phi=8.0,
                         eps=0.5)
        assert rows[1]["S_v"] == max(
            derivative_sum(2, w, params)
            for w in smoothing._boundary_w_grid(params.rect))
        assert rows[0]["attained_C61"] * 8.0 == pytest.approx(
            rows[0]["S_v"], abs=1e-12)


class TestBatchedQuadrature:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("v", [1, 2])
    @pytest.mark.parametrize("phi", [8.0, math.inf])
    def test_derivative_sum_equals_partials(self, d, v, phi):
        params = _params(d=d, lower=[-1.5] * d, upper=[1.5] * d, phi=phi,
                         eps=0.5)
        w = np.full(d, 1.5)
        expected = 0.0
        for combo in itertools.combinations_with_replacement(range(d), v):
            mult = math.factorial(v)
            for c in collections.Counter(combo).values():
                mult //= math.factorial(c)
            expected += mult * max(abs(rho_partial(w + y, combo, params))
                                   for y in params.perturbations())
        assert derivative_sum(v, w, params) == expected

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("phi", [8.0, math.inf])
    def test_sweep_rows_are_derivative_sums(self, d, phi):
        # one batched quadrature per cell gives each row the S_v and the
        # decay ratio of single derivative_sum calls, bit for bit
        rows = verify_lemmas([d], [1, 2], [phi], [0.5])
        params = _params(d=d, lower=[-1.5] * d, upper=[1.5] * d, phi=phi,
                         eps=0.5)
        margin = 2.0 * 0.5 * 4.0 + (0.0 if math.isinf(phi) else 1.0 / phi)
        w_far = np.full(d, 1.5) + margin + 1e-9
        for row, v in zip(rows, (1, 2)):
            s_v = max(derivative_sum(v, w, params)
                      for w in smoothing._boundary_w_grid(params.rect))
            assert row["v"] == v and row["S_v"] == s_v
            assert row["decay_ratio"] == s_v / derivative_sum(v, w_far, params)

    @pytest.mark.parametrize("budget", [sampler.BLOCK_FLOATS, 1])
    def test_batched_sums_equal_single_calls(self, monkeypatch, budget):
        # at a block budget of 1 float every w is its own quadrature
        monkeypatch.setattr(sampler, "BLOCK_FLOATS", budget)
        params = _params(d=3, lower=[-1.5] * 3, upper=[1.5] * 3, phi=8.0,
                         eps=0.25)
        ws = [np.zeros(3), np.full(3, 1.5), [1.5, 0.0, -0.7], np.full(3, 4.0)]
        sums = smoothing._derivative_sums([2, 1, 3], ws, params)
        assert sums.tolist() == [[derivative_sum(v, w, params) for w in ws]
                                 for v in (2, 1, 3)]

    def test_hermite_coefficients_cached_read_only(self):
        c = hermite_coefficients(4)
        assert hermite_coefficients(4) is c and not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 0.0

    def test_rows_converge_independently(self):
        # exp converges within a few doublings; the endpoint singularity of
        # s**1.5 needs more (it settles at 128 nodes), and must not change
        # the exp row's value
        def slow(s):
            return s**1.5

        both = smoothing._quadrature(
            lambda s: np.vstack([np.exp(s), slow(s)]), 1.0, 32)
        alone = [smoothing._quadrature(lambda s: f(s)[None], 1.0, 32)[0]
                 for f in (np.exp, slow)]
        assert both.tolist() == alone
        assert both[0] == pytest.approx(math.e - 1.0, rel=1e-14)
        assert both[1] == pytest.approx(0.4, rel=1e-10)

    def test_row_values_are_single_row_dot_products(self):
        # each row value equals np.dot(weights, row) of that row alone, bit
        # for bit: on random rows, and as the values _quadrature keeps for
        # random cubics, which every order integrates exactly, so each row
        # converges at the second order it tries
        rng = np.random.default_rng(29)
        for order in rng.integers(7, 513, size=40).tolist():
            nodes, weights = smoothing._gauss_legendre(order)
            rows = rng.standard_normal((int(rng.integers(1, 50)), order))
            assert np.vecdot(rows, weights).tolist() == [
                float(np.dot(weights, row)) for row in rows]
            if order % 2:
                continue

            def cubics(s, coef=rng.standard_normal((len(rows), 4))):
                return coef @ np.vander(s, 4, increasing=True).T

            want = [0.5 * 2.0 * float(np.dot(weights, row))
                    for row in cubics(nodes + 1.0)]
            got = smoothing._quadrature(cubics, 2.0, order // 2,
                                        max_order=order)
            assert got.tolist() == want

    def test_unconverged_row_raises(self):
        # sqrt still moves by 5e-9 between 256 and 512 nodes, far above the
        # 1e-10 tolerance; converged rows beside it do not hide that
        with pytest.raises(QuadratureNotConverged, match="1 of 2"):
            smoothing._quadrature(
                lambda s: np.vstack([np.exp(s), np.sqrt(s)]), 1.0, 32)

    def test_nodes_computed_once_per_order(self, monkeypatch):
        smoothing._gauss_legendre.cache_clear()
        calls = collections.Counter()
        real = np.polynomial.legendre.leggauss

        def counting(order):
            calls[order] += 1
            return real(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        verify_lemmas([3], [1, 2], [8.0, math.inf], [1.0, 0.25])
        assert calls and max(calls.values()) == 1
        for order in calls:
            nodes, weights = smoothing._gauss_legendre(order)
            assert not nodes.flags.writeable and not weights.flags.writeable
            with pytest.raises(ValueError):
                nodes[0] = 0.0

    def test_default_sweep_matches_reference_csv(self, tmp_path):
        cfg = ExperimentConfig.from_mapping({"experiment": "smoothing_verify"})
        manifest = run(cfg, out_dir=str(tmp_path))
        assert (Path(manifest.csv_paths[0]).read_bytes()
                == REFERENCE_CSV.read_bytes())


class TestNanPoints:
    # a NaN coordinate must raise, not read as a point far outside the
    # rectangle, which is what h_nu mapping NaN to 0 like +-inf would make it
    @pytest.mark.parametrize("phi", [4.0, math.inf])
    @pytest.mark.parametrize("call", [
        lambda p: rho_partial([math.nan], (0,), p(1)),
        lambda p: derivative_sum(1, [math.nan], p(1)),
        lambda p: rho_partial([math.nan, 0.0], (0, 1), p(2)),
        lambda p: rho_eval([math.nan, 0.0], p(2))],
        ids=["rho_partial_1d", "derivative_sum", "rho_partial_2d", "rho_eval"])
    def test_nan_point_raises_before_quadrature(self, monkeypatch, phi, call):
        monkeypatch.setattr(smoothing, "ndtr", None)  # never reached
        with pytest.raises(ValueError, match="must not be NaN"):
            call(lambda d: _params(d=d, phi=phi))

    # on (-inf, inf] an infinite coordinate reads inf - inf, which gave NaN
    # at phi = inf and an unconverged quadrature at phi = 4; it must raise
    @pytest.mark.parametrize("phi", [4.0, math.inf])
    @pytest.mark.parametrize("point", [math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda w, p: rho_eval([w], p),
        lambda w, p: rho_partial([w], (0,), p)],
        ids=["rho_eval", "rho_partial"])
    def test_infinite_point_raises_before_quadrature(self, monkeypatch, phi,
                                                      point, call):
        monkeypatch.setattr(smoothing, "ndtr", None)  # never reached
        with pytest.raises(ValueError, match="must not be NaN or infinite"):
            call(point, _params(lower=[-math.inf], upper=[math.inf], phi=phi))

    def test_h_nu_propagates_nan(self):
        vals = h_nu(2, np.array([math.nan, np.inf, -np.inf]))
        assert math.isnan(vals[0]) and vals[1:].tolist() == [0.0, 0.0]
        assert math.isnan(h_nu(2, math.nan))


# -- oracle: the integrand evaluated per (point, coordinate) pair, sharing
# nothing, with one Gauss-Legendre order per integrand call; the batched rows
# must equal it bit for bit

def _oracle_h_nu(nu, t):
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    tt = np.where(finite, t, 0.0)
    vals = (np.polynomial.polynomial.polyval(tt, hermite_coefficients(nu - 1))
            * gaussian_pdf(tt))
    return np.where(finite, vals, 0.0)


def _oracle_integrand(points, profiles, params):
    eps = params.eps
    upper = params.rect.upper[:, None]
    lower = params.rect.lower[:, None]
    w = points[:, :, None]
    nus = {nu for orders in profiles for nu in orders.values()}
    scale = {nu: -(1.0 / eps) ** nu for nu in nus}
    plains = [[j for j in range(params.d) if j not in orders]
              for orders in profiles]

    def f(s):
        t_up = (upper + s - w) / eps
        t_lo = (lower - s - w) / eps
        cdf = smoothing.ndtr(t_up) - smoothing.ndtr(t_lo)
        hermite = {nu: _oracle_h_nu(nu, t_up) - _oracle_h_nu(nu, t_lo)
                   for nu in nus}
        blocks = []
        for orders, plain in zip(profiles, plains):
            out = np.ones((len(points), len(s)))
            for j, nu in orders.items():
                out = out * scale[nu] * hermite[nu][:, j]
            if plain:
                out = out * np.prod(cdf[:, plain], axis=1)
            blocks.append(out)
        return np.concatenate(blocks)
    return f


def _oracle_quadrature(f, upper, order, tol=1e-10,
                       max_order=smoothing.MAX_QUAD_ORDER):
    prev = result = pending = None
    while True:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        s = 0.5 * upper * (nodes + 1.0)
        vals = 0.5 * upper * np.vecdot(f(s), weights)
        if prev is None:
            result, pending = vals.copy(), np.ones(vals.shape, dtype=bool)
        else:
            result[pending] = vals[pending]
            pending &= ~(np.abs(vals - prev)
                         <= tol * np.maximum(1.0, np.abs(vals)))
        if not pending.any():
            return result
        if order >= max_order:
            raise QuadratureNotConverged("oracle did not converge")
        prev = vals
        order *= 2


def _oracle_integrate(points, profiles, params):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    f = _oracle_integrand(points, profiles, params)
    if math.isinf(params.phi):
        vals = f(np.zeros(1))[:, 0]
    else:
        vals = params.phi * _oracle_quadrature(f, 1.0 / params.phi,
                                               smoothing.QUAD_ORDER)
    return vals.reshape(len(profiles), len(points))


def _cell_points(params):
    """A verify_lemmas cell's points: every (boundary or far w,
    perturbation) pair."""
    rect = params.rect
    margin = (2.0 * params.eps * smoothing.KAPPA
              + (0.0 if math.isinf(params.phi) else 1.0 / params.phi))
    ws = np.vstack([smoothing._boundary_w_grid(rect),
                    np.asarray(rect.upper) + margin + 1e-9])
    return (ws[:, None, :] + params.perturbations()[None]).reshape(-1, rect.dim)


def _profiles(d, v_list):
    return [smoothing._orders_from_index(combo, d) for v in v_list
            for combo in itertools.combinations_with_replacement(range(d), v)]


def _cube(d, phi, eps):
    return _params(d=d, lower=[-1.5] * d, upper=[1.5] * d, phi=phi, eps=eps)


class TestDistinctFactors:
    @pytest.mark.parametrize("params, points, v_list", [
        # the default cube at d = 3, v = 1..3
        (_cube(3, 4.0, 1.0), None, (1, 2, 3)),
        (_cube(3, 32.0, 0.25), None, (1, 2, 3)),
        # d = 8: axis perturbations, and -0.0 among their entries
        (_cube(8, 8.0, 0.5), None, (1, 2)),
        # infinite endpoints, with C7's slope and scale
        (_params(d=3, lower=[-np.inf, -1.2, -1.2], upper=[1.2, np.inf, 1.2],
                 phi=6.0, eps=0.8),
         np.random.default_rng(17).uniform(-1.5, 1.5, size=(12, 3)), (1, 2)),
        # repeated identical points
        (_cube(3, 16.0, 0.5), np.repeat([[0.0, 1.5, -0.4], [1.5, 1.5, 1.5]],
                                        3, axis=0), (1, 2)),
        # phi = inf, and an eps that is not a power of two
        (_cube(3, math.inf, 0.5), None, (1, 2, 3)),
        (_cube(3, 4.0, 0.3), None, (1, 2)),
        (_cube(4, math.inf, 0.3), None, (1, 2))],
        ids=["d3_phi4_eps1", "d3_phi32_eps0.25", "d8_axis", "infinite_ends",
             "repeated_points", "d3_phi_inf", "d3_eps0.3", "d4_phi_inf_eps0.3"])
    def test_rows_equal_the_per_pair_integrand(self, params, points, v_list):
        points = _cell_points(params) if points is None else points
        profiles = [{}] + _profiles(params.d, v_list)
        got = smoothing._integrate(points, profiles, params)
        assert np.array_equal(got, _oracle_integrate(points, profiles, params))

    def test_ndtr_sees_each_distinct_factor_once_per_node(self, monkeypatch):
        # a default cell's 54 points x 3 coordinates take 9 distinct values
        # (w in {0, 1.5, far}, offsets in {0, +-r}), so the normal CDF takes
        # 2 x 9 arguments per node (upper and lower), not 2 x 162
        seen = {"ndtr": 0, "nodes": 0}
        ndtr, quadrature = smoothing.ndtr, smoothing._quadrature

        def counting_ndtr(t):
            seen["ndtr"] += np.size(t)
            return ndtr(t)

        def counting_quadrature(f, *args, **kwargs):
            def counted(s):
                seen["nodes"] += np.size(s)
                return f(s)
            return quadrature(counted, *args, **kwargs)

        monkeypatch.setattr(smoothing, "ndtr", counting_ndtr)
        monkeypatch.setattr(smoothing, "_quadrature", counting_quadrature)
        verify_lemmas([3], [1, 2], [4.0], [1.0])
        points = _cell_points(_cube(3, 4.0, 1.0))
        distinct = len(np.unique(points))  # the cube's bounds are shared
        assert points.shape == (54, 3) and distinct == 9
        assert 0 < seen["ndtr"] <= 2 * distinct * seen["nodes"]
