"""Mixed smoothing of rectangle indicators and its exact partial derivatives.

The smoothed indicator composes a Lipschitz ramp of slope ``phi`` with the
max-margin function of a rectangle, then convolves with a standard Gaussian
scaled by ``eps``.  The result and all its mixed partials reduce to
one-dimensional Gauss-Legendre quadrature of products of normal
CDFs and Gaussian-density Hermite terms, which is what the derivative-sum
verification sweeps evaluate.

Evaluation is batched.  One integrand builder serves :func:`rho_eval`,
:func:`rho_partial` and every derivative sum: given evaluation points and
per-coordinate derivative-order profiles, it returns one integrand row per
(profile, point) pair, and one row-wise quadrature integrates all rows
together.  A cell of :func:`verify_lemmas` is thus one quadrature whose
points are all its (w, perturbation) pairs and whose profiles are the index
profiles of all its orders v; :func:`derivative_sum` is the one-(v, w) case
and ``rho_eval``/``rho_partial`` the one-row case.  Coordinate factors are
evaluated once per distinct value: a factor depends on its coordinate only
through (lower_j, upper_j, w_pj), so each node's CDF differences and Hermite
terms (one Gaussian density per argument, shared by every order nu) are
taken on the distinct triples and gathered into the rows, and the product
over a set of plain coordinates is taken once per distinct set.  A cell's
54 (point, coordinate) pairs at d = 3 take 9 distinct values.  The
quadrature's first two orders come from one integrand call.  Gauss-Legendre
nodes and weights, and Hermite coefficients, are computed once per order and
cached as read-only arrays.

The lemma constants are fixed: ``K`` (the perturbation ball's radius is
eps * K / sqrt(log d)), ``KAPPA`` (the far point's distance outside the
rectangle, in units of 2 * eps) and ``HALF_WIDTH`` (of the cube the sweeps
smooth); :func:`decay_bound` is the decay they give.

Rows converge independently: each row keeps its value from the first order
at which it agrees with the previous order to tolerance (or its
``max_order`` value), exactly as if it were integrated alone.  A shared
stopping order would hand early-converging rows a value from a later order,
so a row's value would depend on which other rows share its batch: a
derivative sum would no longer equal, bit for bit, the one built from
single-row :func:`rho_partial` calls, nor a cell's S_v(w) the single-(v, w)
:func:`derivative_sum`.  For the same reason each row value is its own dot
product of that contiguous row with the weights, taken for all rows at once
by ``np.vecdot`` over the last axis, never one matrix-vector product over
all rows, whose summation order may differ.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import hermite_e, polynomial as npoly
from scipy.special import ndtr

from .errors import QuadratureNotConverged
from .matcore import RectangleSpec
from .sampler import blocks

MAX_DERIVATIVE_ORDER = 6
MAX_SUM_ORDER = 4
TUPLE_BUDGET = 10_000
# Gauss-Legendre order every quadrature starts from before it doubles, and
# the order past which a row that has not converged raises
QUAD_ORDER = 32
MAX_QUAD_ORDER = 512
# the smoothing lemma's constants (see the module docstring)
K = 4.0
KAPPA = 4.0
HALF_WIDTH = 1.5
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# -- Hermite machinery -------------------------------------------------------

@functools.lru_cache(maxsize=None)
def hermite_coefficients(nu: int) -> np.ndarray:
    """Read-only power-basis coefficients of the probabilists' Hermite
    polynomial, computed once per order."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    basis = np.zeros(nu + 1)
    basis[nu] = 1.0
    coefficients = hermite_e.herme2poly(basis)
    coefficients.flags.writeable = False
    return coefficients


def gaussian_pdf(t: np.ndarray) -> np.ndarray:
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(t))


def _hermite_terms(nus, t: np.ndarray) -> dict:
    """{nu: h_nu(t)} for every order in ``nus``, sharing one density
    evaluation of ``t``; 0 at infinite t, NaN at NaN t."""
    infinite = np.isinf(t)
    tt = np.where(infinite, 0.0, t)
    pdf = gaussian_pdf(tt)
    return {nu: np.where(infinite, 0.0,
                         npoly.polyval(tt, hermite_coefficients(nu - 1)) * pdf)
            for nu in nus}


def h_nu(nu: int, t) -> np.ndarray:
    """h_nu(t) = H_{nu-1}(t) * standard normal pdf(t); 0 at infinite t and
    NaN at NaN t."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    return _hermite_terms((nu,), np.asarray(t, dtype=float))[nu]


# -- smoothing functions -----------------------------------------------------

@dataclass(frozen=True)
class SmoothingParams:
    """Rectangle, ramp slope, Gaussian scale, perturbation ball."""

    rect: RectangleSpec
    phi: float
    eps: float
    K: float = K  # the module constant

    def __post_init__(self):
        if self.phi <= 0:
            raise ValueError("phi must be > 0")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")

    @property
    def d(self) -> int:
        return self.rect.dim

    @property
    def eta(self) -> float:
        return self.K / math.sqrt(math.log(self.d)) if self.d >= 2 else self.K

    @property
    def y_radius(self) -> float:
        return self.eps * self.eta

    def perturbations(self) -> np.ndarray:
        """Finite approximation of the sup over the l_inf ball of radius
        eps*eta: the 2^d corners plus center for d <= 6, else the 2d
        axis-extreme points plus center."""
        r = self.y_radius
        d = self.d
        if d <= 6:
            corners = r * np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        else:
            corners = np.concatenate([r * np.eye(d), -r * np.eye(d)])
        return np.vstack([np.zeros(d), corners])


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _quadrature(f, upper: float, order: int, tol: float = 1e-10,
                max_order: int = MAX_QUAD_ORDER) -> np.ndarray:
    """Row-wise Gauss-Legendre on [0, upper] with order doubling to tolerance.

    ``f`` maps the node vector s to a C-contiguous (rows, len(s)) array;
    :func:`_row_values` says at which orders it is called.  Each row keeps
    its value from the first order at which it agrees with the previous
    order; a row that still disagrees at ``max_order`` raises
    :class:`QuadratureNotConverged`.
    """
    prev = result = pending = None
    for order, vals in _row_values(f, upper, order, max_order):
        if prev is None:
            result, pending = vals.copy(), np.ones(vals.shape, dtype=bool)
        else:
            result[pending] = vals[pending]
            pending &= ~(np.abs(vals - prev)
                         <= tol * np.maximum(1.0, np.abs(vals)))
        if not pending.any():
            return result
        prev = vals
    raise QuadratureNotConverged(
        f"{int(pending.sum())} of {pending.size} quadrature rows did "
        f"not converge to {tol:g} by {order} nodes")


def _row_values(f, upper: float, order: int, max_order: int):
    """(order, row values) at order, 2 * order, ... for :func:`_quadrature`,
    doubling while the last order is below ``max_order``.  The first two
    orders come from one call of ``f`` on both node sets; each order's
    columns are copied out contiguous, so its rows are still their own dot
    products over a C-contiguous array (``np.vecdot`` over a strided slice
    is slower)."""
    batch = [order, 2 * order] if order < max_order else [order]
    while batch:
        rules = [_gauss_legendre(n) for n in batch]
        table = f(np.concatenate([0.5 * upper * (nodes + 1.0)
                                  for nodes, _ in rules]))
        first = 0
        for n, (_, weights) in zip(batch, rules):
            rows = np.ascontiguousarray(table[:, first:first + n])
            first += n
            yield n, 0.5 * upper * np.vecdot(rows, weights)
        batch = [2 * n] if n < max_order else []


def _orders_from_index(multi_index: Sequence[int], d: int) -> dict:
    """Coordinate -> derivative order, in ascending coordinate order."""
    orders: dict = {}
    for j in multi_index:
        j = int(j)
        if not 0 <= j < d:
            raise IndexError(f"coordinate index {j} out of range for d={d}")
        orders[j] = orders.get(j, 0) + 1
    return dict(sorted(orders.items()))


def _integrand(points: np.ndarray, profiles: Sequence[dict],
               params: SmoothingParams):
    """Integrand rows for every (profile, point) pair, profile-major.

    Row (k, p) at s is the product over coordinates of the factor at point
    p: a coordinate j that profile k differentiates nu times contributes
    ``-(1/eps)^nu * [h_nu(upper arg) - h_nu(lower arg)]`` (multiplied in
    ascending j), and every other coordinate its CDF difference over the
    s-enlarged rectangle.

    A factor depends on its coordinate only through the triple (lower_j,
    upper_j, w_pj), so the CDF differences and Hermite terms are taken once
    per distinct triple (equal bit patterns) and gathered into each row, and
    the product over a set of plain coordinates once per distinct set.  Each
    row value is the same sequence of floating-point operations as a
    per-(point, coordinate) evaluation, so it is the same bit for bit.
    """
    eps = params.eps
    triples = np.empty(points.shape + (3,))
    triples[..., 0] = params.rect.lower
    triples[..., 1] = params.rect.upper
    triples[..., 2] = points
    # a void view compares whole triples bytewise: exact, and faster to
    # sort than np.unique(..., axis=0)
    distinct, index = np.unique(triples.view(np.dtype((np.void, 24))),
                                return_inverse=True)
    lower, upper, w = distinct.view(float).reshape(-1, 3).T[:, :, None]
    index = index.reshape(points.shape)
    n = len(distinct)
    # each derivative in w_j pulls out -1/eps and steps h_nu -> h_{nu+1}
    # via h' = -h_{nu+1}, so the net sign is -1 for every order nu
    nus = {nu for orders in profiles for nu in orders.values()}
    scale = {nu: -(1.0 / eps) ** nu for nu in nus}
    # per profile: (order, factor indices) of each differentiated
    # coordinate in ascending j, and which distinct plain set it multiplies
    plain_sets: dict = {}
    terms = []
    for orders in profiles:
        plain = tuple(j for j in range(params.d) if j not in orders)
        terms.append(([(nu, index[:, j]) for j, nu in orders.items()],
                      plain_sets.setdefault(plain, len(plain_sets))
                      if plain else None))
    # a plain set's (coordinate, point) factor indices: its product runs
    # over the leading axis, in ascending j
    plain_index = [np.ascontiguousarray(index[:, plain].T)
                   for plain in plain_sets]

    def f(s):
        # the upper arguments of the n distinct factors above their lower
        # ones, so each function runs once per node on one table
        t = np.concatenate([(upper + s - w) / eps, (lower - s - w) / eps])
        cdf = ndtr(t)
        cdf = cdf[:n] - cdf[n:]
        h = _hermite_terms(nus, t)
        hermite = {nu: h[nu][:n] - h[nu][n:] for nu in nus}
        products = [np.prod(cdf[factors], axis=0) for factors in plain_index]
        blocks = []
        for diffs, plain in terms:
            # (out * scale) * H per differentiated coordinate in ascending
            # j, then the plain product; starting from the scalar 1.0 only
            # drops multiplications by one, which are exact
            out = 1.0
            for nu, factors in diffs:
                out = out * scale[nu] * hermite[nu][factors]
            if plain is not None:
                out = out * products[plain]
            blocks.append(out)
        return np.concatenate(blocks)
    return f


def _integrate(points, profiles: Sequence[dict],
               params: SmoothingParams) -> np.ndarray:
    """(len(profiles), len(points)) smoothed-function partials.

    phi times the row-wise quadrature over s in [0, 1/phi]; at phi = inf,
    the integrand at s = 0 (plain Gaussian convolution of the indicator).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    # an infinite coordinate on an infinite side would read inf - inf
    if not np.isfinite(points).all():
        raise ValueError("evaluation points must not be NaN or infinite")
    f = _integrand(points, profiles, params)
    if math.isinf(params.phi):
        vals = f(np.zeros(1))[:, 0]
    else:
        vals = params.phi * _quadrature(f, 1.0 / params.phi, QUAD_ORDER)
    return vals.reshape(len(profiles), len(points))


def rho_eval(w, params: SmoothingParams) -> float:
    """Smoothed indicator at w convolved with eps times a standard normal.

    phi * integral over [0, 1/phi] of the product of per-coordinate CDF
    differences of the s-enlarged rectangle; at phi = inf, the integrand at
    s = 0 (plain Gaussian convolution of the indicator).
    """
    return float(_integrate(w, [{}], params)[0, 0])


def rho_partial(w, multi_index: Sequence[int],
                params: SmoothingParams) -> float:
    """Exact mixed partial of the smoothed function at w.

    ``multi_index`` lists coordinate indices with repetition, e.g. (0, 0, 2)
    for the third-order partial twice in coordinate 0 and once in 2.  Each
    differentiated coordinate replaces its CDF-difference factor by
    ``-(1/eps)^nu * [h_nu(upper arg) - h_nu(lower arg)]``.  An
    empty ``multi_index`` gives :func:`rho_eval`.
    """
    if len(multi_index) > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"total order {len(multi_index)} exceeds cap "
                           f"{MAX_DERIVATIVE_ORDER}")
    orders = _orders_from_index(multi_index, params.d)
    return float(_integrate(w, [orders], params)[0, 0])


def derivative_sum(v: int, w, params: SmoothingParams) -> float:
    """S_v(w): sum over all d^v index tuples of the y-grid sup of |partial|.

    The sup over the perturbation ball is approximated from below by the
    finite grid in ``params.perturbations()``; tuples sharing a per-coordinate
    order profile are evaluated once and weighted by their multiplicity.  It
    is the one-pair case of :func:`_derivative_sums`.
    """
    return float(_derivative_sums([v], [w], params)[0, 0])


def _derivative_sums(v_list: Sequence[int], w_list,
                     params: SmoothingParams) -> np.ndarray:
    """(len(v_list), len(w_list)) table of S_v(w) from one batched quadrature.

    The points are every (w, perturbation) pair and the profiles the union
    of every v's index profiles, so all partials come from one
    :func:`_integrate` call.  Each S_v(w) sums its own rows in profile order,
    so it equals the single-(v, w) sum bit for bit.  The w points are split
    into :func:`~hdclt.sampler.blocks` whose rows fit the block budget at
    ``MAX_QUAD_ORDER`` nodes, so a large-d call holds at most one w's rows
    past that budget, as a single-w call does.
    """
    d = params.d
    groups = []
    for v in v_list:
        if not 1 <= v <= MAX_SUM_ORDER:
            raise ValueError(f"v must be in 1..{MAX_SUM_ORDER}")
        if d**v > TUPLE_BUDGET:
            raise ValueError(f"d^v = {d**v} exceeds budget {TUPLE_BUDGET}")
        groups.append([_orders_from_index(combo, d) for combo in
                       itertools.combinations_with_replacement(range(d), v)])
    profiles = [orders for group in groups for orders in group]
    ys = params.perturbations()
    points = [np.asarray(w, dtype=float) + ys for w in w_list]
    # peaks[k, i]: max over the perturbation grid of |partial k at w_i + y|
    peaks = np.empty((len(profiles), len(points)))
    for _, ws in blocks(len(points), len(profiles) * len(ys) * MAX_QUAD_ORDER):
        partials = _integrate(np.concatenate(points[ws]), profiles, params)
        peaks[:, ws] = np.max(np.abs(partials).reshape(
            len(profiles), -1, len(ys)), axis=2)
    sums = np.zeros((len(v_list), len(points)))
    first = 0
    for v, group, total in zip(v_list, groups, sums):
        for orders, peak in zip(group, peaks[first:]):
            mult = math.factorial(v)
            for c in orders.values():
                mult //= math.factorial(c)
            total += mult * peak
        first += len(group)
    return sums


# -- lemma verification sweeps ----------------------------------------------

def _boundary_w_grid(rect: RectangleSpec) -> np.ndarray:
    """The center, the upper corner and the d upper face centers of a finite
    rectangle."""
    center = 0.5 * (rect.lower + rect.upper)
    faces = np.tile(center, (rect.dim, 1))
    np.fill_diagonal(faces, rect.upper)
    return np.vstack([center, rect.upper, faces])


def decay_bound(d: int) -> float:
    """exp((KAPPA - eta)^2 / 8) at eta = K / sqrt(log d), the decay of S_1
    from the boundary to the far point that the tail-vanishing bound
    gives; finite for every d >= 2, where 0 < eta < 2 * KAPPA keeps the
    exponent below 2."""
    return math.exp((KAPPA - K / math.sqrt(math.log(d))) ** 2 / 8.0)


def verify_lemmas(d_list: Sequence[int], v_list: Sequence[int],
                  phi_list: Sequence[float],
                  eps_list: Sequence[float]) -> list[dict]:
    """Attained-constant table across (phi, eps, d, v) cells, one row per
    cell in that order: phi-major, v varying fastest.

    Each (phi, eps, d) cell smooths the cube [-HALF_WIDTH, HALF_WIDTH]^d in
    one quadrature: :func:`_derivative_sums` takes every boundary point, the
    far point and every v of the cell at once.  Per cell, with ``S_v`` the
    boundary-grid max of :func:`derivative_sum`:

    * ``attained_C61`` = S_v eps^{v-1} / (phi (log d)^{(v-1)/2})
      (NaN at phi = inf),
    * ``attained_C62`` = S_v eps^v / (log d)^{v/2},
    * ``decay_ratio``  = S_v(boundary) / S_v(w_far) where w_far sits a
      distance 2*eps*KAPPA + 1/phi outside the rectangle corner, the measured
      decay that :func:`decay_bound` bounds from below (inf when the far
      sum underflows to 0).
    """
    if any(d < 2 for d in d_list):  # both constants divide by log d
        raise ValueError(f"verify_lemmas needs every d >= 2, got {list(d_list)}")
    rows = []
    for phi, eps, d in itertools.product(phi_list, eps_list, d_list):
        rect = RectangleSpec(np.full(d, -HALF_WIDTH), np.full(d, HALF_WIDTH))
        params = SmoothingParams(rect=rect, phi=phi, eps=eps)
        ld = math.log(d)
        margin = 2.0 * eps * KAPPA + (0.0 if math.isinf(phi) else 1.0 / phi)
        w_far = np.asarray(rect.upper) + margin + 1e-9
        # per v, the boundary grid's sums and then the far point's
        sums = _derivative_sums(
            v_list, np.vstack([_boundary_w_grid(rect), w_far]), params)
        for v, (*s_grid, s_far) in zip(v_list, sums.tolist()):
            s_boundary = max(s_grid)
            c61 = (math.nan if math.isinf(phi) else
                   s_boundary * eps ** (v - 1)
                   / (phi * ld ** ((v - 1) / 2.0)))
            c62 = s_boundary * eps ** v / ld ** (v / 2.0)
            decay = s_boundary / s_far if s_far > 0 else math.inf
            rows.append({"d": d, "v": v, "phi": phi, "eps": eps, "K": K,
                         "attained_C61": c61, "attained_C62": c62,
                         "decay_ratio": decay, "S_v": s_boundary})
    return rows
