"""Certified l1 interpolation programs.

The resolvent interpolation norm N(zeta) = min{||f||_1 : f analytic, f
matches the jets of 1/(zeta - z) on the spectrum} is an infinite linear
program.  phi(lambda_1, ..., lambda_n), the least l1 coefficient norm above
the pinned constant term over analytic h with h(0) = prod lambda_i and an
m_i-fold zero at each lambda_i, is its zeta = 0 case: h = a0 (1 + z f) with
a0 = prod lambda_i gives phi = |a0| N(0) (Remark 5).

``_certified_interpolate`` is the one entry point.  For a real spectrum and
real zeta it poses the program in the Malmquist-Walsh basis of the model
space K_B (``modelspace``) at its coefficient support, solves it once, and
brackets N(zeta) to 1e-8 relative with every rounding bounded; past the
priced columns, the compressed shift of K_B bounds the Taylor tails
(``_shift_tail``).  Each program's result is one ``Bracket``, phi's and
the resolvent norm's alike.  Nothing is cached between calls, except
inside a ``modelspace.row_table`` scope, where the programs slice the
Malmquist-Walsh rows of the one table it holds, with the bits they would
build themselves.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import blaschke
from .errors import DomainError
from .modelspace import _compressed_shift, _malmquist_walsh_rows, _row_error_bound
from .simplex import LD, min_l1_solution
from .spectra import SpectrumSpec

_COLUMN_BUDGET = 4096  # most columns an LP may grow to
_CERT_REL_WIDTH = 1e-8  # widest certified bracket, relative to its upper end


class Bracket(NamedTuple):
    """One l1 program's result times a scale (|a0| for phi), scaled in long
    double and rounded to float once (``_scaled_bracket``): value = ||f||_1
    of the optimum f at the posed degree, lower <= N <= upper proven for the
    exact program and rounded outward, converged when lower <= value and
    the bracket is within _CERT_REL_WIDTH of upper."""
    value: float
    lower: float
    upper: float
    converged: bool


def _scaled_bracket(value, lower, upper, converged, scale, scale_err) -> Bracket:
    """The ``Bracket`` of long-double results times scale, a rounded value
    within scale_err relative of the exact scale s: value rounded to the
    nearest float, and the ends widened by scale_err and stepped one float
    outward from the nearest, so that they bracket s N wherever the
    long-double ends bracket N."""
    lo, up = scale * lower, scale * upper
    lo, up = float(lo - abs(lo) * scale_err), float(up + abs(up) * scale_err)
    return Bracket(float(scale * value), float(np.nextafter(lo, -np.inf)),
                   float(np.nextafter(up, np.inf)), converged)


def _malmquist_walsh_resolvent_rhs(mus, zeta: float) -> np.ndarray:
    """<h, e_j> for every analytic h that matches the jets of 1/(zeta - z)
    on the spectrum: sqrt(1-mu_j^2) / ((zeta - mu_j) prod_{i<j} b_{mu_i}(zeta)),
    with 1/b_mu(zeta) = (1 - mu zeta)/(zeta - mu) (zero at zeta = 1/mu)."""
    mu, z = np.asarray(mus, dtype=LD), LD(zeta)
    inv_prefix = np.cumprod(np.r_[LD(1), ((1 - mu * z) / (z - mu))[:-1]])
    return np.sqrt(1 - mu * mu) / (z - mu) * inv_prefix


def _interpolate(rows, rhs):
    """min ||f||_1 subject to rows @ f = rhs by the simplex: (coefficients f,
    dual y), the vertex refined to a few long-double units.  It is solved at
    unit sup norm of rhs and f scaled back; y does not depend on the scale."""
    scale = np.max(np.abs(rhs))
    _, f, y = min_l1_solution(rows, rhs / scale)
    return f * scale, y


def _shift_tail(mus):
    """(index, bound, L) from the compressed shift M of the model space K_B
    of the real expanded spectrum (``_compressed_shift``).  M^T is the
    backward shift S* on K_B (Garcia, Mashreghi & Ross 2016), so
    g = sum_j x_j e_j has g_k = (S*^k g)(0) = <x M^k, v>, v_j = e_j(0) the
    kernel at 0: |g_k| <= sqrt(1 - B(0)^2) ||x M^k||_2, not increasing in k
    as ||M||_2 <= 1.  bound(x, k) bounds it for each row of a float64 x;
    index(x) is the least k with bound(x, k) <= 1, by binary lifting over
    the squares M^(2^s); L, the least power of two with ||M^L||_2 <= 1/2
    proven by the Frobenius norm (or inf), gives sum_{k>=p} |g_k| <= 2 L
    bound(x, p), as [p + qL, p + (q+1) L) adds at most L 2^-q bound(x, p).

    Rounding, with u = 2^-53 and eps = 4 N (N + 4) u: M's entries err by
    (N + 4) u relative, ||fl(M) - M||_2 <= (N + 4) sqrt(N) u, and a product
    of two computed powers adds N u ||X||_F ||Y||_F <= N^2 u.  The errors
    add, as exact powers are contractions: M^k, formed by at most k - 1
    products, errs by k eps / 2 to first order, doubled for the rest.  With
    N^1.5 u ||x|| per vector product and u ||x|| from x's conversion from
    long double, x M^k errs by 2 (k + 1) eps ||x||; the norms, v and the
    products add under eps relative."""
    N = len(mus)
    eps = 4 * N * (N + 4) * 2.0 ** -53
    mu = np.asarray(mus, dtype=float)
    kernel = (1 + eps) * np.linalg.norm(np.sqrt((1 - mu) * (1 + mu)) * np.cumprod(np.r_[1, -mu[:-1]]))

    def halves(s):  # ||M^(2^s)||_2 <= 1/2, proven
        return (1 + eps) * np.linalg.norm(powers[s]) + 2 ** s * eps <= 0.5

    powers = [_compressed_shift(mus)]  # M^(2^s), past the budget and on to a halving one
    while (len(powers) <= _COLUMN_BUDGET.bit_length()
           or not (halves(len(powers) - 1) or 2 ** len(powers) * eps >= 1)):
        powers.append(powers[-1] @ powers[-1])
    L = next((2 ** s for s in range(len(powers)) if halves(s)), math.inf)

    def bound(x, k, lifted=None):  # lifted: x M^k as formed, else formed from the bits of k
        if lifted is None:
            lifted = functools.reduce(np.matmul, [A for s, A in enumerate(powers) if k >> s & 1], x)
        return kernel * (np.linalg.norm(lifted, axis=-1) + 2 * (k + 1) * eps * np.linalg.norm(x, axis=-1))

    def index(x):  # binary lifting, kept at the largest k whose bound is > 1
        if bound(x, 0, x) <= 1:
            return 0
        k, at_k = 0, x
        for s in reversed(range(len(powers))):
            lifted = at_k @ powers[s]
            if bound(x, k + 2 ** s, lifted) > 1:
                k, at_k = k + 2 ** s, lifted
        return k + 1

    return index, bound, L


def _certified_interpolate(spec: SpectrumSpec, zeta: complex, *, scale=1,
                           scale_err=0.0) -> Bracket:
    """N(zeta) = min ||f||_1 over all analytic f, as a ``Bracket`` times
    scale, scale_err bounding scale's relative error (``_scaled_bracket``).
    A non-real spectrum or zeta, or a zeta within 1e-14 of an eigenvalue, is
    a DomainError; rows the simplex finds dependent in floating point (near
    lambda = 1) a ``SimplexError``.

    f matches the jets exactly when f - h lies in B H^2, where
    h = (1 - B/B(zeta))/(zeta - z), i.e. when <f, e_j> = <h, e_j> for the
    Malmquist-Walsh basis e_1..e_N of K_B: the rows are its Taylor
    coefficients (``_malmquist_walsh_rows``), well conditioned where the
    jet rows (~4^n) are not, and the right-hand side the closed form
    ``_malmquist_walsh_resolvent_rhs``.  The rows at a degree are a bitwise
    prefix of those at any larger one, so they are built longer only when
    the dual's shift index passes the posed degree.

    With the dual y, g = sum_j y_j e_j gives y . rhs / max(1, sup_k |g_k|)
    <= N(zeta) (weak duality): the columns up to max(deg, K) are priced
    exactly, K the index of g's shift bound (``_shift_tail``), and that
    bound covers the later ones.  With res = rows @ f - rhs, f - sum_j res_j
    e_j is exactly feasible, so N(zeta) <= ||f||_1 + sum_j |res_j|
    ||e_j||_1, the tail of e_j at most 2 L times its shift bound.  It is
    solved once, at ``_start_degree``: the optimum's support ends inside it,
    and a column priced above 1 past it would only lower the lower end.

    Only y and f are taken as exact.  The rows gain ``_row_error_bound``;
    rhs_j, a product of j + 1 factors, gains (3 + 1/(1 - mu_j^2) +
    sum_{i<j} (3 + |mu_i zeta / (1 - mu_i zeta)|)) eps relative; gamma is
    twice every n u of an n-term sum, covering the bounds' own rounding; the
    shift bounds carry theirs (``_shift_tail``)."""
    if not spec.is_real or zeta.imag != 0:
        raise DomainError("the l1 program needs a real spectrum and a real zeta")
    if any(abs(zeta - l) < 1e-14 for l, _ in spec.points):
        raise DomainError("zeta coincides with an eigenvalue")
    mus = [lam.real for lam in spec.expanded()]
    rhs = _malmquist_walsh_resolvent_rhs(mus, zeta.real)
    deg = _start_degree(spec)
    posed = _malmquist_walsh_rows(mus, deg)
    f, y = _interpolate(posed, rhs)
    eps, mu, z = np.finfo(LD).eps, np.asarray(mus, dtype=LD), LD(zeta.real)
    abs_rhs = np.abs(rhs)
    with np.errstate(divide="ignore", invalid="ignore"):  # mu zeta = 1 exactly zeroes the later rhs
        zn, zd = zeta.real.as_integer_ratio()
        exact = [mn * zn == md * zd for mn, md in map(float.as_integer_ratio, mus)]
        q = np.where(exact, 0, abs(mu * z / (1 - mu * z)))
        rhs_err = eps * (3 + 1 / (1 - mu * mu) + np.cumsum(np.r_[0, 3 + q][:-1])) * abs_rhs
    index, bound, L = _shift_tail(mus)
    y64 = y.astype(float)
    past = max(deg, min(index(y64), _COLUMN_BUDGET)) + 1
    rows = posed if past == deg + 1 else _malmquist_walsh_rows(mus, past - 1)
    abs_rows, abs_y = np.abs(rows), np.abs(y)
    abs_posed = abs_rows if rows is posed else np.abs(posed)
    delta = _row_error_bound(mus, past - 1)
    gamma = 2 * (len(mus) + past) * eps
    tails = bound(np.vstack([y64, np.eye(len(mus))]), past)  # g's, then each e_j's
    norms = np.sum(abs_rows, axis=1) + np.sqrt(past) * delta + 2 * L * tails[1:]
    g = np.abs(y @ rows) + gamma * (abs_y @ abs_rows) + abs_y @ delta
    lower = ((y @ rhs - gamma * (abs_y @ abs_rhs) - abs_y @ rhs_err)
             / (max(LD(1), np.max(g), LD(tails[0])) * (1 + gamma)))
    res = (np.abs(posed @ f - rhs) + delta * np.sqrt(f @ f) + rhs_err
           + gamma * (abs_posed @ np.abs(f) + abs_rhs))
    value = np.sum(np.abs(f))
    upper = (value + res @ norms) * (1 + gamma)
    certified = (1 - _CERT_REL_WIDTH) * upper <= lower <= value
    return _scaled_bracket(value, lower, upper, bool(certified), scale, scale_err)


def _start_degree(spec: SpectrumSpec) -> int:
    """Degree the certified programs are solved at: the coefficient support
    ``blaschke.support_estimate``, ~|m|/alpha0, with at least 64 and at most
    _COLUMN_BUDGET columns.  The dual is priced past it."""
    return min(max(blaschke.support_estimate(spec.points), 64), _COLUMN_BUDGET) - 1


def phi_exact_truncated(spec: SpectrumSpec) -> Bracket:
    """Truncated phi: min over polynomials h of sum_{k>=1} |h_k| subject to
    h(0) = a0 = prod lambda_i and an m_i-fold zero at each lambda_i, solved
    once at ``_start_degree`` with its dual priced past it: |a0| times the
    zeta = 0 interpolation norm's ``Bracket`` (Remark 5, h = a0 (1 + z f)).
    ``eigen_product`` forms each lambda_i^(m_i) in 2 log2(m_i) + 1 roundings
    (or by a pow within an ulp, past m_i = 100) and the P products add P, so
    (2|m| + 2) u, u = 2^-53, bounds |a0|'s rounding with two units to spare
    for second-order terms and the long-double arithmetic of the scaling.
    Raises as ``_certified_interpolate`` does."""
    spec.require_nonzero()
    spec.require_interior()
    return _certified_interpolate(spec, 0j, scale=LD(abs(spec.eigen_product())),
                                  scale_err=(2 * spec.degree + 2) * 2.0 ** -53)


def phi_lower_bound(spec: SpectrumSpec) -> float:
    """Coefficient-norm lower bound for phi, max(0, 1/||(1-z^2) B||_linfA -
    prod |lambda_i|), B the Blaschke product of the spectrum extracted up to
    ``blaschke.support_estimate``.  A non-real spectrum is a DomainError."""
    spec.require_interior()
    K = blaschke.support_estimate(spec.points)
    norm = blaschke.weight_series(blaschke.blaschke_power_coeffs(spec.points, K)).linf
    return max(0.0, 1.0 / norm - abs(spec.eigen_product()))


def schaeffer_upper(n: int) -> float:
    """sqrt(e n), the classical determinant-inverse upper bound."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return math.sqrt(math.e * n)


def resolvent_interpolation_norm(spec: SpectrumSpec, zeta: complex) -> Bracket:
    """The ``Bracket`` of inf{||f||_W : f matches the jets of 1/(zeta - z)
    on the spectrum}, solved once at ``_start_degree`` with its dual priced
    past it, which the harness scales by |B(zeta)| to exhibit resolvent
    growth.  Raises as ``_certified_interpolate`` does."""
    spec.require_interior()
    return _certified_interpolate(spec, complex(zeta))
