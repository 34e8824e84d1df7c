"""Certified l1 interpolation programs.

The resolvent interpolation norm N(zeta) = min{||f||_1 : f analytic, f
matches the jets of 1/(zeta - z) on the spectrum} is an infinite linear
program.  phi(lambda_1, ..., lambda_n), the least l1 coefficient norm above
the pinned constant term over analytic h with h(0) = prod lambda_i and an
m_i-fold zero at each lambda_i, is its zeta = 0 case: h = a0 (1 + z f) with
a0 = prod lambda_i gives phi = |a0| N(0) (Remark 5).

``_certified_interpolate`` is the one entry point.  It poses the program
once per call, for a real spectrum and real zeta, in the Malmquist-Walsh
basis of the model space, whose rows, their rounding bound and their
envelope are ``modelspace``'s ``_malmquist_walsh_rows``,
``_row_error_bound`` and ``_log_envelope``; a non-real spectrum or zeta,
or a zeta at an eigenvalue, is a DomainError.  It grows the degree as
the simplex dual, priced over every coefficient, demands, and brackets
N(zeta) to 1e-8 relative, with the rounding of its long-double data
bounded: a converged value lies in a bracket proven for the exact
program.  ``_interpolate`` is one solve of the posed rows by the simplex,
whose vertex and dual are formed in long double from the optimal basis.
Nothing is cached between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blaschke
from .errors import DomainError
from .modelspace import _log_envelope, _malmquist_walsh_rows, _row_error_bound
from .simplex import LD, min_l1_solution
from .spectra import SpectrumSpec

_COLUMN_BUDGET = 4096  # most columns an LP may grow to
_CERT_REL_WIDTH = 1e-8  # widest certified bracket, relative to its upper end
_F64_MARGIN = 1e-6  # relative slack on the float64 envelope terms of the bracket


@dataclass
class PhiResult:
    value: float
    converged: bool


def _malmquist_walsh_resolvent_rhs(mus, zeta: float) -> np.ndarray:
    """<h, e_j> for every analytic h that matches the jets of 1/(zeta - z)
    on the spectrum: sqrt(1-mu_j^2) / ((zeta - mu_j) prod_{i<j} b_{mu_i}(zeta)),
    with 1/b_mu(zeta) = (1 - mu zeta)/(zeta - mu) (zero at zeta = 1/mu)."""
    z = LD(zeta)
    out = np.empty(len(mus), dtype=LD)
    inv_prefix = LD(1)
    for j, mu in enumerate(mus):
        mu = LD(mu)
        out[j] = np.sqrt(1 - mu * mu) / (z - mu) * inv_prefix
        inv_prefix *= (1 - mu * z) / (z - mu)
    return out


def _interpolate(rows, rhs):
    """min ||f||_1 subject to rows @ f = rhs: (coefficients f, dual y), the
    optimum sum |f_k|, solved by the simplex, its vertex exact up to the
    long-double significand.  The program is homogeneous in the data, so it
    is solved at unit sup norm and scaled back; y does not depend on that
    scale."""
    scale = np.max(np.abs(rhs))
    _, f, y = min_l1_solution(rows, rhs / scale)
    return f * scale, y


def _certified_interpolate(spec: SpectrumSpec, zeta: complex, deg: int):
    """N(zeta) = min ||f||_1 over all analytic f, from degree deg up.
    Returns (value, f, lower, upper, certified): value = sum |f_k|, the
    long-double l1 norm of the optimum f at the final degree, and
    lower <= N(zeta) <= upper, proven for the exact program; certified when
    lower <= value and the bracket is within _CERT_REL_WIDTH.  A non-real
    spectrum or zeta, or a zeta within 1e-14 of an eigenvalue, is a
    DomainError.  Rows that the simplex finds dependent in floating point
    (near lambda = 1, where the basis's Taylor rows decay slowly) are a
    ``SimplexError``, not an uncertified value.

    f matches the jets exactly when f - h lies in B H^2, where
    h = (1 - B/B(zeta))/(zeta - z), i.e. when <f, e_j> = <h, e_j> for the
    Malmquist-Walsh basis e_1..e_N of the model space K_B.  The rows are the
    basis's Taylor coefficients (``_malmquist_walsh_rows``) and the
    right-hand side is the closed form <h, e_j>
    (``_malmquist_walsh_resolvent_rhs``), each posed once per call: the rows
    at a degree are a bitwise prefix of those at any larger one (a scan step
    writes only at or past its shift), so every solve slices them, and they
    are built again only when the dual prices a column past the last.  These
    rows are an invertible triangular transform of the confluent-Vandermonde
    jet rows, so the program is the same, but they stay well conditioned
    where the jet rows (conditioning ~4^n) run out of long-double precision
    from n ~ 48.

    With the dual y, g = sum_j y_j e_j gives y . rhs / max(1, sup_k |g_k|)
    <= N(zeta) (weak duality).  On |z| = r, 1 < r < 1/max|mu_j|, |e_j| <=
    E_j(r), on the grid of radii of ``_log_envelope``; by Cauchy |g_k| <=
    M(r) r^-k with M(r) = sum_j |y_j| E_j(r), so |g_k| <= 1 past
    k* = min_r log M(r) / log r, and the columns
    up to max(k*, deg) are priced exactly.  f - sum_j res_j e_j, with the
    residual res = rows @ f - rhs, is exactly feasible (the e_j are
    orthonormal), so N(zeta) <= ||f||_1 + sum_j |res_j| ||e_j||_1.  Until
    the bracket is within _CERT_REL_WIDTH, the degree grows to the last
    column with |g_k| > 1, up to _COLUMN_BUDGET columns.

    Only y and f are taken as exact.  The rows gain ``_row_error_bound``;
    rhs_j, a product of j + 1 factors, gains (3 + 1/(1 - mu_j^2) +
    sum_{i<j} (3 + |mu_i zeta / (1 - mu_i zeta)|)) eps relative; gamma is
    twice every n u of an n-term sum, covering the bounds' own rounding; the
    float64 envelope gains _F64_MARGIN, as its logs (at most N + 3 terms
    below 20 N each, N <= _COLUMN_BUDGET for a solvable program) err < 1e-7.
    """
    if not spec.is_real or zeta.imag != 0:
        raise DomainError("the l1 program needs a real spectrum and a real zeta")
    if any(abs(zeta - l) < 1e-14 for l, _ in spec.points):
        raise DomainError("zeta coincides with an eigenvalue")
    mus = [lam.real for lam in spec.expanded()]
    rhs = _malmquist_walsh_resolvent_rhs(mus, zeta.real)
    posed = _malmquist_walsh_rows(mus, deg)
    f, y = _interpolate(posed, rhs)
    eps, mu, z = np.finfo(LD).eps, np.asarray(mus, dtype=LD), LD(zeta.real)
    with np.errstate(divide="ignore", invalid="ignore"):  # mu zeta = 1 exactly zeroes the later rhs
        zn, zd = zeta.real.as_integer_ratio()
        exact = [mn * zn == md * zd for mn, md in map(float.as_integer_ratio, mus)]
        q = np.where(exact, 0, abs(mu * z / (1 - mu * z)))
        rhs_err = eps * (3 + 1 / (1 - mu * mu) + np.cumsum(np.r_[0, 3 + q][:-1])) * np.abs(rhs)
    log_r, log_e = _log_envelope(mus)
    while True:
        with np.errstate(divide="ignore"):  # a zero y_j drops out of M
            terms = np.log(np.abs(y.astype(float)))[:, None] + log_e
        log_m = np.logaddexp.reduce(terms, axis=0)
        past = max(deg, min(math.ceil(np.min(log_m / log_r)), _COLUMN_BUDGET)) + 1
        if posed.shape[1] < past:
            posed = _malmquist_walsh_rows(mus, past - 1)
        rows = posed[:, :past]
        delta = _row_error_bound(mus, past - 1)
        gamma = 2 * (len(mus) + past) * eps
        with np.errstate(over="ignore"):  # an infinite bound certifies nothing
            tail = (1 + _F64_MARGIN) * np.exp(np.min(log_m - past * log_r))
            norms = (np.sum(np.abs(rows), axis=1) + np.sqrt(past) * delta + (1 + _F64_MARGIN)
                     * np.exp(np.min(log_e - past * log_r - np.log1p(-np.exp(-log_r)), axis=1)))
        g = np.abs(y @ rows) + gamma * (np.abs(y) @ np.abs(rows)) + np.abs(y) @ delta
        lower = ((y @ rhs - gamma * (np.abs(y) @ np.abs(rhs)) - np.abs(y) @ rhs_err)
                 / (max(LD(1), np.max(g), LD(tail)) * (1 + gamma)))
        res = (np.abs(rows[:, :deg + 1] @ f - rhs) + delta * np.sqrt(f @ f) + rhs_err
               + gamma * (np.abs(rows[:, :deg + 1]) @ np.abs(f) + np.abs(rhs)))
        value = np.sum(np.abs(f))
        upper = (value + res @ norms) * (1 + gamma)
        certified = (1 - _CERT_REL_WIDTH) * upper <= lower <= value
        beyond = np.nonzero(g[deg + 1:] > 1)[0]
        if certified or beyond.size == 0 or deg + 1 >= _COLUMN_BUDGET:
            return value, f, lower, upper, bool(certified)
        deg = min(deg + 1 + int(beyond[-1]), _COLUMN_BUDGET - 1)
        f, y = _interpolate(posed[:, :deg + 1], rhs)


def _start_degree(spec: SpectrumSpec) -> int:
    """Degree the certified programs start from: the coefficient support
    ``blaschke.support_estimate``, ~|m|/alpha0, with at least 64 and at most
    _COLUMN_BUDGET columns.  The dual prices in any column it leaves out."""
    return min(max(blaschke.support_estimate(spec.points), 64), _COLUMN_BUDGET) - 1


def phi_exact_truncated(spec: SpectrumSpec) -> PhiResult:
    """Truncated phi: min over polynomials h of sum_{k>=1} |h_k| subject to
    h(0) = a0 = prod lambda_i and an m_i-fold zero at each lambda_i, from
    the coefficient support (``_start_degree``) with the columns its dual
    prices in.

    This is the zeta = 0 resolvent program (Remark 5): h = a0 (1 + z f) is
    feasible exactly when f matches the jets of 1/(0 - z) = -1/z on the
    spectrum, and then sum_{k>=1} |h_k| = |a0| ||f||_1, so phi is |a0|
    times the interpolation norm.  It is converged when the long-double
    ||f||_1 it is formed from lies in the verified bracket of
    ``_certified_interpolate``; |a0| and the product add ~1e-14 relative.
    A non-real spectrum is a ``DomainError``, and a program whose rows the
    simplex finds dependent a ``SimplexError``.
    """
    spec.require_nonzero()
    spec.require_interior()
    norm, _, _, _, certified = _certified_interpolate(spec, 0j, _start_degree(spec))
    return PhiResult(value=float(LD(abs(spec.eigen_product())) * norm), converged=certified)


def phi_lower_bound(spec: SpectrumSpec) -> float:
    """Coefficient-norm lower bound for phi:
    max(0, 1/||(1-z^2) B||_linfA - prod |lambda_i|) with B the full
    Blaschke product of the spectrum, its coefficients extracted up to
    ``blaschke.support_estimate``."""
    spec.require_interior()
    K = blaschke.support_estimate(spec.points)
    norm = blaschke.weight_series(blaschke.blaschke_power_coeffs(spec.points, K)).linf
    return max(0.0, 1.0 / norm - abs(spec.eigen_product()))


def schaeffer_upper(n: int) -> float:
    """sqrt(e n), the classical determinant-inverse upper bound."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return math.sqrt(math.e * n)


def resolvent_interpolation_norm(spec: SpectrumSpec, zeta: complex) -> float:
    """inf{||f||_W : f matches the jets of 1/(zeta - z) on the spectrum},
    from the coefficient support (``_start_degree``) with the columns its dual
    prices in (see ``_certified_interpolate``).  Scaled by |B(zeta)| in the
    harness to exhibit resolvent growth.  ``nan`` when the bracket does not
    certify the value (the column budget ran out first).  A non-real
    spectrum or zeta, or a zeta at an eigenvalue, is a ``DomainError``, and
    a program whose rows the simplex finds dependent a ``SimplexError``."""
    spec.require_interior()
    value, _, _, _, certified = _certified_interpolate(spec, complex(zeta), _start_degree(spec))
    return float(value) if certified else math.nan
