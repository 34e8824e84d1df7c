"""Taylor coefficients of Blaschke powers b_lambda^n and (1-z^2) b_lambda^n.

The Moebius factor b_lambda(z) = (z - lambda)/(1 - conj(lambda) z) is inner,
so on the unit circle |b_lambda| = 1 and the coefficient sequence of
b_lambda^n has unit l2 norm (Parseval).  Coefficients are computed by an
FFT of samples on the circle.  Only the phase is sampled, arg b_lambda(e^{it})
= t - 2 arg(1 - conj(lambda) e^{it}), so b^n = exp(i n arg b) is unimodular to
rounding and far cheaper than the complex power.  ``circle_fft`` doubles
the transform size until two successive coefficient vectors agree to
ALIAS_TOL in sup norm; aliasing of a function analytic in |z| < 1/|lambda|
dies off geometrically, so the doubling test is a cheap certified stop.

For coefficients far outside the dominant index range [alpha0*n, n/alpha0]
(alpha0 = (1-lambda)/(1+lambda)) the values underflow double precision.
``log_weighted_coeff_magnitude`` extracts them on a circle through the
decaying saddle of the coefficient integral instead, where the integrand
maximum matches the coefficient size and only log-magnitudes are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

ALIAS_TOL = 1e-12
MAX_FFT_SIZE = 1 << 26


@dataclass(frozen=True)
class MoebiusParam:
    """A Blaschke factor b_lambda raised to the power n."""

    lam: complex
    n: int

    def __post_init__(self):
        if abs(self.lam) >= 1:
            raise DomainError(f"|lambda| = {abs(self.lam)} must be < 1")
        if self.n < 1:
            raise DomainError("power n must be >= 1")

    @property
    def alpha0(self) -> float:
        """Critical ratio (1-|lambda|)/(1+|lambda|) of the dominant region."""
        r = abs(self.lam)
        return (1 - r) / (1 + r)


@dataclass
class CoefficientSeries:
    """Finite coefficient vector c[0..K]; ``param`` names the Blaschke power
    it was extracted from, if any."""

    coeffs: np.ndarray
    param: MoebiusParam | None = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise DomainError("coefficient vector must be 1-d and nonempty")

    @property
    def max_index(self) -> int:
        return self.coeffs.size - 1

    @property
    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    @property
    def linf(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


def support_estimate(points) -> int:
    """Smallest K covering the dominant coefficient region of
    prod_i b_{lambda_i}^{m_i}, for points [(lambda_i, m_i)], with an
    Airy-width margin: ceil(|m|/alpha0) + 8*ceil(|m|^(1/3)), where
    |m| = sum_i m_i and alpha0 = (1-rho)/(1+rho) for rho = max_i |lambda_i|.
    Past it the coefficients decay geometrically."""
    degree = sum(m for _, m in points)
    rho = max(abs(lam) for lam, _ in points)
    alpha0 = (1 - rho) / (1 + rho)
    return int(np.ceil(degree / alpha0)) + 8 * int(np.ceil(degree ** (1 / 3)))


def default_coeff_count(p: MoebiusParam) -> int:
    """``support_estimate`` of b_lambda^n: ceil(n/alpha0) + 8*ceil(n^(1/3))."""
    return support_estimate([(p.lam, p.n)])


def circle_phase(points, size: int) -> np.ndarray:
    """Phase of prod_i b_{lambda_i}^{m_i} at the size-th roots of unity, for
    points [(lambda_i, m_i)]: sum_i m_i (t - 2 arg(1 - conj(lambda_i) e^{it}))."""
    j = np.arange(size)
    winding = sum(m for _, m in points)
    phase = (2 * np.pi / size) * ((winding * j) % size)
    z = np.exp((2j * np.pi / size) * j)
    for lam, m in points:
        phase -= 2 * m * np.angle(1 - np.conj(lam) * z)
    return phase


def circle_fft(points, K: int, need: int) -> np.ndarray:
    """Coefficients c[0..K] of prod_i b_{lambda_i}^{m_i} from its phase samples,
    by circle FFTs doubled from size >= 4 need until two agree to ALIAS_TOL."""
    size = 1 << int(np.ceil(np.log2(4 * need)))
    prev = None
    while True:
        if size > MAX_FFT_SIZE:
            raise ResourceError(f"FFT size {size} exceeds budget {MAX_FFT_SIZE}")
        c = np.fft.fft(np.exp(1j * circle_phase(points, size))) / size
        cur = c[: K + 1].copy()
        if prev is not None and np.max(np.abs(cur - prev)) < ALIAS_TOL:
            return cur
        prev = cur
        size *= 2


def blaschke_power_coeffs(p: MoebiusParam, K: int) -> CoefficientSeries:
    """Coefficients c[0..K] of b_lambda^n by adaptive-size circle FFT."""
    if K < 1:
        raise DomainError("K must be >= 1")
    c = circle_fft([(p.lam, p.n)], K, max(K + 1, default_coeff_count(p)))
    return CoefficientSeries(c, p)


def weighted_coeffs(p: MoebiusParam, K: int) -> CoefficientSeries:
    """Coefficients of (1-z^2) b_lambda^n, c[0..K]."""
    if K < 2:
        raise DomainError("K must be >= 2")
    return weight_series(blaschke_power_coeffs(p, K))


def weight_series(base: CoefficientSeries) -> CoefficientSeries:
    """(1-z^2) times a stored series, by the split c_w(k) = c(k) - c(k-2)
    for k >= 2, c_w(k) = c(k) for k < 2 (same length)."""
    c = base.coeffs
    w = c.copy()
    w[2:] = c[2:] - c[:-2]
    return CoefficientSeries(w, base.param)


def linf_A_norm(s: CoefficientSeries) -> float:
    """sup_k |c(k)| over the stored range.

    For a series extracted from a Blaschke power the stored range must reach
    past the dominant region, K >= ceil(n/alpha0); otherwise the sup would be
    read off a truncation that can miss the slowest-decaying coefficient.
    """
    if s.param is not None:
        needed = int(np.ceil(s.param.n / s.param.alpha0))
        if s.max_index < needed:
            raise DomainError(
                f"series truncated at K={s.max_index} before the dominant "
                f"region (needs K >= {needed})"
            )
    return s.linf


def parseval_defect(s: CoefficientSeries) -> float:
    """1 - sum |c(k)|^2; near 0 for a sufficiently long inner-function series."""
    return 1.0 - s.l2 ** 2


def _decaying_saddle_radius(lam: float, a: float) -> float:
    """Radius through the saddle of the coefficient integral at which the
    exponent -f decays, i.e. the stationary point z* of f with f(z*) > 0."""
    M = (a * (1 + lam ** 2) - (1 - lam ** 2)) / (2 * lam * a)
    if M * M <= 1:
        raise DomainError("index ratio a inside the dominant region; use the plain FFT")
    s = np.sqrt(M * M - 1)
    for z in (M + s, M - s):
        fv = a * np.log(abs(z)) + np.log(abs(1 - lam * z)) - np.log(abs(z - lam))
        if fv > 0:
            return abs(z)
    raise DomainError("no decaying saddle found")


def log_weighted_coeff_magnitude(lam: float, n: int, k: int, window: int = 0) -> np.ndarray:
    """log |c_w(j)| for 0 <= j in [k-window, k+window], far below underflow.

    Samples (1-z^2) b_lambda^n on the circle through the decaying saddle of
    the coefficient integral, rescaled by its maximum modulus so that all
    intermediate values stay representable; only logarithms are returned.
    Requires real lambda in (0,1) and k/n outside the dominant region.
    """
    if not (0 < lam < 1):
        raise DomainError("lambda must be real in (0,1)")
    a = k / n
    r = _decaying_saddle_radius(lam, a)
    size = 1 << int(np.ceil(np.log2(8 * (k + 16))))
    if size > MAX_FFT_SIZE:
        raise ResourceError("FFT size exceeds budget")
    th = 2 * np.pi * np.arange(size) / size
    z = r * np.exp(1j * th)
    log_mod = n * (np.log(np.abs(z - lam)) - np.log(np.abs(1 - lam * z)))
    scale = log_mod.max()
    phase = n * (np.angle(z - lam) - np.angle(1 - lam * z))
    vals = (1 - z * z) * np.exp(log_mod - scale + 1j * phase)
    c = np.fft.fft(vals) / size
    js = np.arange(max(0, k - window), k + window + 1)
    mags = np.maximum(np.abs(c[js]), 1e-300)
    return np.log(mags) + scale - js * np.log(r)
