"""Taylor coefficients of Blaschke powers b_lambda^n and (1-z^2) b_lambda^n.

The Moebius factor b_lambda(z) = (z - lambda)/(1 - conj(lambda) z) is inner,
so on the unit circle |b_lambda| = 1 and the coefficient sequence of
b_lambda^n has unit l2 norm (Parseval).  The one entry point,
``blaschke_power_coeffs(points, K)``, extracts the coefficients of a product
prod_i b_{lambda_i}^{m_i} of a real spectrum by a real inverse FFT of
samples on the circle; a sup norm is read up to K >= ``support_estimate``,
past the dominant region.  Only the phase is sampled,
arg b_lambda(e^{it}) = t - 2 arg(1 - lambda e^{it}), so b^n = exp(i n arg b)
is unimodular to rounding and far cheaper than the complex power.  For real
lambda_i the product has real coefficients, so its samples are Hermitian,
B(e^{-it}) = conj B(e^{it}): the samples at j = 0..N/2 of the N-th roots of
unity determine the rest, and ``np.fft.irfft`` of their conjugates returns
the real coefficients (Trefethen & Weideman, SIAM Rev. 2014).  One
transform runs, sized in advance: b^n is analytic in |z| < 1/|lambda| and
bounded there by ``log_max_modulus``, so the aliasing of an N-point
transform is at most min_r M(r) r^-N / (1 - r^-N) (Trefethen & Weideman;
Bornemann, Found. Comput. Math. 2011), and the size is the smallest power
of two past K at which that is <= ALIAS_TOL.  It returns a stated error
bound with the coefficients, which are stored as real numbers.

For coefficients far outside the dominant index range [alpha0*n, n/alpha0]
(alpha0 = (1-lambda)/(1+lambda)) the values underflow double precision.
``log_weighted_coeff_magnitude`` extracts them on a circle |z| = r instead,
the caller's radius (``asymptotics`` passes the decaying saddle of the
coefficient integral, where the integrand maximum matches the coefficient
size), and forms only log-magnitudes.  It samples the upper half of that
circle and reads the bins of one real inverse FFT, for the same reason.
Its transform is sized by the same Cauchy bound on both sides of r: with
M(R) the maximum of |b^n| on |z| = R, the coefficients of (1-z^2) b^n obey
|c_i| <= (1+R^2) M(R) R^-i for every 0 < R < 1/lambda, so bins lo..hi of
an N-point transform scaled by M(r) alias at most
min_{r<R<1/lambda} (1+R^2) M(R)/M(r) (r/R)^(lo+N) / (1 - (r/R)^N) from
above, plus, once N <= hi, min_{0<R<r} (1+R^2) M(R)/M(r) (r/R)^(hi-N) /
(1 - (R/r)^N) from below.  N is the smallest power of two past hi - lo at
which the sum is <= ALIAS_TOL, and index j is read from bin j mod N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

ALIAS_TOL = 1e-12
MAX_FFT_SIZE = 1 << 26


@dataclass
class CoefficientSeries:
    """Finite real coefficient vector c[0..K]; ``error`` bounds the error
    of every stored coefficient.  A complex vector is a DomainError."""

    coeffs: np.ndarray
    error: float

    def __post_init__(self):
        if np.iscomplexobj(self.coeffs):
            raise DomainError("coefficient vector must be real")
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise DomainError("coefficient vector must be 1-d and nonempty")

    @property
    def max_index(self) -> int:
        return self.coeffs.size - 1

    @property
    def l2(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs ** 2)))

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


def circle_phase(points, size: int) -> np.ndarray:
    """Phase of prod_i b_{lambda_i}^{m_i} at e^{it}, t = 2 pi j/size for
    j = 0..size/2 (the upper half circle), for points [(lambda_i, m_i)]:
    sum_i m_i (t - 2 arg(1 - conj(lambda_i) e^{it}))."""
    j = np.arange(size // 2 + 1)
    winding = sum(m for _, m in points)
    phase = (2 * np.pi / size) * ((winding * j) % size)
    z = np.exp((2j * np.pi / size) * j)
    for lam, m in points:
        phase -= 2 * m * np.angle(1 - np.conj(lam) * z)
    return phase


def log_max_modulus(points, r):
    """Bound on log max_{|z|=r} |prod_i b_{lambda_i}^{m_i}(z)| for each radius
    0 < r < 1/max|lambda_i|: sum_i m_i log((r - |lambda_i|)/(1 - |lambda_i| r))
    for r >= 1, and sum_i m_i log((r + |lambda_i|)/(1 + |lambda_i| r)) for r < 1.

    |b_mu(r e^{it})|^2 = 1 + (r^2-1)(1-|mu|^2)/|1 - conj(mu) z|^2, so for
    r >= 1 max |b_mu| is reached where |1 - conj(mu) z| is least, at
    z = r mu/|mu|, and for r < 1 where it is largest, at z = -r mu/|mu|.
    Exact for a single factor, and for factors on one ray; a sum of maxima
    otherwise."""
    r = np.asarray(r, dtype=float)
    sign = np.where(r < 1, 1.0, -1.0)
    return sum(m * (np.log(r + sign * abs(lam)) - np.log1p(sign * abs(lam) * r))
               for lam, m in points)


def _alias_size(span: int, tails):
    """(size, bound): the smallest power of two size > span at which the
    alias bound is <= ALIAS_TOL.  ``tails(size)`` lists the alias tails of
    a size-point transform, each (log_a, x, first) on a grid of radii: with
    q = e^-x < 1 the tail is sum_{t>=1} a q^(first + t size)
    = a q^(first + size) / (1 - q^size), any grid point bounds it, and the
    bound sums the tails' minima over their grids.  Past MAX_FFT_SIZE it is
    a ResourceError, raised before any sample is formed."""
    size = 1 << int(span).bit_length()
    while size <= MAX_FFT_SIZE:
        log_bound = np.logaddexp.reduce([
            np.min(log_a - (first + size) * x - np.log(-np.expm1(-size * x)))
            for log_a, x, first in tails(size)])
        if log_bound <= np.log(ALIAS_TOL):
            return size, float(np.exp(log_bound))
        size *= 2
    raise ResourceError(f"no FFT size up to {MAX_FFT_SIZE} holds {span + 1} "
                        "coefficients within ALIAS_TOL")


def blaschke_power_coeffs(points, K: int) -> CoefficientSeries:
    """Real coefficients c[0..K] of B = prod_i b_{lambda_i}^{m_i} from its
    phase samples by one real inverse FFT, for points [(lambda_i, m_i)] of a
    real spectrum, with a bound err on |c_k - exact c_k| for every k as the
    series' ``error``.  B has real coefficients, so its samples at
    z_j = e^{2 pi i j/size} and at z_{size-j} are conjugate: those at
    j = 0..size/2 are formed, and irfft of their conjugates reads them as
    the whole circle.  The size is the smallest power of two >= K+1 whose
    alias bound is <= ALIAS_TOL (``_alias_size``): by Cauchy
    |c_k| <= M(r) r^-k for 1 < r < 1/max|lambda_i|, M(r) =
    exp(log_max_modulus(points, r)), and a size-point FFT adds c_{k+t size},
    t >= 1, to c_k, so min_r M(r) r^-size / (1 - r^-size), over 256 radii
    up to 1/max(rho, 1e-3), caps the aliasing of every coefficient.

    err adds three terms, with eps = 2^-52, |m| = sum_i m_i and P points:
    * the alias bound;
    * the sample error, to first order in eps: each phase is off by at most
      eps (P pi (|m|+2) + 16 sum_i m_i/(1 - |lambda_i|) + 8).  The winding
      term is off by 2 pi eps, and the running phase stays below
      pi (|m|+2), so each of its P sums rounds by pi (|m|+2) eps / 2.  The
      angle of z_j is off by 2 pi eps, which 2 m_i arg(1 - conj(lambda_i) z)
      amplifies by at most 2 m_i |lambda_i|/(1 - |lambda_i|); forming
      1 - conj(lambda_i) z_j, its argument and the product by 2 m_i add
      (4.2 + 3.3 |lambda_i|/(1 - |lambda_i|)) m_i eps, so each point costs
      below 16 m_i eps/(1 - |lambda_i|); exp adds one eps.  A unimodular
      sample is off by at most its phase error, and the DFT, an average,
      keeps that bound on every coefficient.  A mirrored sample
      conj B(z_j) stands for B(z_{size-j}) and is off by as much as
      B(z_j), so the bound covers the whole circle.  irfft ignores the
      imaginary parts of the samples at z = 1 and z = -1, which can only
      bring them closer, as B(1) = 1 and B(-1) = (-1)^|m| exactly;
    * the transform's rounding, log2(size) eta with eta = 7u = 3.5 eps:
      the normwise bound Higham proves for radix-2 Cooley-Tukey with
      accurate twiddles (Accuracy and Stability of Numerical Algorithms,
      2nd ed., sec. 24.1).  numpy's power-of-two irfft is taken to meet it
      as the complex transform of the full Hermitian sequence would, i.e.
      the real algorithm is assumed to round no worse than the complex
      transform it halves.  The samples' l2 norm is sqrt(size), so after
      the exact division by size that bound holds for each coefficient.
    K < 1, any |lambda_i| >= 1, any non-real lambda_i or any m_i < 1 is a
    DomainError.  A K + 1 or a chosen size past MAX_FFT_SIZE is a
    ResourceError, raised before any sample is formed."""
    if K < 1 or any(abs(lam) >= 1 or m < 1 for lam, m in points):
        raise DomainError(f"K = {K} must be >= 1, every |lambda| < 1 and every power >= 1")
    if any(complex(lam).imag != 0 for lam, _ in points):
        raise DomainError("the spectrum must be real")
    points = [(complex(lam).real, m) for lam, m in points]
    rho = max(max(abs(lam) for lam, _ in points), 1e-3)
    log_r = -np.log(rho) * np.geomspace(1e-4, 0.999, 256)
    log_m = log_max_modulus(points, np.exp(log_r))
    size, alias = _alias_size(K, lambda size: [(log_m, log_r, 0)])
    c = np.fft.irfft(np.exp(-1j * circle_phase(points, size)), size)[: K + 1]
    eps = np.finfo(float).eps
    degree = sum(m for _, m in points)
    sample = eps * (len(points) * np.pi * (degree + 2)
                    + 16 * sum(m / (1 - abs(lam)) for lam, m in points) + 8)
    return CoefficientSeries(c, alias + sample + 3.5 * eps * np.log2(size))


def weight_series(base: CoefficientSeries) -> CoefficientSeries:
    """(1-z^2) times a stored series, by the split c_w(k) = c(k) - c(k-2)
    for k >= 2, c_w(k) = c(k) for k < 2 (same length).  The error bound
    doubles, plus the difference's rounding (|c(k)| <= 1 for an inner
    function's coefficients)."""
    c = base.coeffs
    w = c.copy()
    w[2:] = c[2:] - c[:-2]
    return CoefficientSeries(w, 2 * base.error + np.finfo(float).eps)


def _contour_tails(lam: float, n: int, r: float, lo: int, hi: int):
    """``_alias_size`` tails of the transform in ``log_weighted_coeff_magnitude``:
    (1-z^2) b_lambda^n on |z| = r, scaled by M(r), read at bins lo..hi.

    Cauchy on |z| = R < 1/lambda gives |c_i| <= (1+R^2) M(R) R^-i, and
    bin i mod size adds every c_{i +- t size} r^(i +- t size) / M(r), so
    * from above, over r < R < 1/lambda: (1+R^2) M(R)/M(r) (r/R)^(lo+size)
      / (1 - (r/R)^size);
    * from below, over 0 < R < r and only while size <= hi: (1+R^2)
      M(R)/M(r) (r/R)^(hi-size) / (1 - (R/r)^size).
    Each side takes 400 radii, geometric in log(R/r)."""
    log_m = log_max_modulus([(lam, n)], r)

    def log_a(x):
        R = r * np.exp(x)
        return np.log1p(R * R) + log_max_modulus([(lam, n)], R) - log_m

    x_up = -np.log(lam * r) * np.geomspace(1e-6, 0.999, 400)
    x_down = np.geomspace(1e-6, 40, 400)
    above = (log_a(x_up), x_up, lo)
    below = (log_a(-x_down), x_down, -hi)
    return lambda size: [above, below] if size <= hi else [above]


def log_weighted_coeff_magnitude(lam: float, n: int, k: int, r: float,
                                 window: int = 0) -> np.ndarray:
    """log |c_w(j)| for 0 <= j in [k-window, k+window], far below underflow.

    Samples (1-z^2) b_lambda^n on the upper half of the circle |z| = r,
    rescaled by its maximum modulus M(r) so that all intermediate values
    stay representable; only logarithms are returned.  The coefficients are
    real, so the samples are Hermitian and one irfft of their conjugates
    reads them.  The transform is the smallest power of two past the
    window whose Cauchy alias bound (``_contour_tails``) is <= ALIAS_TOL,
    and c_w(j) is read from bin j mod size.  The radius through the
    decaying saddle of the coefficient integral at k/n, where the integrand
    maximum matches the coefficient size, keeps the transform short.
    Requires real lambda in (0,1) and 0 < r < 1/lambda.
    """
    if not (0 < lam < 1 and 0 < r < 1 / lam):
        raise DomainError(f"need 0 < lambda < 1 and 0 < r < 1/lambda; got {lam}, {r}")
    lo, hi = max(0, k - window), k + window
    size, _ = _alias_size(hi - lo, _contour_tails(lam, n, r, lo, hi))
    z = r * np.exp(1j * (2 * np.pi * np.arange(size // 2 + 1) / size))
    num, den = z - lam, 1 - lam * z
    log_mod = n * (np.log(np.abs(num)) - np.log(np.abs(den)))
    scale = log_mod.max()  # log M(r): z = r is a sample, and z = -r for even size
    phase = n * (np.angle(num) - np.angle(den))
    vals = (1 - z * z) * np.exp(log_mod - scale + 1j * phase)
    c = np.fft.irfft(vals.conj(), size)
    js = np.arange(lo, hi + 1)
    mags = np.maximum(np.abs(c[js % size]), 1e-300)
    return np.log(mags) + scale - js * np.log(r)
