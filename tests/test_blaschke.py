import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schaeffer import asymptotics, blaschke
from schaeffer.blaschke import (
    CoefficientSeries,
    blaschke_power_coeffs,
    log_weighted_coeff_magnitude,
    support_estimate,
    weight_series,
)
from schaeffer.errors import DomainError, ResourceError


def _saddle_radius(lam, n, k):
    """The contour radius ``asymptotics.decay_exponent_fit`` passes: |z_plus|
    at k/n, the saddle with Re f >= 0."""
    return abs(asymptotics._pick_saddles(lam, k / n)[0])


def _contour(lam, n, k, window=0):
    """``log_weighted_coeff_magnitude`` on the circle through that saddle."""
    return log_weighted_coeff_magnitude(lam, n, k, _saddle_radius(lam, n, k), window=window)


def _weighted(lam, n, K):
    """Coefficients 0..K of (1-z^2) b_lambda^n."""
    return weight_series(blaschke_power_coeffs([(lam, n)], K))


def _moebius_coeff(lam, k):
    """k-th Taylor coefficient of b_lambda: -lambda at k = 0, (1-|lambda|^2)
    conj(lambda)^(k-1) for k >= 1 (geometric expansion of the denominator)."""
    return -lam if k == 0 else (1 - abs(lam) ** 2) * np.conj(lam) ** (k - 1)


class TestMoebiusCoeff:
    """The extracted coefficients of b_lambda against the closed form."""

    def test_constant_term(self):
        assert blaschke_power_coeffs([(0.5, 1)], 2).coeffs[0] == pytest.approx(
            -0.5, abs=1e-15)

    def test_first_terms(self):
        # geometric expansion: c(1) = 1 - lambda^2, c(2) = (1 - lambda^2) lambda
        c = blaschke_power_coeffs([(0.5, 1)], 40).coeffs
        assert np.allclose(c, [_moebius_coeff(0.5, k) for k in range(41)], rtol=0, atol=1e-15)

    def test_domain(self):
        # a point on or outside the unit circle or off the real axis,
        # anywhere in the spectrum, and a K below 1 are domain errors
        for points in ([(1.0, 1)], [(1.2, 1)], [(0.3, 2), (-1.0, 1)],
                       [(0.6j, 1), (0.8 + 0.6j, 3)], [(0.3 + 0.4j, 1)],
                       [(0.5, 2), (0.2 - 1e-9j, 1)]):
            with pytest.raises(DomainError):
                blaschke_power_coeffs(points, 8)
        for K in (0, -1):
            with pytest.raises(DomainError):
                blaschke_power_coeffs([(0.5, 1)], K)


def test_moebius_param_validation():
    # a Blaschke factor needs |lambda| < 1 and a power n >= 1
    with pytest.raises(DomainError):
        blaschke_power_coeffs([(1.2, 1)], 8)
    with pytest.raises(DomainError):
        blaschke_power_coeffs([(0.5, 0)], 8)


class TestPowerCoeffs:
    def test_n1_matches_closed_form(self):
        s = blaschke_power_coeffs([(0.5, 1)], 2)
        assert np.allclose(s.coeffs, [-0.5, 0.75, 0.375], atol=1e-13)

    def test_parseval_inner_function(self):
        s = blaschke_power_coeffs([(0.5, 64)], 1024)
        assert abs(1 - s.l2 ** 2) < 1e-10

    def test_value_outside_dominant_range(self):
        # oracle: single-shot FFT of size 2^16 (no doubling loop)
        n, k = 64, 16
        size = 1 << 16
        z = np.exp(2j * np.pi * np.arange(size) / size)
        oracle = (np.fft.fft(((z - 0.5) / (1 - 0.5 * z)) ** n) / size)[k]
        s = blaschke_power_coeffs([(0.5, n)], 32)
        assert abs(s.coeffs[k] - oracle) < 1e-12
        # k/n = 1/4 sits left of the dominant range: small but not yet
        # exponentially negligible at n = 64
        assert abs(oracle) == pytest.approx(2.6700882795731478e-3, rel=1e-9)

    def test_constant_coefficient_sign(self):
        for lam, n in [(0.5, 3), (0.7, 4), (0.25, 7)]:
            s = blaschke_power_coeffs([(lam, n)], 4)
            assert s.coeffs[0] == pytest.approx((-lam) ** n, abs=1e-13)

    def test_realness_for_real_lambda(self):
        s = blaschke_power_coeffs([(0.5, 32)], 256)
        assert np.max(np.abs(s.coeffs.imag)) < 1e-12 * np.max(np.abs(s.coeffs.real))

    def test_resource_budget(self, monkeypatch):
        # raised before any sample is formed, for a K past the budget and for
        # a support (~2e9 coefficients) whose alias bound needs a longer FFT
        def no_samples(points, size):
            raise AssertionError(f"{size} samples formed")

        monkeypatch.setattr(blaschke, "circle_phase", no_samples)
        with pytest.raises(ResourceError):
            blaschke_power_coeffs([(0.5, 2)], blaschke.MAX_FFT_SIZE)
        with pytest.raises(ResourceError):
            blaschke_power_coeffs([(0.9999, 100000)], 64)


class TestCircleSamples:
    def test_samples_unimodular(self):
        # b_lambda is inner: the phase-only samples have modulus 1 to rounding
        vals = np.exp(1j * blaschke.circle_phase([(0.65, 4096)], 1 << 17))
        assert np.max(np.abs(np.abs(vals) - 1)) <= 4 * 2.0 ** -52

    @pytest.mark.parametrize("lam", [0.65, -0.4, 0.35 + 0.3j])
    def test_samples_match_complex_power(self, lam):
        # the phases cover the upper half circle, j = 0..size/2
        n, size = 7, 256
        z = np.exp(2j * np.pi * np.arange(size // 2 + 1) / size)
        direct = ((z - lam) / (1 - np.conj(lam) * z)) ** n
        vals = np.exp(1j * blaschke.circle_phase([(lam, n)], size))
        assert np.max(np.abs(vals - direct)) < 1e-13


# real spectra, whose coefficients the circle transforms extract
SPECTRA = {
    "positive": [(0.5, 7)],
    "negative": [(-0.65, 5)],
    "two-point": [(0.35, 4), (-0.45, 3)],
    "mixed": [(0.3, 2), (-0.6, 3), (0.2, 1)],
}
# log_max_modulus bounds the product for any spectrum inside the disk
ENVELOPE_SPECTRA = {
    "positive": SPECTRA["positive"],
    "negative": SPECTRA["negative"],
    "complex": [(0.35 + 0.3j, 4)],
    "mixed": [(0.3, 2), (-0.6, 3), (0.2 - 0.5j, 1)],
}


class TestCircleFFT:
    @pytest.mark.parametrize("name", sorted(ENVELOPE_SPECTRA))
    def test_envelope_dominates_sampled_maximum(self, name):
        points = ENVELOPE_SPECTRA[name]
        rho = max(abs(lam) for lam, _ in points)
        # the circle, and the directions lam/|lam| where each factor peaks
        z = np.append(np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14)),
                      [lam / abs(lam) for lam, _ in points])
        for t in np.linspace(0.05, 0.95, 8):
            r = rho ** -t
            logs = sum(m * np.log(np.abs((r * z - lam) / (1 - np.conj(lam) * r * z)))
                       for lam, m in points)
            bound = blaschke.log_max_modulus(points, r)
            assert bound >= np.max(logs) - 1e-12 * abs(bound), (name, t)
            if len(points) == 1:  # exact for one factor
                assert bound == pytest.approx(logs[-1], rel=1e-12)

    @pytest.mark.parametrize("points", [[(0.6, 1)], [(0.35 + 0.3j, 1)],
                                        [(0.45, 3), (-0.4 + 0.25j, 2)]])
    def test_envelope_inside_and_outside_the_unit_circle(self, points):
        # for r < 1 a factor peaks at z = -r mu/|mu|, for r >= 1 at r mu/|mu|
        for r in (0.1, 0.5, 0.99, 1.0, 1.3):
            peaks = [(1 if r >= 1 else -1) * r * lam / abs(lam) for lam, _ in points]
            z = np.append(r * np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14)), peaks)
            logs = sum(m * np.log(np.abs((z - lam) / (1 - np.conj(lam) * z)))
                       for lam, m in points)
            bound = blaschke.log_max_modulus(points, r)
            assert bound >= np.max(logs) - 1e-12, (points, r)
            if len(points) == 1:
                assert bound == pytest.approx(logs[-1], abs=1e-12)

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_within_stated_bound_of_direct_power_fft(self, name):
        points = SPECTRA[name]
        K = blaschke.support_estimate(points)
        s = blaschke_power_coeffs(points, K)
        c, err = s.coeffs, s.error
        size = 16 * (1 << K.bit_length())
        z = np.exp(2j * np.pi * np.arange(size) / size)
        vals = np.prod([((z - lam) / (1 - np.conj(lam) * z)) ** m for lam, m in points], axis=0)
        oracle = (np.fft.fft(vals) / size)[: K + 1]
        assert 0 < err < 1e-12
        assert np.max(np.abs(c - oracle)) <= err

    def test_one_transform_sized_by_the_bound(self, monkeypatch):
        # lambda 0.5, n 8192: K = 24744 fits one 32768-point transform
        sizes = []
        irfft = np.fft.irfft

        def counted(a, *args, **kwargs):
            c = irfft(a, *args, **kwargs)
            sizes.append(c.size)
            return c

        monkeypatch.setattr(np.fft, "irfft", counted)
        s = _weighted(0.5, 8192, support_estimate([(0.5, 8192)]))
        assert sizes == [32768]
        assert s.error < 1e-9
        blaschke_power_coeffs(SPECTRA["mixed"], support_estimate(SPECTRA["mixed"]))
        assert len(sizes) == 2

    def test_error_bound_travels_with_the_series(self):
        base = blaschke_power_coeffs([(0.5, 64)], 256)
        assert 0 < base.error < 1e-12
        assert weight_series(base).error == 2 * base.error + np.finfo(float).eps

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("lam", [0.35, 0.5, 0.65])
    def test_within_stated_bound_of_exact_binomial_sums(self, lam, n):
        # b^n = (z - lam)^n (1 - lam z)^-n, so c(k) = sum_j a(j) g(k-j) with
        # a(j) = C(n, j) (-lam)^(n-j) and g(i) = C(n-1+i, i) lam^i; the sum
        # cancels terms up to ((1+lam)/(1-lam))^n, which 0.8 n + 60 digits
        # hold for lam <= 0.65
        K = support_estimate([(lam, n)])
        s = blaschke_power_coeffs([(lam, n)], K)
        with mp.workdps(int(0.8 * n) + 60):
            L = mp.mpf(lam)
            a = [mp.binomial(n, j) * (-L) ** (n - j) for j in range(n + 1)]
            g = [mp.mpf(1)]
            for i in range(1, K + 1):
                g.append(g[-1] * L * (n - 1 + i) / i)
            exact = [float(mp.fdot(a[: min(n, k) + 1], g[k::-1])) for k in range(K + 1)]
        assert s.coeffs.dtype == np.float64
        assert np.max(np.abs(s.coeffs - exact)) <= s.error


class TestWeightedCoeffs:
    def test_hand_convolution_n1(self):
        # c_w(k) = c(k) - c(k-2) applied to the geometric series of b_0.5
        s = _weighted(0.5, 1, 4)
        assert np.allclose(s.coeffs, [-0.5, 0.75, 0.875, -0.5625, -0.28125], atol=1e-13)

    def test_split_identity_exact(self):
        base = blaschke_power_coeffs([(0.5, 8)], 64).coeffs
        w = _weighted(0.5, 8, 64).coeffs
        # same arithmetic path, so the identity is exact
        assert np.all(w[2:] == base[2:] - base[:-2])
        assert np.all(w[:2] == base[:2])

    def test_matches_direct_fft_of_weighted_function(self):
        n, K = 12, 96
        size = 1 << 12
        z = np.exp(2j * np.pi * np.arange(size) / size)
        vals = (1 - z * z) * ((z - 0.5) / (1 - 0.5 * z)) ** n
        oracle = (np.fft.fft(vals) / size)[: K + 1]
        s = _weighted(0.5, n, K)
        assert np.max(np.abs(s.coeffs - oracle)) < 1e-12


class TestLinfNorm:
    def test_small_weighted_series(self):
        s = _weighted(0.5, 1, 4)
        assert s.linf == pytest.approx(0.875, abs=1e-13)

    def test_zero_padding_invariant(self):
        s = _weighted(0.5, 4, 40)
        padded = CoefficientSeries(np.concatenate([s.coeffs, np.zeros(50)]), s.error)
        assert padded.linf == s.linf

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=0.99),
                              st.floats(min_value=-math.pi, max_value=math.pi),
                              st.integers(min_value=1, max_value=10 ** 6)),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_support_reaches_past_the_dominant_region(self, drawn):
        # every sup norm is read up to support_estimate, which must reach
        # the dominant region's end ceil(|m|/alpha0): a truncation before it
        # could miss the slowest-decaying coefficient
        points = [(r * np.exp(1j * t), m) for r, t, m in drawn]
        rho = max(r for r, _, _ in drawn)
        degree = sum(m for _, _, m in drawn)
        assert support_estimate(points) >= math.ceil(degree / ((1 - rho) / (1 + rho)))

    @pytest.mark.parametrize("lam,n", [(0.3, 64), (0.5, 64), (0.8, 16), (-0.6, 32)])
    def test_sup_read_at_the_support_is_the_whole_sup(self, lam, n):
        # the sup over four times the support is taken inside the support
        K = support_estimate([(lam, n)])
        short, long = _weighted(lam, n, K), _weighted(lam, n, 4 * K)
        assert np.argmax(np.abs(long.coeffs)) <= K
        assert abs(short.linf - long.linf) <= short.error + long.error

    def test_sqrt_n_envelope_small_grid(self):
        # n * norm^2 stays in a fixed positive band
        for lam in (0.3, 0.5, 0.7):
            vals = []
            for n in (64, 128, 256):
                s = _weighted(lam, n, support_estimate([(lam, n)]))
                vals.append(n * s.linf ** 2)
            assert max(vals) / min(vals) < 1.6


class TestExponentialRegions:
    def test_log_magnitude_matches_direct_fft(self):
        n, k = 128, 32
        size = 1 << 12
        z = np.exp(2j * np.pi * np.arange(size) / size)
        vals = (1 - z * z) * ((z - 0.5) / (1 - 0.5 * z)) ** n
        direct = np.log(abs((np.fft.fft(vals) / size)[k]))
        scaled = _contour(0.5, n, k)[0]
        assert scaled == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_exponential_decay_fit(self, side):
        lam = 0.5
        alpha = (1 - lam) / (1 + lam) / 2
        ns = [128, 256, 512, 1024]
        logs = []
        for n in ns:
            k = int(0.8 * alpha * n) if side == "left" else int(np.ceil(1.2 * n / alpha))
            logs.append(float(np.max(_contour(lam, n, k, window=2))))
        slope = np.polyfit(ns, logs, 1)[0]
        assert slope < -1e-3

    def test_window_clamped_at_zero(self):
        # bins wrap mod the transform size by design, but j < 0 names no
        # coefficient: the window stops at j = 0
        lw = _contour(0.5, 8, 1, window=3)
        assert lw.shape == (5,)
        n, size = 8, 1 << 12
        z = np.exp(2j * np.pi * np.arange(size) / size)
        vals = (1 - z * z) * ((z - 0.5) / (1 - 0.5 * z)) ** n
        direct = np.log(np.abs((np.fft.fft(vals) / size)[:5]))
        assert np.allclose(lw, direct, atol=1e-9)

    @pytest.mark.parametrize("lam,n,k", [(0.5, 256, 1843), (0.5, 256, 34),
                                         (0.66, 256, 3006), (0.335375, 256, 51)])
    def test_log_magnitude_matches_exact_binomial_sum(self, lam, n, k):
        # b^n = (z - lam)^n (1 - lam z)^-n: c(i) = sum_j C(n, j) (-lam)^(n-j)
        # C(n-1+i-j, i-j) lam^(i-j), summed exactly; c_w(k) = c(k) - c(k-2)
        with mp.workdps(60 + n):
            L = mp.mpf(lam)

            def c(i):
                return mp.fsum(mp.binomial(n, j) * (-L) ** (n - j)
                               * mp.binomial(n - 1 + i - j, i - j) * L ** (i - j)
                               for j in range(min(n, i) + 1))

            exact = float(mp.log(abs(c(k) - c(k - 2))))
        assert _contour(lam, n, k)[0] == pytest.approx(exact, abs=1e-12)

    def test_wrapped_bins_match_a_larger_transform(self, monkeypatch):
        # the bound picks 1024 points for bins 1840..1846, which wrap; a
        # 4x larger transform reads the same coefficients unwrapped
        lam, n, k = 0.5, 256, 1843
        sizes = []
        fft, irfft = np.fft.fft, np.fft.irfft

        def counted(a, *args, **kwargs):
            c = irfft(a, *args, **kwargs)
            sizes.append(c.size)
            return c

        monkeypatch.setattr(np.fft, "irfft", counted)
        lw = _contour(lam, n, k, window=3)
        assert sizes[0] < k
        size = 4 * sizes[0]
        r = _saddle_radius(lam, n, k)
        z = r * np.exp(2j * np.pi * np.arange(size) / size)
        log_b = n * np.log((z - lam) / (1 - lam * z))
        scale = log_b.real.max()
        c = fft((1 - z * z) * np.exp(log_b - scale)) / size
        js = np.arange(k - 3, k + 4)
        direct = np.log(np.abs(c[js])) + scale - js * np.log(r)
        assert np.allclose(lw, direct, rtol=0, atol=1e-10)

    def test_near_one_region_vii_is_fast(self):
        # lambda 0.97, n 1024: region VII's index 1.2 n / alpha, alpha = alpha0/2
        lam, n = 0.97, 1024
        k = int(round(1.2 * n / ((1 - lam) / (1 + lam) / 2)))
        assert k == 161382
        elapsed = []
        for _ in range(3):
            t = time.perf_counter()
            lw = _contour(lam, n, k, window=3)
            elapsed.append(time.perf_counter() - t)
        assert np.all(np.isfinite(lw))
        assert min(elapsed) < 0.05

    @pytest.mark.parametrize("r", [0.0, -0.5, 2.0, 2.5, math.inf, math.nan])
    def test_radius_outside_the_disk_of_analyticity_rejected(self, r):
        # b_lambda^n is analytic in |z| < 1/lambda = 2; no other circle holds
        # the Taylor coefficients
        with pytest.raises(DomainError):
            log_weighted_coeff_magnitude(0.5, 64, 400, r)

    def test_deep_region_magnitude_is_tiny(self):
        # far right of the dominant range the coefficient is far below
        # double-precision underflow; only its log is representable
        lw = _contour(0.5, 1024, int(7.2 * 1024))[0]
        assert lw < -1000


class TestSeriesContainer:
    def test_norm_caching_and_values(self):
        s = CoefficientSeries(np.array([3.0, -4.0]), 0.0)
        assert s.l2 == 5.0
        assert s.linf == 4.0

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            CoefficientSeries(np.array([]), 0.0)

    def test_rejects_complex(self):
        # coefficients of a real spectrum are stored as real numbers; a
        # complex vector, even with zero imaginary parts, is refused
        for vals in (np.array([0.5, 0.25j]), np.array([1.0, 2.0], dtype=complex)):
            with pytest.raises(DomainError):
                CoefficientSeries(vals, 0.0)
        assert CoefficientSeries(np.array([1, 2]), 0.0).coeffs.dtype == np.float64

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_padding_never_changes_norms(self, vals, extra):
        s = CoefficientSeries(np.array(vals, dtype=float), 0.0)
        p = CoefficientSeries(np.concatenate([s.coeffs, np.zeros(extra)]), 0.0)
        assert p.l2 == pytest.approx(s.l2)
        assert p.linf == pytest.approx(s.linf)

    @given(st.floats(min_value=-0.85, max_value=0.85).filter(lambda x: abs(x) > 1e-3),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=25, deadline=None)
    def test_parseval_random_parameters(self, lam, n):
        # the l2 tail decays like |lambda|^(2k): extend K until it is
        # below the tolerance, not just past the dominant region
        tail_terms = int(30 / max(0.15, -math.log(abs(lam)))) + 8
        s = blaschke_power_coeffs([(lam, n)], support_estimate([(lam, n)]) + tail_terms)
        assert abs(1 - s.l2 ** 2) < 1e-9

