"""Coefficient asymptotics of (1-z^2) b_lambda^n via saddle-point analysis.

Everything is driven by the phase f_a(z) = a log z + log(1 - lambda z)
- log(z - lambda) (principal branches), in terms of which the k-th
coefficient is a circle integral of (1 - z^-2) exp(n f_a(z)) dz/(2 pi i z)
with a = k/n.  The stationary points

    z_pm = M(a) +- sqrt(M(a)^2 - 1),
    M(a) = (a (1+lambda^2) - (1-lambda^2)) / (2 lambda a)

sit on the unit circle for a strictly between alpha0 = (1-lambda)/(1+lambda)
and 1/alpha0, coalesce at z = +1 or z = -1 at the ends of that interval,
and move onto the real axis outside it.

* Mid range (saddles on the circle, a outside both Airy windows): a single
  stationary-phase term with an explicitly corrected amplitude (see
  ``stationary_phase_estimate``).
* Near an end (a within 50% of alpha0 or 1/alpha0): the cubic normal form
  f = -t^3/3 + gamma^2 t turns the integral into the two-term uniform Airy
  expansion A0 n^(-1/3) Ai(n^(2/3) gamma^2) + A1 n^(-2/3) Ai'(n^(2/3) gamma^2),
  with gamma pinned by the exact relation gamma^3 = (3/2) f(z_plus) and the
  A's from G0(+-gamma) = psi(z_pm) z'(t_pm), z'(t_pm)^2 = -+ 2 gamma/f''(z_pm),
  branches tracked by continuity from the coalesced limit
  z'(0)^3 = -2/f'''(z0).  The left end is handled by mirroring z -> -z,
  which maps the problem to the right-end machinery with parameter -lambda
  and multiplies coefficient k by exp(i pi (k - n)).
"""

from __future__ import annotations

import cmath
import itertools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import blaschke
from .airy import airy_ai, airy_ai_prime
from .errors import DomainError, ModeError

_BRANCH_STEPS = 24
_BRANCH_JUMP_LIMIT = 0.5


# ---------------------------------------------------------------------------
# phase function and stationary points


def alpha0(lam: float) -> float:
    """(1 - lambda)/(1 + lambda), the lower end of the dominant ratio range."""
    if not 0 < lam < 1:
        raise DomainError("lambda must lie in (0, 1)")
    return (1 - lam) / (1 + lam)


def _check_pole(lam: float, z):
    """DomainError where z is 0, lambda or 1/lambda; elementwise for an array z."""
    if getattr(z, "ndim", 0) == 0:
        if z == 0 or abs(z - lam) < 1e-300 or (lam != 0 and abs(z - 1 / lam) < 1e-300):
            raise DomainError(f"z = {z} is a singular point of the phase")
        return
    bad = (z == 0) | (abs(z - lam) < 1e-300)
    if lam != 0:
        bad = bad | (abs(z - 1 / lam) < 1e-300)
    if bad.any():
        raise DomainError(f"z = {z[bad][0]} is a singular point of the phase")


def phase_value(lam: float, a, z):
    """f_a(z); elementwise for arrays a and z."""
    _check_pole(lam, z)
    z = np.asarray(z, dtype=complex) if getattr(z, "ndim", 0) else complex(z)
    return a * np.log(z) + np.log(1 - lam * z) - np.log(z - lam)


def _phase_f1(lam: float, a: float, z: complex) -> complex:
    """f'(z) without the pole check."""
    return -1 / (z - lam) + a / z - lam / (1 - lam * z)


def _phase_f2(lam: float, a, z):
    """f''(z) without the pole check; elementwise for arrays a and z."""
    return 1 / (z - lam) ** 2 - a / z ** 2 - lam ** 2 / (1 - lam * z) ** 2


def _phase_f3(lam: float, a, z):
    """f'''(z) without the pole check; elementwise for arrays a and z."""
    return -2 / (z - lam) ** 3 + 2 * a / z ** 3 - 2 * lam ** 3 / (1 - lam * z) ** 3


def _midpoint(lam: float, a: float) -> float:
    return (a * (1 + lam ** 2) - (1 - lam ** 2)) / (2 * lam * a)


def _pick_saddles(mu: float, a: float):
    """The two roots z_pm = M +- sqrt(M^2 - 1) of f' = 0: a conjugate pair
    on the unit circle for a inside [alpha0, 1/alpha0], a reciprocal real
    pair outside.  z_plus is the saddle mapped to t = +gamma: the upper
    circle saddle inside, the saddle with Re f >= 0 outside."""
    M = _midpoint(mu, a)
    if M * M <= 1:
        s = math.sqrt(1 - M * M)
        zp = complex(M, s)
        return zp, np.conj(zp)
    s = math.sqrt(M * M - 1)
    c1, c2 = complex(M + s), complex(M - s)
    if phase_value(mu, a, c1).real >= 0:
        return c1, c2
    return c2, c1


def _pick_saddles_along(mu: float, a: np.ndarray):
    """``_pick_saddles`` at each ratio of the array a, every one of them
    outside [alpha0, 1/alpha0], where the saddles are a real reciprocal
    pair; returns two real arrays.  Branch-tracking paths use it off the
    unit circle, where their values only choose signs and ``branch_ok``."""
    M = _midpoint(mu, a)
    s = np.sqrt(M * M - 1)
    c1_first = phase_value(mu, a, M + s).real >= 0  # Re f at the candidate M + s
    return np.where(c1_first, M + s, M - s), np.where(c1_first, M - s, M + s)


# ---------------------------------------------------------------------------
# region table


class Region(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"


def region_thresholds(lam: float, n: int):
    """The six index boundaries (alpha n, a0 n -+ n^(1/3), n/a0 -+ n^(1/3),
    n/alpha) with a0 = alpha0 and alpha = a0/2, made nondecreasing so they
    partition [0, inf) even at small n."""
    a0 = alpha0(lam)
    alpha = a0 / 2
    w = n ** (1 / 3)
    raw = [alpha * n, a0 * n - w, a0 * n + w, n / a0 - w, n / a0 + w, n / alpha]
    return tuple(itertools.accumulate(raw, max))


def classify_region(lam: float, n: int, k: float) -> Region:
    """Row of the seven-region decay table containing index k.

    Half-open conventions, with alpha = alpha0/2: I owns [0, alpha n]; the
    two inner Airy windows III and V own both their endpoints on the side
    facing the oscillatory middle; VII starts exactly at n/alpha.
    """
    if k < 0:
        raise DomainError("k must be >= 0")
    return _region_of(region_thresholds(lam, n), k)


def _region_of(thresholds: tuple, k: float) -> Region:
    """``classify_region`` of an index k >= 0 against ``region_thresholds``."""
    b1, b2, b3, b4, b5, b6 = thresholds
    if k <= b1:
        return Region.I
    if k <= b2:
        return Region.II
    if k <= b3:
        return Region.III
    if k < b4:
        return Region.IV
    if k <= b5:
        return Region.V
    if k < b6:
        return Region.VI
    return Region.VII


# ---------------------------------------------------------------------------
# cubic normal form near a coalescence


def _coalescence_ratio(mu: float) -> float:
    """Index ratio at which the saddles coalesce at z = +1 for parameter mu."""
    return (1 + mu) / (1 - mu)


def _cube_roots(x) -> list:
    """The three cube roots of x; elementwise for an array x.  The angle is
    arctan2(Im x, Re x), what np.angle computes, without its wrapper."""
    mag = abs(x) ** (1 / 3)
    ang = np.arctan2(x.imag, x.real)
    return [mag * np.exp(1j * (ang + 2 * math.pi * i) / 3) for i in range(3)]


def _real_gamma2_root(g3):
    """The cube root gamma of g3 for which gamma^2 is real, the first of
    equal candidates; elementwise for an array g3."""
    roots = _cube_roots(g3)
    if getattr(g3, "ndim", 0) == 0:
        return min(roots, key=lambda r: abs((r * r).imag))
    pick = np.argmin(np.abs([(r * r).imag for r in roots]), axis=0)
    return np.choose(pick, roots)


def _zprime_seed(mu: float, ac: float) -> complex:
    """z'(0) at the coalesced saddle: the minimal-imaginary cube root of
    -2/f'''(1, ac); real positive for mu > 0, real negative for mu < 0."""
    roots = _cube_roots(-2 / _phase_f3(mu, ac, 1.0 + 0j))
    return min(roots, key=lambda r: abs(r.imag))


def _psi(z: complex) -> complex:
    return (1 - z ** -2) / z


def _continue_signs(seed: complex, w: np.ndarray):
    """Signs for the values w = z'(t) along each tracking path (the last
    axis of w), each chosen nearer its signed predecessor (seed before the
    first).  Returns the signed last value of each path and each step's
    move relative to its predecessor.

    Taking the nearer sign flips the running sign exactly at the steps where
    the unsigned w is nearer to minus its unsigned predecessor, and the move
    is then the smaller of the two distances, so no step needs the signs of
    the steps before it.  (An exact tie, w orthogonal to its predecessor,
    keeps the running sign; such a step moves by more than the jump limit.)"""
    prev = np.concatenate([np.full(w.shape[:-1] + (1,), seed), w[..., :-1]], axis=-1)
    same, flipped = np.abs(w - prev), np.abs(w + prev)
    jump = np.minimum(same, flipped) / np.maximum(np.abs(prev), 1e-30)
    last = w[..., -1]
    return np.where(np.count_nonzero(same > flipped, axis=-1) % 2, -last, last), jump


def _path_saddles_and_gammas(mu: float, path: np.ndarray):
    """Saddles z_pm and gamma at each ratio of the tracking paths (any shape).

    On the unit circle (M^2 <= 1) z_plus = M + i s, s = sqrt(1 - M^2), and
    |1 - mu z| = |z - mu|, so f(z_plus) = i h with the real
    h = a arg z + arg(1 - mu z) - arg(z - mu), and gamma = -i cbrt(3h/2) is
    the cube root of (3/2) f with gamma^2 real.  Off the circle the saddles
    are the real pair of ``_pick_saddles_along`` and gamma comes from
    ``_real_gamma2_root``.  These values only choose signs and
    ``branch_ok``, so they may round differently from a ratio's own values,
    which reach the estimate."""
    M = _midpoint(mu, path)
    circle = M * M <= 1
    zps = np.empty(path.shape, dtype=complex)
    zms = np.empty(path.shape, dtype=complex)
    gs = np.empty(path.shape, dtype=complex)
    Mc = M[circle]
    s = np.sqrt(1 - Mc * Mc)
    h = (path[circle] * np.arctan2(s, Mc) + np.arctan2(-mu * s, 1 - mu * Mc)
         - np.arctan2(s, Mc - mu))
    zps[circle] = Mc + 1j * s
    zms[circle] = Mc - 1j * s
    gs[circle] = -1j * np.cbrt(1.5 * h)
    off = ~circle
    if off.any():
        a = path[off]
        zp, zm = _pick_saddles_along(mu, a)
        _check_pole(mu, zm)  # phase_value checks z_plus
        zps[off], zms[off] = zp, zm
        gs[off] = _real_gamma2_root(1.5 * phase_value(mu, a, zp))
    return zps, zms, gs


def _tracked_amplitudes(mu: float, ac: float, seed: complex, a: list) -> list:
    """(A0, A1, gamma_sq, branch_ok) at each ratio of the list a, none of
    them at the coalescence ratio ac.

    Each ratio's saddles, gamma and z'(t_pm) reach the estimate, so they
    keep scalar arithmetic; only the steps that round as their 0-d forms do
    (the pole test, f(z_plus)) run as one array pass over all ratios.  The
    inner steps of the tracking paths only choose the signs of z'(t_pm) and
    ``branch_ok`` (see ``_path_saddles_and_gammas``)."""
    ratios = np.array(a)
    saddles = [_pick_saddles(mu, ai) for ai in a]
    _check_pole(mu, np.array([zm for _, zm in saddles]))  # phase_value checks z_plus
    f = phase_value(mu, ratios, np.array([zp for zp, _ in saddles]))
    # iterating gives 0-d complex128 items, so each gamma takes the scalar root pick
    gams = [_real_gamma2_root(g3) for g3 in 1.5 * f]

    # branch tracking from the coalesced limit along a straight path in a:
    # z'(t_pm) up to sign at the inner steps of every ratio at once (one row
    # per ratio) and at each ratio itself, then the signs by continuity
    path = ac + (ratios[:, None] - ac) * np.arange(1, _BRANCH_STEPS) / _BRANCH_STEPS
    zps, zms, gs = _path_saddles_and_gammas(mu, path)
    wp, jump_p = _continue_signs(seed, np.column_stack([
        np.sqrt(-2 * gs / _phase_f2(mu, path, zps)),
        [cmath.sqrt(-2 * gam / _phase_f2(mu, ai, complex(zp)))
         for ai, (zp, _), gam in zip(a, saddles, gams)]]))
    wm, jump_m = _continue_signs(seed, np.column_stack([
        np.sqrt(2 * gs / _phase_f2(mu, path, zms)),
        [cmath.sqrt(2 * gam / _phase_f2(mu, ai, complex(zm)))
         for ai, (_, zm), gam in zip(a, saddles, gams)]]))
    branch_ok = ~np.any(np.maximum(jump_p, jump_m)[:, 1:] > _BRANCH_JUMP_LIMIT, axis=1)

    out = []
    for (zp, zm), gam, wpi, wmi, ok in zip(saddles, gams, wp, wm, branch_ok.tolist()):
        G0p = _psi(zp) * wpi
        G0m = _psi(zm) * wmi
        A0 = (G0p + G0m) / 2
        if abs(gam) > 1e-7:
            A1 = (G0p - G0m) / (2 * gam)
        else:
            A1 = complex(2.0 * seed ** 2)  # removable singularity: G0'(0)
        out.append((A0, A1, float((gam * gam).real), ok))
    return out


def _airy_cores(mu: float, n: float, a: list) -> list:
    """Two-term uniform Airy values for the coefficient ratios a of the
    problem with parameter mu, anchored at the z = 1 coalescence
    (a_c = (1+mu)/(1-mu)).

    Returns one (value, gamma_sq, branch_ok) per ratio.  The orientation
    sign flips when z'(0) < 0 (the image of the positively traversed circle
    then runs backwards along the Airy contour).

    The inner tracking steps of all ratios go through one array pass, and
    Ai and Ai' through one call each.  Those path values only choose the
    signs of z'(t_pm) and ``branch_ok``, so they may round differently from
    a ratio's own values.  Each ratio's own saddles, gamma and amplitudes
    reach the estimate and stay scalar: numpy's array loops for complex
    multiply, abs, exp and ** round differently from the scalar operations,
    so the same steps on arrays would move the last bits of the estimates.
    """
    ac = _coalescence_ratio(mu)
    seed = _zprime_seed(mu, ac)
    sigma = 1.0 if seed.real > 0 else -1.0
    n13, n23 = float(n) ** (1 / 3), float(n) ** (2 / 3)

    at_coalescence = [abs(ai - ac) <= 1e-9 * ac for ai in a]
    tracked = [ai for ai, c in zip(a, at_coalescence) if not c]
    amps = iter(_tracked_amplitudes(mu, ac, seed, tracked) if tracked else [])
    rows = []  # (A0, A1, gamma_sq, branch_ok); A0 = None at the coalescence
    for ai, c in zip(a, at_coalescence):
        if c:
            g2 = (ai - ac) * (1 - mu) / math.copysign(abs(mu * (1 + mu)) ** (1 / 3), mu)
            rows.append((None, complex(2.0 * seed ** 2), float(g2), True))
        else:
            rows.append(next(amps))

    xs = np.array([n23 * g2 for _, _, g2, _ in rows])
    out = []
    for (A0, A1, g2, ok), ai_x, aip_x in zip(rows, airy_ai(xs).tolist(),
                                              airy_ai_prime(xs).tolist()):
        if A0 is None:
            val = sigma * (A1 / n23 * aip_x)
        else:
            val = sigma * (A0 / n13 * ai_x + A1 / n23 * aip_x)
        out.append((complex(val), g2, ok))
    return out


class AiryEstimate(NamedTuple):
    value: complex
    gamma_sq: float
    branch_ok: bool


# cached FFT ground truth, one weighted-coefficient series per (lambda, n)
_truth_cache: dict = {}


def _truth_series(lam: float, n: int, kmax: int):
    key = (float(lam), int(n))
    series = _truth_cache.get(key)
    if series is None or series.max_index < kmax:
        points = [(lam, n)]
        K = max(kmax + 8, blaschke.support_estimate(points))
        series = _truth_cache[key] = blaschke.weight_series(
            blaschke.blaschke_power_coeffs(points, K))
    return series


def weighted_truth(lam: float, n: int, k):
    """FFT coefficient of (1-z^2) b_lambda^n at integer k, or at each k of an
    integer array (cached per (lambda, n); one extraction covers max(k))."""
    arr = _truth_series(lam, n, int(np.max(k))).coeffs
    return arr[k] if np.ndim(k) else float(arr[k])


def truth_error(lam: float, n: int) -> float:
    """Bound on the error of every ``weighted_truth`` value at (lambda, n)."""
    return _truth_series(lam, n, 0).error


def clear_truth_cache():
    _truth_cache.clear()


def uniform_airy_estimates(lam: float, n: int, ks) -> list:
    """Uniform two-term Airy estimates of the coefficients at the indices
    ks: one ``AiryEstimate`` per k with k/n within 50% of either
    coalescence ratio, alpha0 or 1/alpha0, and None at the others; those
    with alpha0 < k/n < 1/alpha0 take ``stationary_phase_estimate``, the
    rest lie in the tails beyond both windows.  Where the two windows overlap
    (lambda <= 0.268) the relatively nearer one anchors the estimate.  Near
    k/n = alpha0 the mirrored problem with parameter -lambda is used and
    the result carries the parity phase exp(i pi (k - n)).

    The ks of each side are estimated together: one array pass tracks all
    their branch paths, and Ai, Ai' run once per side."""
    ks = list(ks)
    a0 = alpha0(lam)
    ac_right = 1 / a0
    sides = {lam: [], -lam: []}  # mu -> indices into ks
    for i, k in enumerate(ks):
        a = k / n
        right = abs(a - ac_right) <= 0.5 * ac_right
        left = abs(a - a0) <= 0.5 * a0
        if right and left:
            # tracking from the farther coalescence would cross the nearer one
            right = abs(a - ac_right) / ac_right <= abs(a - a0) / a0
        if right:
            sides[lam].append(i)
        elif left:
            sides[-lam].append(i)
    out = [None] * len(ks)
    for mu, idx in sides.items():
        if not idx:
            continue
        for i, (val, g2, ok) in zip(idx, _airy_cores(mu, n, [ks[i] / n for i in idx])):
            if mu < 0:
                val = val * np.exp(1j * math.pi * (ks[i] - n))
            out[i] = AiryEstimate(value=val, gamma_sq=g2, branch_ok=ok)
    return out


def uniform_airy_estimate(lam: float, n: int, k: float) -> AiryEstimate:
    """``uniform_airy_estimates`` at the single index k; raises ModeError
    where k/n lies outside both coalescence windows."""
    est = uniform_airy_estimates(lam, n, [k])[0]
    if est is None:
        raise ModeError("k/n is outside both coalescence neighborhoods; "
                        "use stationary_phase_estimate")
    return est


# ---------------------------------------------------------------------------
# mid-range stationary phase


def stationary_phase_estimate(lam: float, n: int, k: float) -> float:
    """Leading stationary-phase value wherever the saddles sit on the circle,
    alpha0 < a = k/n < 1/alpha0 (ModeError outside, where it is not real);
    the CLI uses it outside the windows of ``uniform_airy_estimates``:

        sqrt(2/(pi n)) (1-lambda^2) (a-alpha0)^(1/4) (1/alpha0-a)^(1/4)
            / (lambda a^(3/2)) * cos(n h(phi+) - phi+ + 3 pi/4)

    with h(phi) = Im f(e^{i phi}) and phi+ the upper stationary angle.
    The amplitude uses sin(phi+) = (1-lambda^2) sqrt((a-alpha0)(1/alpha0-a))
    / (2 lambda a), i.e. |g(phi+)| sqrt(2 pi/(n h''(phi+))) written out; a
    frequently quoted variant with sqrt(1-lambda^2) in place of the factor
    (1-lambda^2) overshoots the FFT truth by 1/sqrt(1-lambda^2).
    """
    a = k / n
    a0 = alpha0(lam)
    if not a0 < a < 1 / a0:
        raise ModeError(f"k/n = {a} outside ({a0}, {1 / a0}): saddles off the circle")
    zp, _ = _pick_saddles(lam, a)
    phi_p = float(np.angle(zp))
    h_at = float(phase_value(lam, a, zp).imag)
    return stationary_phase_envelope(lam, n, k) * math.cos(n * h_at - phi_p + 3 * math.pi / 4)


def stationary_phase_envelope(lam: float, n: int, k: float) -> float:
    """Amplitude of ``stationary_phase_estimate``."""
    a = k / n
    a0 = alpha0(lam)
    return (
        math.sqrt(2 / (math.pi * n))
        * (1 - lam ** 2)
        * (a - a0) ** 0.25
        * (1 / a0 - a) ** 0.25
        / (lam * a ** 1.5)
    )


# ---------------------------------------------------------------------------
# decay-rate fits against ground truth


class FitResult(NamedTuple):
    slope: float
    mode: str  # "power" (log n) or "exponential" (n)


_POWER_REGIONS = {Region.III, Region.IV, Region.V}
_FIT_WINDOW = 3  # half-width of the index window each fitted value maximizes over


def _default_k(region: Region, lam: float, n: int) -> int:
    a0 = alpha0(lam)
    alpha = a0 / 2
    table = {
        Region.I: 0.8 * alpha,
        Region.II: (alpha + a0) / 2,
        Region.III: a0,
        Region.IV: 1.0,
        Region.V: 1 / a0,
        Region.VI: (1 / a0 + 1 / alpha) / 2,
        Region.VII: 1.2 / alpha,
    }
    return max(2, int(round(table[region] * n)))


def decay_exponent_fit(lam: float, region: Region, n_list) -> FitResult:
    """Least-squares decay rate of the coefficient magnitude at a
    representative index per region, across a geometric n grid.

    Power regions (III, IV, V) fit log|c| against log n; the windowed
    maximum over [k-3, k+3] suppresses the cosine zeros.  Exponential
    regions fit log|c| against n, using the scaled-contour extraction that
    remains accurate far below double-precision underflow.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 4:
        raise DomainError("need at least 4 grid points")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("n grid must be strictly increasing")
    logs = []
    for n in n_list:
        k = _default_k(region, lam, n)
        if region in _POWER_REGIONS:
            js = np.arange(max(0, k - _FIT_WINDOW), k + _FIT_WINDOW + 1)
            peak = float(np.max(np.abs(weighted_truth(lam, n, js))))
            logs.append(math.log(max(peak, 1e-300)))
        else:
            r = abs(_pick_saddles(lam, k / n)[0])
            lw = blaschke.log_weighted_coeff_magnitude(lam, n, k, r, window=_FIT_WINDOW)
            logs.append(float(np.max(lw)))
    y = np.array(logs)
    if region in _POWER_REGIONS:
        x = np.log(np.array(n_list, dtype=float))
    else:
        x = np.array(n_list, dtype=float)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DomainError("degenerate fit: zero variance")
    A = np.vstack([x, np.ones_like(x)]).T
    slope = float(np.linalg.lstsq(A, y, rcond=None)[0][0])
    return FitResult(slope=slope,
                     mode="power" if region in _POWER_REGIONS else "exponential")
