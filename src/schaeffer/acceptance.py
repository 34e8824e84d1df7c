"""The acceptance gate: eleven numbered criteria with pinned tolerances.

Each criterion_k() function is self-contained, measures its own runtime,
and returns a CriterionResult; run_all() drives them in order.  The pytest
module tests/test_acceptance.py asserts each one and the CLI subcommand
``validate`` prints one line per criterion, with its time on stderr.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import asymptotics, modelspace, resolvent, wiener_opt
from ._airy_oracle import AI, AI_PRIME
from ._saddle_draws import DRAWS_HEX
from .airy import airy_ai, airy_ai_prime
from .errors import DomainError
from .spectra import SpectrumSpec


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number:2d} [{self.name}]: {self.details}"


_N_GRID_LARGE = (256, 512, 1024, 2048, 4096)
# Exact |b_lambda^n(zeta)| * N(lambda, n) at lambda = 0.5, zeta = 0.9, the
# scaled resolvent interpolation norms of criterion 11.  Certified by two
# independent programs whose values agree to 5e-9 relative: the upper bound
# min ||h + B q||_1 over polynomials q (every q gives an exactly feasible
# interpolant) and the lower bound from the LP dual over the model space K_B
# in its Malmquist-Walsh basis.  Both are derived again with scipy in
# tests/test_wiener_opt.py::test_resolvent_norm_inside_certified_bracket.
_RESOLVENT_EXACT = {4: 5.39853835, 8: 7.36397103, 16: 8.77467203, 32: 10.4375152}
_norm_cache: dict = {}


def _weighted_norm(lam: float, n: int) -> float:
    """||(1-z^2) b_lambda^n||_linfA from the ground truth ``asymptotics`` caches."""
    key = (lam, n)
    if key not in _norm_cache:
        _norm_cache[key] = asymptotics._truth_series(lam, n, 0).linf
    return _norm_cache[key]


def criterion_1() -> CriterionResult:
    """sqrt(n) growth of the coefficient-norm lower bound at lambda = 0.5."""
    t0 = time.perf_counter()
    lam = 0.5
    ratios = {}
    L = {}
    for n in _N_GRID_LARGE:
        L[n] = 1.0 / _weighted_norm(lam, n) - lam ** n
        ratios[n] = L[n] / math.sqrt(n)
    band = max(ratios.values()) / min(ratios.values())
    octave = L[4096] / L[1024]
    elapsed = time.perf_counter() - t0
    ok = band <= 1.3 and 1.7 <= octave <= 2.3 and elapsed <= 60
    details = (f"L/sqrt(n) in [{min(ratios.values()):.4f}, {max(ratios.values()):.4f}] "
               f"(band {band:.3f} <= 1.3), L(4096)/L(1024) = {octave:.3f} in [1.7, 2.3]")
    return CriterionResult(1, "sqrt-n lower-bound growth", ok, details, elapsed)


def criterion_2() -> CriterionResult:
    """Upper envelope: sqrt(n) * ||(1-z^2) b^n||_linfA bounded, ratio <= 1.5."""
    t0 = time.perf_counter()
    lam = 0.5
    vals = [math.sqrt(n) * _weighted_norm(lam, n) for n in _N_GRID_LARGE]
    ratio = max(vals) / min(vals)
    ok = ratio <= 1.5
    details = (f"sqrt(n)*norm in [{min(vals):.4f}, {max(vals):.4f}], "
               f"max/min = {ratio:.4f} <= 1.5 (fitted K = {max(vals):.4f})")
    return CriterionResult(2, "envelope constant K(lambda)", ok, details, time.perf_counter() - t0)


def criterion_3() -> CriterionResult:
    """Sandwich: lower bound <= truncated phi <= sqrt(e n) + 1e-3."""
    t0 = time.perf_counter()
    lam = 0.5
    rows = []
    ok = True
    for n in (4, 8, 16, 32):
        spec = SpectrumSpec.single(lam, n)
        res = wiener_opt.phi_exact_truncated(spec)
        L = wiener_opt.phi_lower_bound(spec)
        upper = wiener_opt.schaeffer_upper(n)
        good = L <= res.value <= upper + 1e-3 and res.converged
        ok = ok and good
        rows.append(f"n={n}: {L:.4f} <= {res.value:.4f} <= "
                    f"{upper:.4f} conv={res.converged}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 120
    return CriterionResult(3, "phi sandwich", ok, "; ".join(rows), elapsed)


def criterion_4() -> CriterionResult:
    """Toeplitz counterexample construction checks."""
    t0 = time.perf_counter()
    lam = 0.5
    ok = True
    msgs = []
    for n in range(2, 17):
        T = modelspace.build_toeplitz(lam, n)
        deg, resid = modelspace.minimal_poly_check(T)
        det = complex(np.prod(np.diag(T.entries)))
        if deg != n or resid > 1e-8 or det != lam ** n:
            ok = False
            msgs.append(f"n={n}: deg={deg} resid={resid:.2e}")
    for n in range(1, 9):
        M = modelspace.model_matrix(SpectrumSpec.single(lam, n))
        T = modelspace.build_toeplitz(lam, n).entries
        err = float(np.max(np.abs(M - T)))
        if err > 1e-10:
            ok = False
            msgs.append(f"model n={n}: err={err:.2e}")
    details = "all construction checks within tolerance" if ok else "; ".join(msgs)
    return CriterionResult(4, "Toeplitz construction", ok, details, time.perf_counter() - t0)


def criterion_5() -> CriterionResult:
    """Refined zeta=0 bound strictly below the classical baseline, and within
    1% exactly when r^(2|m|) is negligible."""
    t0 = time.perf_counter()
    ok = True
    worst = ""
    for r in [0.1 * i for i in range(1, 10)]:
        for mm in range(1, 65):
            q = resolvent.BoundQuery(SpectrumSpec.single(r, mm), 0.0, 1.0)
            refined = resolvent.thm_case2(q)
            base = resolvent.schaeffer_baseline(q)
            # the relative gap is tail/(2e); strictness is only visible in
            # floating point while the gap clears the resolution of the
            # log-space evaluation (~5e-15), identical doubles below that
            tail = r ** (2 * mm)
            if tail > 1e-12:
                if not refined < base:
                    ok = False
                    worst = f"not strict at r={r:.1f}, |m|={mm}"
            elif refined > base * (1 + 1e-13):
                ok = False
                worst = f"refinement above baseline at r={r:.1f}, |m|={mm}"
            # refined/base = sqrt(1 - r^(2|m|)/e): within 1% of the baseline
            # exactly when the tail r^(2|m|) drops below e (1 - 0.99^2)
            within_1pct = refined >= 0.99 * base
            small_tail = tail <= math.e * (1 - 0.99 ** 2)
            if within_1pct != small_tail:
                ok = False
                worst = f"1% equivalence broken at r={r:.1f}, |m|={mm}"
    details = "refinement strict on the whole grid; 1%-closeness iff r^(2|m|) small" if ok else worst
    return CriterionResult(5, "case-2 refinement", ok, details, time.perf_counter() - t0)


def criterion_6() -> CriterionResult:
    """Optimized lemma bound dominated by every applicable closed form, and
    the rho -> 1 limit matches case 1 for unimodular spectra."""
    t0 = time.perf_counter()
    ok = True
    msgs = []
    for lam in (0.3, 0.5, 0.7):
        for n in (1, 2, 4, 8, 16):
            for zeta in (0.0, 0.3, 0.9, 1.0):
                try:
                    q = resolvent.BoundQuery(SpectrumSpec.single(lam, n), zeta, 1.0)
                except DomainError:
                    continue
                opt = resolvent.optimize_rho(q).value
                for rule, form in resolvent.applicable_closed_forms(q).items():
                    if opt > form + 1e-9:
                        ok = False
                        msgs.append(f"dominance fails lam={lam} n={n} zeta={zeta} {rule}")
    for n in (1, 3, 9):
        for zeta in (0.5, -0.4, 2.0):
            q = resolvent.BoundQuery(SpectrumSpec.single(1.0, n), zeta, 1.0)
            lim = resolvent.mainlemma_bound(q, 1 - 1e-6)
            c1 = resolvent.thm_case1(q)
            if abs(lim / c1 - 1) > 1e-3:
                ok = False
                msgs.append(f"case-1 limit off at n={n} zeta={zeta}: {abs(lim/c1-1):.2e}")
    details = "dominance and case-1 limit hold on the grid" if ok else "; ".join(msgs)
    return CriterionResult(6, "bound dominance", ok, details, time.perf_counter() - t0)


def _saddle_samples() -> list:
    """Criterion 7's 1000 (lambda, a) samples.

    Sample i is lambda = uniform(0.05, 0.95) from draw 2i and
    a = exp(uniform(log(0.3 alpha0), log(3 / alpha0))) from draw 2i + 1 of
    ``np.random.default_rng(20250810)``.  The draws are stored in
    ``_saddle_draws`` and mapped as ``Generator.uniform`` maps them,
    low + (high - low) u, so the samples are the generator's bit for bit
    without importing ``numpy.random``.
    """
    draws = np.frombuffer(bytes.fromhex(DRAWS_HEX), "<f8").tolist()
    samples = []
    for u_lam, u_a in zip(draws[0::2], draws[1::2]):
        lam = 0.05 + (0.95 - 0.05) * u_lam
        a0 = asymptotics.alpha0(lam)
        lo, hi = math.log(0.3 * a0), math.log(3.0 / a0)
        samples.append((lam, math.exp(lo + (hi - lo) * u_a)))
    return samples


def criterion_7() -> CriterionResult:
    """Saddle correctness of ``asymptotics._pick_saddles``, the routine the
    stationary-phase and uniform Airy estimates take their saddles from, on
    1000 random samples (``_saddle_samples``), plus the coalesced third
    derivative ``asymptotics._phase_f3`` in closed form."""
    t0 = time.perf_counter()
    ok = True
    msgs = []
    worst_f1 = 0.0
    for lam, a in _saddle_samples():
        a0 = asymptotics.alpha0(lam)
        if min(abs(a - a0), abs(a - 1 / a0)) < 1e-9:
            continue
        zp, zm = map(complex, asymptotics._pick_saddles(lam, a))
        for z in (zp, zm):
            worst_f1 = max(worst_f1, abs(asymptotics._phase_f1(lam, a, z)))
        if a0 < a < 1 / a0:
            good = abs(abs(zp) - 1) < 1e-12 and abs(zm - zp.conjugate()) < 1e-12
        else:
            good = zp.imag == zm.imag == 0 and abs(zp * zm - 1) < 1e-12
        if not good:
            ok = False
            msgs.append(f"trichotomy fails at lam={lam:.4f} a={a:.4f}")
    if worst_f1 > 1e-10:
        ok = False
        msgs.append(f"worst |f'(saddle)| = {worst_f1:.2e}")
    for lam in (0.2, 0.5, 0.8):
        ac = 1 / asymptotics.alpha0(lam)
        f3 = asymptotics._phase_f3(lam, ac, 1.0 + 0j)
        closed = -2 * lam * (1 + lam) / (1 - lam) ** 3
        if abs(f3 - closed) > 1e-10 * abs(closed):
            ok = False
            msgs.append(f"f''' mismatch at lam={lam}")
    details = (f"worst |f'(z_pm)| = {worst_f1:.2e}; trichotomy and coalesced "
               f"f''' closed form verified") if ok else "; ".join(msgs)
    return CriterionResult(7, "saddle correctness", ok, details, time.perf_counter() - t0)


def criterion_8() -> CriterionResult:
    """Airy accuracy 1e-10 on [-20, 20] against 40-digit mpmath values
    (stored in ``_airy_oracle``) and order-h^2 ODE residual decay."""
    t0 = time.perf_counter()
    xs = np.linspace(-20, 20, 401)
    ai, aip = airy_ai(xs), airy_ai_prime(xs)
    worst = 0.0
    for v, vp, ora, orap in zip(ai.tolist(), aip.tolist(), AI, AI_PRIME):
        worst = max(worst, abs(v - ora) / abs(ora), abs(vp - orap) / abs(orap))
    hs = [0.1, 0.05, 0.025]
    res = []
    grid = np.arange(-10, 10.01, 0.5)
    for h in hs:
        up, mid, down = airy_ai(np.stack([grid + h, grid, grid - h]))
        res.append(float(np.max(np.abs((up - 2 * mid + down) / h ** 2 - grid * mid))))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(hs) - 1)]
    ok = worst <= 1e-10 and all(1.6 <= o <= 2.4 for o in orders)
    details = (f"worst rel err {worst:.2e} <= 1e-10; ODE residual orders "
               f"{[f'{o:.2f}' for o in orders]} ~ 2")
    return CriterionResult(8, "Airy quality", ok, details, time.perf_counter() - t0)


def criterion_9() -> CriterionResult:
    """Uniform Airy estimate against FFT truth across the right coalescence
    window at n = 1024.

    The error of each estimate is measured against the windowed maximum
    max_{|j-k|<=3} |truth(j)| (floor 1e-14): the truth oscillates through
    zeros inside the window, where no smooth two-term estimate can track a
    pointwise ratio, and the windowed maximum is the envelope the decay
    table bounds.  At the coalescence index k = 3072 the plain pointwise
    ratio is used.
    """
    t0 = time.perf_counter()
    lam, n = 0.5, 1024
    worst = 0.0
    worst_k = None
    lo, hi = 2868, 3277
    truth = asymptotics.weighted_truth(lam, n, np.arange(lo - 3, hi + 3))  # k at k - lo + 3
    for k, est in zip(range(lo, hi), asymptotics.uniform_airy_estimates(lam, n, range(lo, hi))):
        wmax = float(np.max(np.abs(truth[k - lo: k - lo + 7])))
        rel = abs(est.value - truth[k - lo + 3]) / max(wmax, asymptotics.TRUTH_FLOOR)
        if rel > worst:
            worst, worst_k = rel, k
    est_c = asymptotics.uniform_airy_estimate(lam, n, 3072)
    truth_c = truth[3072 - lo + 3]
    rel_c = abs(est_c.value - truth_c) / max(abs(truth_c), asymptotics.TRUTH_FLOOR)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.15 and rel_c <= 0.10 and elapsed <= 60
    details = (f"windowed rel err <= {worst:.4f} (worst at k={worst_k}) vs 0.15; "
               f"pointwise at k=3072: {rel_c:.4f} vs 0.10")
    return CriterionResult(9, "uniform Airy vs truth", ok, details, elapsed)


def criterion_10() -> CriterionResult:
    """Decay-rate fits per region at lambda = 0.5, n in {256, ..., 2048}."""
    t0 = time.perf_counter()
    lam = 0.5
    ns = [256, 512, 1024, 2048]
    ok = True
    msgs = []
    bands = {
        asymptotics.Region.III: (-0.77, -0.57),
        asymptotics.Region.IV: (-0.6, -0.4),
        asymptotics.Region.V: (-0.77, -0.57),
    }
    for region, (lo, hi) in bands.items():
        fit = asymptotics.decay_exponent_fit(lam, region, ns)
        msgs.append(f"{region.value}: {fit.slope:.3f}")
        if not lo <= fit.slope <= hi:
            ok = False
            msgs[-1] += f" OUTSIDE [{lo}, {hi}]"
    for region in (asymptotics.Region.I, asymptotics.Region.VII):
        fit = asymptotics.decay_exponent_fit(lam, region, ns)
        msgs.append(f"{region.value}: {fit.slope:.4f}/n")
        if not fit.slope < 0:
            ok = False
            msgs[-1] += " NOT NEGATIVE"
    return CriterionResult(10, "region decay rates", ok, "; ".join(msgs), time.perf_counter() - t0)


def criterion_11() -> CriterionResult:
    """Resolvent growth at lambda = 0.5, zeta = 0.9: the scaled
    interpolation norms |b^n(zeta)| * N(lambda, n), n = 4, 8, 16, 32, are
    each certified, strictly increasing and equal to their certified exact
    values (``_RESOLVENT_EXACT``) to 1e-7 relative.  The ratio n=32 vs n=8
    is printed; its exact value is 1.41738 (the growth is ~1.2 sqrt(n) +
    3.5, so a finite-n ratio says little about the sqrt(n) rate)."""
    t0 = time.perf_counter()
    lam, zeta = 0.5, 0.9
    grid = (4, 8, 16, 32)
    b = abs((zeta - lam) / (1 - lam * zeta))
    norms = {n: wiener_opt.resolvent_interpolation_norm(SpectrumSpec.single(lam, n), zeta)
             for n in grid}
    uncertified = [n for n in grid if not norms[n].converged]
    prods = {n: b ** n * norms[n].value for n in grid}
    seq = [prods[n] for n in grid]
    monotone = all(x < y for x, y in zip(seq, seq[1:]))
    dev = max(abs(prods[n] / _RESOLVENT_EXACT[n] - 1) for n in grid)
    ratio = prods[32] / prods[8]
    ok = not uncertified and monotone and dev <= 1e-7
    details = (f"products {['%.4f' % v for v in seq]}, monotone={monotone}, "
               f"max rel deviation from certified values {dev:.1e} (needs <= 1e-7), "
               f"ratio(32 vs 8) = {ratio:.4f}"
               + (f", uncertified n = {uncertified}" if uncertified else ""))
    return CriterionResult(11, "resolvent lower-bound growth", ok, details,
                           time.perf_counter() - t0)


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
]


def run_all(numbers=None):
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers is not None and i not in numbers:
            continue
        results.append(fn())
    return results
