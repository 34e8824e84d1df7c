"""Resolvent upper-bound family for power-bounded matrices with known spectrum.

``mainlemma_log_bound`` evaluates the rho-parameterized bound

    C * sqrt( 1/(1-rho^2) * sum_{k=1}^{|m|} rho^{-(2k-2)}
              * (1 - rho^2 |l_k|^2)/|zeta - l_k|^2
              * prod_{j<k} | (1/b_{l_j}(zeta))
                            (1 + (1-rho^2) conj(l_j) zeta/(1-conj(l_j) zeta)) |^2 )

in log space, one distinct eigenvalue at a time.  Along a run of m equal
eigenvalues the log-terms are affine in k, a + j s for j = 0..m-1 with
s = 2 log(|fac|/rho) and |fac| = |1 - rho^2 conj(l) zeta|/|zeta - l|, so the
run sums in closed form as the geometric series
max(a, a + (m-1)s) + log(expm1(-m|s|)/expm1(-|s|)), and a final
log-sum-exp runs over the runs.  One evaluation costs O(#points), not
O(|m|), and multiplicities in the millions stay finite in log space where
the bound itself overflows a double; it is the only form, and a caller that
needs the bound exponentiates it.  The terms that do not depend on rho
(conj(l) zeta, 1 - conj(l) zeta, |l|, log|zeta - l|, log(|1 - conj(l) zeta|
/|zeta - l|) per distinct eigenvalue, and log C) are formed once per
``BoundQuery``, on its first evaluation, so each rho costs only the terms
that move with it.
``optimize_rho`` minimizes over rho; the four closed forms are particular
rho choices plus relaxations, so the optimized value sits below each of
them wherever their hypotheses hold.

Everything here is plain ``math`` on Python floats and complexes, the
32-point rho scan included, so the module loads without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import DomainError, ModeError
from .spectra import SpectrumSpec

_E = math.e


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """Moebius-invariant disk distance |(z - w)/(1 - conj(z) w)|, as the
    quotient of the two moduli: one correctly rounded division, so for real
    operands it is the correctly rounded quotient of the double numerator
    and denominator."""
    z = complex(z)
    w = complex(w)
    den = 1 - z.conjugate() * w
    if den == 0:
        raise DomainError("conj(z) w = 1: pseudo-hyperbolic distance undefined")
    return abs(z - w) / abs(den)


class BoundRule(Enum):
    MAIN_LEMMA_OPT = "mainlemma-optimized"
    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    CASE4 = "case4"
    SCHAEFFER_BASELINE = "schaeffer-baseline"


@dataclass(frozen=True)
class BoundQuery:
    spec: SpectrumSpec
    zeta: complex
    C: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "zeta", complex(self.zeta))
        if not 1 <= self.C < math.inf:
            raise DomainError("power-bound constant C must be finite and >= 1")
        if not (math.isfinite(self.zeta.real) and math.isfinite(self.zeta.imag)):
            raise DomainError("zeta must be finite")
        if any(abs(self.zeta - l) < 1e-15 for l in self.lams):
            raise DomainError("zeta lies in the spectrum")
        if any(1 - l.conjugate() * self.zeta == 0 for l in self.lams):
            raise DomainError("zeta conjugate-reciprocal to an eigenvalue")

    @property
    def lams(self) -> list:
        """The distinct eigenvalues, multiplicities dropped; every closed form
        takes its minima over these and |m| from ``spec.degree``."""
        return [lam for lam, _ in self.spec.points]

    @cached_property
    def _eigen_terms(self) -> list:
        """Per distinct eigenvalue l, the rho-free terms of the lemma bound:
        (conj(l) zeta, 1 - conj(l) zeta, |l|, log|zeta - l|,
        log(|1 - conj(l) zeta|/|zeta - l|), multiplicity)."""
        terms = []
        for lam, mult in self.spec.points:
            c = lam.conjugate() * self.zeta
            denom = 1 - c  # nonzero: __post_init__ rejects a conjugate-reciprocal zeta
            dist = abs(self.zeta - lam)
            terms.append((c, denom, abs(lam), math.log(dist), math.log(abs(denom) / dist), mult))
        return terms

    @cached_property
    def _log_C(self) -> float:
        return math.log(self.C)


@dataclass
class BoundReport:
    rule: BoundRule
    value: float
    rho_star: float | None = None


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _one_minus_sq(x: float) -> float:
    """1 - x^2 without the cancellation of forming x^2 first."""
    return (1 - x) * (1 + x)


def _run_log_sum(a: float, s: float, m: int) -> float:
    """log sum_{j<m} exp(a + j s), summed as a geometric series; a at s = -inf."""
    hi = max(a, a + (m - 1) * s)
    if s == 0:
        return hi + math.log(m)
    ss = -abs(s)
    return hi + math.log(math.expm1(m * ss) / math.expm1(ss))


def mainlemma_log_bound(q: BoundQuery, rho: float) -> float:
    """log of the rho-parameterized resolvent bound, summed run by run over
    the distinct eigenvalues (see the module docstring), so the cost is
    O(#points) whatever the multiplicities."""
    if not 0 < rho < 1:
        raise DomainError("rho must lie in (0, 1)")
    rho = float(rho)  # numpy scalars would send the complex arithmetic through numpy
    log_rho = math.log(rho)
    one_minus = _one_minus_sq(rho)
    offset = 0.0  # -2 (k - 1) log rho + 2 sum_{j<k} log |fac_j| at a run's start
    runs = []
    for c, denom, abs_lam, log_dist, log_ratio, mult in q._eigen_terms:
        # fac = (1 + w)/b with w = (1-rho^2) c/denom and b = (zeta - l)/denom;
        # log|1 + w| by log1p keeps a small slope accurate as it is scaled by m;
        # it is -inf where 1 + w = (1 - rho^2 c)/denom vanishes (rho^2 c = 1,
        # where the scan closes in for a unimodular l) and rounds to -1 or below
        w = one_minus * c / denom
        sq = w.real * (2 + w.real) + w.imag * w.imag
        log_fac = (0.5 * math.log1p(sq) if sq > -1 else -math.inf) + log_ratio
        slope = 2 * (log_fac - log_rho)
        start = offset + math.log(_one_minus_sq(rho * abs_lam)) - 2 * log_dist
        runs.append(_run_log_sum(start, slope, mult))
        offset += mult * slope
    if len(runs) == 1:
        total = runs[0]  # the log-sum-exp of one run: mx + log(1.0) == mx
    else:
        mx = max(runs)
        total = mx + math.log(sum(math.exp(t - mx) for t in runs))
    total -= math.log(one_minus)
    return q._log_C + 0.5 * total


_GOLDEN = (math.sqrt(5) - 1) / 2
_SCAN_POINTS = 32


def _scan_grid(edge: float) -> list:
    """_SCAN_POINTS equally spaced rhos from 1e-6 to 1 - edge, the last one
    exactly 1 - edge: start + i step, as numpy.linspace forms them."""
    step = (1 - edge - 1e-6) / (_SCAN_POINTS - 1)
    return [1e-6 + i * step for i in range(_SCAN_POINTS - 1)] + [1 - edge]


def optimize_rho(q: BoundQuery) -> BoundReport:
    """Minimize the lemma bound over rho in (0, 1): a _SCAN_POINTS pre-scan
    of [1e-6, 1 - edge] guards against multiple local minima, then
    golden-section refinement on log(bound) narrows the bracket to edge/100,
    with edge = min(1e-6, 0.01/|m|).  The minimizer approaches 1 like 1/|m|
    (about 1 - 0.27/|m| at lambda = 0.5, zeta = 1), so the edge follows |m|.
    The result is clipped by the scan minimum, so it never exceeds any
    scanned value."""
    edge = min(1e-6, 0.01 / q.spec.degree)
    rs = _scan_grid(edge)
    logv = [mainlemma_log_bound(q, r) for r in rs]
    i0 = min(range(_SCAN_POINTS), key=logv.__getitem__)  # the first minimum
    a = rs[max(0, i0 - 1)]
    b = rs[min(_SCAN_POINTS - 1, i0 + 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = mainlemma_log_bound(q, x1), mainlemma_log_bound(q, x2)
    while b - a > 1e-2 * edge:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = mainlemma_log_bound(q, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = mainlemma_log_bound(q, x2)
    rho_star = (a + b) / 2
    log_value = mainlemma_log_bound(q, rho_star)
    if log_value > logv[i0]:  # multimodal surprise: fall back to the scan
        rho_star = rs[i0]
        log_value = logv[i0]
    return BoundReport(
        rule=BoundRule.MAIN_LEMMA_OPT,
        value=_exp_or_inf(log_value),
        rho_star=rho_star,
    )


def thm_case1(q: BoundQuery) -> float:
    """All eigenvalues on the unit circle: C sqrt(|m|)/min_i |zeta - l_i|."""
    lams = q.lams
    if any(abs(abs(l) - 1) > 1e-12 for l in lams):
        raise ModeError("case 1 needs all eigenvalues on the unit circle")
    return q.C * math.sqrt(q.spec.degree) / min(abs(q.zeta - l) for l in lams)


def thm_case2(q: BoundQuery) -> float:
    """zeta = 0: C sqrt(|m| (e - r^(2|m|))) / r^|m| with r = min |l_i|;
    inf beyond the double range (use thm_case2_log there)."""
    return _exp_or_inf(thm_case2_log(q))


def thm_case2_log(q: BoundQuery) -> float:
    """log of the case-2 bound; usable where r^{-|m|} overflows, e.g.
    |m| ~ 700 at r = 0.1."""
    if q.zeta != 0:
        raise ModeError("case 2 is the zeta = 0 bound")
    r = min(abs(l) for l in q.lams)
    mm = q.spec.degree
    return (math.log(q.C) + 0.5 * (math.log(mm) + math.log(_E - r ** (2 * mm)))
            - mm * math.log(r))


def schaeffer_baseline(q: BoundQuery) -> float:
    """zeta = 0: C sqrt(e |m|) / r^|m|, the classical bound case 2 refines."""
    if q.zeta != 0:
        raise ModeError("the baseline is a zeta = 0 bound")
    r = min(abs(l) for l in q.lams)
    mm = q.spec.degree
    return _exp_or_inf(math.log(q.C) + 0.5 * math.log(_E * mm) - mm * math.log(r))


def thm_case3(q: BoundQuery) -> float:
    """zeta and the spectrum strictly inside the disk, pseudo-hyperbolic
    separation r in (0,1):
    C e sqrt(2) sqrt(|m|) / (min_i |1 - conj(l_i) zeta| r^|m|)
      * sqrt(1/(1 - r|zeta|) + 1/(2 (1-r^2) |m|))."""
    if abs(q.zeta) >= 1 or not q.spec.is_strict_interior:
        raise ModeError("case 3 needs zeta and the spectrum strictly inside the disk")
    lams = q.lams
    r = min(pseudo_hyperbolic(q.zeta, l) for l in lams)
    if r >= 1:
        raise ModeError("pseudo-hyperbolic separation must be < 1")
    mm = q.spec.degree
    mind = min(abs(1 - l.conjugate() * q.zeta) for l in lams)
    # delta_max = (1-r^2)/(1-r|zeta|) is the extremal value of
    # (1-|l|^2)/|1-conj(l)|zeta|| over the admissible spectrum; the first
    # term under the root is delta_max/(1-r^2)
    delta_max = (1 - r ** 2) / (1 - r * abs(q.zeta))
    log_val = (
        math.log(_E * math.sqrt(2))
        + 0.5 * math.log(mm)
        - math.log(mind)
        - mm * math.log(r)
        + 0.5 * math.log(delta_max / (1 - r ** 2) + 1 / (2 * (1 - r ** 2) * mm))
    )
    return _exp_or_inf(math.log(q.C) + log_val)


def thm_case4(q: BoundQuery) -> float:
    """zeta on the unit circle: the headline form
    (3/2) C sqrt(e^2 - 1) |m| / min_i |zeta - l_i|."""
    if abs(abs(q.zeta) - 1) > 1e-12:
        raise ModeError("case 4 needs |zeta| = 1")
    mind = min(abs(q.zeta - l) for l in q.lams)
    return 1.5 * q.C * math.sqrt(_E ** 2 - 1) * q.spec.degree / mind


def applicable_closed_forms(q: BoundQuery) -> dict:
    """Evaluate every closed form whose hypotheses hold for the query: each
    form states its own and raises ModeError where they fail."""
    out = {}
    for rule, form in ((BoundRule.CASE1, thm_case1), (BoundRule.CASE2, thm_case2),
                       (BoundRule.SCHAEFFER_BASELINE, schaeffer_baseline),
                       (BoundRule.CASE3, thm_case3), (BoundRule.CASE4, thm_case4)):
        try:
            out[rule] = form(q)
        except ModeError:
            pass
    return out
