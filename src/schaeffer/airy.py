"""Airy function Ai and its derivative on the real line, for a float or an array.

Two regimes:

* |x| <= 9: a Taylor expansion about the nearest node x0 of the integer
  grid -9, -8, ..., 9 (so |x - x0| <= 1/2), summed by Horner's rule in
  double precision.  The node values Ai(x0), Ai'(x0) come from the
  Maclaurin series Ai(x) = c1 f(x) - c2 g(x), c1 = 3^(-2/3)/Gamma(2/3),
  c2 = 3^(-1/3)/Gamma(1/3), whose partial sums reach magnitude ~ exp(xi),
  xi = (2/3)|x|^(3/2), before cancelling down to the answer; it is
  therefore accumulated in mpmath at 25 + 0.9 xi digits.  That series runs
  once per node, on first use, and never at import.  The higher Taylor
  coefficients follow from the Airy equation y'' = x y through the exact
  recurrence a_{k+2} = (x0 a_k + a_{k-1}) / ((k+1)(k+2)).  At degree
  ``TAYLOR_DEGREE`` the first neglected term is below 1e-24 of
  |Ai(x0)| + |Ai'(x0)| at every node, so the error is rounding: about
  1e-15 relative to the local scale of Ai, Ai'.

* |x| > 9: the standard asymptotic expansions (the oscillatory
  cos/sin(xi - pi/4) pair for negative arguments, the recessive
  exponential for positive ones) extended with the u_k / v_k correction
  sequences, truncated at the smallest term.  At the seam xi = 18 the
  optimally truncated tail is ~ exp(-2 xi) ~ 1e-15.

Every step is elementwise, so a float gives the same bits as the same
point inside an array.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SERIES_CUTOFF = 9.0
# Taylor nodes: the integers -9, ..., 9 (spacing 1, so |x - x0| <= 1/2)
_NODES = np.arange(-SERIES_CUTOFF, SERIES_CUTOFF + 1)
TAYLOR_DEGREE = 28
_N_CORRECTIONS = 24


def _correction_coeffs(K: int = _N_CORRECTIONS):
    # u_0 = 1, u_{k+1}/u_k = (3k+5/2)(3k+3/2)(3k+1/2) / (54 (k+1)(k+1/2));
    # v_k = u_k (6k+1)/(1-6k)
    u = [1.0]
    for k in range(K):
        u.append(u[-1] * (3 * k + 2.5) * (3 * k + 1.5) * (3 * k + 0.5) / (54 * (k + 1) * (k + 0.5)))
    v = [c * ((6 * k + 1) / (1 - 6 * k)) if k else c for k, c in enumerate(u)]
    return u, v


_U, _V = _correction_coeffs()


def _asym_sum(coeffs: list, xi: float) -> float:
    """sum_k (-1)^k coeffs[k] / xi^k, truncated at the smallest term."""
    total = 0.0
    prev = math.inf
    for k, u in enumerate(coeffs):
        term = u / xi ** k
        if abs(term) > abs(prev):
            break
        total += (-term if k % 2 else term)
        prev = term
    return total


def _asymptotic(x: float, derivative: bool) -> float:
    """Ai or Ai' at |x| > SERIES_CUTOFF."""
    u = _V if derivative else _U
    xi = (2.0 / 3.0) * abs(x) ** 1.5
    if x > 0:
        if derivative:
            return -(x ** 0.25) * math.exp(-xi) / (2 * math.sqrt(math.pi)) * _asym_sum(u, xi)
        return math.exp(-xi) / (2 * math.sqrt(math.pi) * x ** 0.25) * _asym_sum(u, xi)
    ax = -x
    even = _asym_sum(u[0::2], xi * xi)
    odd = _asym_sum(u[1::2], xi * xi) / xi
    c, s = math.cos(xi - math.pi / 4), math.sin(xi - math.pi / 4)
    if derivative:
        return ax ** 0.25 / math.sqrt(math.pi) * (s * even - c * odd)
    return (c * even + s * odd) / (math.sqrt(math.pi) * ax ** 0.25)


def _series(x: float, derivative: bool) -> float:
    import mpmath as mp

    xi = (2.0 / 3.0) * abs(x) ** 1.5
    dps = 25 + int(0.9 * xi)
    with mp.workdps(dps):
        X = mp.mpf(x)
        c1 = mp.power(3, mp.mpf(-2) / 3) / mp.gamma(mp.mpf(2) / 3)
        c2 = mp.power(3, mp.mpf(-1) / 3) / mp.gamma(mp.mpf(1) / 3)
        X3 = X ** 3
        if not derivative:
            # f = sum 3^k (1/3)_k x^{3k}/(3k)!; ratio x^3/((3k)(3k-1))
            # g = sum 3^k (2/3)_k x^{3k+1}/(3k+1)!; ratio x^3/((3k+1)(3k))
            tf = mp.mpf(1)
            f = tf
            tg = X
            g = tg
            k = 0
            while True:
                k += 1
                tf *= X3 / ((3 * k) * (3 * k - 1))
                tg *= X3 / ((3 * k + 1) * (3 * k))
                f += tf
                g += tg
                if abs(tf) < mp.eps * (abs(f) + 1) and abs(tg) < mp.eps * (abs(g) + 1):
                    break
            return float(c1 * f - c2 * g)
        # f' = sum_{k>=1} 3^k (1/3)_k x^{3k-1}/(3k-1)!; g' = sum 3^k (2/3)_k x^{3k}/(3k)!
        tf = X ** 2 / 2
        fd = tf
        k = 1
        while True:
            k += 1
            tf *= X3 / ((3 * k - 1) * (3 * k - 3))
            fd += tf
            if abs(tf) < mp.eps * (abs(fd) + 1):
                break
        tg = mp.mpf(1)
        gd = tg
        k = 0
        while True:
            k += 1
            tg *= X3 / ((3 * k) * (3 * k - 2))
            gd += tg
            if abs(tg) < mp.eps * (abs(gd) + 1):
                break
        return float(c1 * fd - c2 * gd)


@functools.cache
def _taylor_tables() -> tuple:
    """Taylor coefficients of Ai about every node, one row per node, and of
    Ai' (the term-by-term derivative); built once, on first use."""
    ai = np.zeros((len(_NODES), TAYLOR_DEGREE + 2))
    for row, x0 in zip(ai, _NODES.tolist()):
        row[0] = _series(x0, derivative=False)
        row[1] = _series(x0, derivative=True)
        # y'' = x y about x0: (k+1)(k+2) a_{k+2} = x0 a_k + a_{k-1}
        for k in range(TAYLOR_DEGREE):
            row[k + 2] = (x0 * row[k] + (row[k - 1] if k else 0.0)) / ((k + 1) * (k + 2))
    return ai[:, :-1], ai[:, 1:] * np.arange(1, TAYLOR_DEGREE + 2)


def _taylor(x, derivative: bool):
    """Ai or Ai' by Horner's rule about the nearest node; x is a float with
    |x| <= SERIES_CUTOFF or an array of such values."""
    node = np.rint(x)
    coeffs = _taylor_tables()[derivative][(node + SERIES_CUTOFF).astype(int)].T
    h = x - node  # exact: x and node are within 1/2 of each other
    p = coeffs[-1]
    for c in coeffs[-2::-1]:
        p = p * h + c
    return p


def _evaluate(x, derivative: bool):
    if np.ndim(x) == 0:
        x = float(x)
        if abs(x) <= SERIES_CUTOFF:
            return float(_taylor(x, derivative))
        return _asymptotic(x, derivative)
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inner = np.abs(x) <= SERIES_CUTOFF
    out[inner] = _taylor(x[inner], derivative)
    # the expansion stops at a different term for each point; the scalar
    # loop keeps its bits, and callers pass only a few points out here
    out[~inner] = [_asymptotic(v, derivative) for v in x[~inner].tolist()]
    return out


def airy_ai(x):
    """Ai(x) for a float (returns a float) or an array (returns an array)."""
    return _evaluate(x, derivative=False)


def airy_ai_prime(x):
    """Ai'(x) for a float (returns a float) or an array (returns an array)."""
    return _evaluate(x, derivative=True)
