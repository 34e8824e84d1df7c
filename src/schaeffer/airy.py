"""Airy function Ai and its derivative on the real line, for a float or an array.

Two regimes:

* |x| <= 9: a Taylor expansion about the nearest node x0 of the integer
  grid -9, -8, ..., 9 (so |x - x0| <= 1/2), summed by Horner's rule in
  double precision.  The node values Ai(x0), Ai'(x0) are literals: the
  Maclaurin series Ai(x) = c1 f(x) - c2 g(x), c1 = 3^(-2/3)/Gamma(2/3),
  c2 = 3^(-1/3)/Gamma(1/3), summed at 25 + 0.9 xi digits,
  xi = (2/3)|x|^(3/2), because its partial sums reach ~ exp(xi) before
  cancelling down to the answer, and rounded to double (tests/test_airy.py
  holds that series and checks every literal against it bit for bit).
  The higher Taylor coefficients follow, once per process on first use,
  from the Airy equation y'' = x y through the exact recurrence
  a_{k+2} = (x0 a_k + a_{k-1}) / ((k+1)(k+2)).  At degree
  ``TAYLOR_DEGREE`` the first neglected term is below 1e-24 of
  |Ai(x0)| + |Ai'(x0)| at every node, so the error is rounding: about
  1e-15 relative to the local scale of Ai, Ai'.

* |x| > 9: the standard asymptotic expansions (the oscillatory
  cos/sin(xi - pi/4) pair for negative arguments, the recessive
  exponential for positive ones) extended with the u_k / v_k correction
  sequences, truncated at the smallest term.  At the seam xi = 18 the
  optimally truncated tail is ~ exp(-2 xi) ~ 1e-15.

A float is evaluated as a 0-d array, and every step is elementwise, so
it gives the same bits as the same point inside an array.
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
# (Ai(x0), Ai'(x0)) at each node x0, rounded to double and written
# to 17 significant digits, so each literal reads back as the same double
_NODE_VALUES = (
    (-2.2133721547341403e-02, -9.7566398092633155e-01),  # -9
    (-5.2705050356386202e-02,  9.3556093819830655e-01),  # -8
    ( 1.8428083525050565e-01, -7.7100816841012654e-01),  # -7
    (-3.2914517362982310e-01,  3.4593548728134288e-01),  # -6
    ( 3.5076100902411433e-01,  3.2719281855444315e-01),  # -5
    (-7.0265532949289514e-02, -7.9062857536858133e-01),  # -4
    (-3.7881429367765806e-01,  3.1458376921659881e-01),  # -3
    ( 2.2740742820168558e-01,  6.1825902074169103e-01),  # -2
    ( 5.3556088329235207e-01, -1.0160567116645210e-02),  # -1
    ( 3.5502805388781722e-01, -2.5881940379280682e-01),  # 0
    ( 1.3529241631288141e-01, -1.5914744129679320e-01),  # 1
    ( 3.4924130423274378e-02, -5.3090384433653631e-02),  # 2
    ( 6.5911393574607192e-03, -1.1912976705951319e-02),  # 3
    ( 9.5156385120480184e-04, -1.9586409502041790e-03),  # 4
    ( 1.0834442813607442e-04, -2.4741389086846248e-04),  # 5
    ( 9.9476943602528888e-06, -2.4765200397034955e-05),  # 6
    ( 7.4921288639971666e-07, -2.0081508947387919e-06),  # 7
    ( 4.6922076160992316e-08, -1.3414392979067865e-07),  # 8
    ( 2.4711684308724899e-09, -7.4806413896589461e-09),  # 9
)


def _correction_coeffs():
    # u_0 = 1, u_{k+1}/u_k = (3k+5/2)(3k+3/2)(3k+1/2) / (54 (k+1)(k+1/2));
    # v_k = u_k (6k+1)/(1-6k)
    u = [1.0]
    for k in range(_N_CORRECTIONS):
        u.append(u[-1] * (3 * k + 2.5) * (3 * k + 1.5) * (3 * k + 0.5) / (54 * (k + 1) * (k + 0.5)))
    v = [c * ((6 * k + 1) / (1 - 6 * k)) if k else c for k, c in enumerate(u)]
    return u, v


_U, _V = _correction_coeffs()


def _asym_sum(coeffs: list, xi: float) -> float:
    """sum_k (-1)^k coeffs[k] / xi^k, truncated at the smallest term.

    The terms it adds shrink in size, and the sum's neighbours on either
    side lie at least half its ulp away, so a term below a quarter of the
    ulp leaves the sum unchanged and so does every later one: the loop
    stops there with the bits of the full sum."""
    total = 0.0
    prev = math.inf  # size of the previous term
    for k, u in enumerate(coeffs):
        term = u / xi ** k
        size = abs(term)
        if size > prev or size < math.ulp(total) / 4:
            break
        total += (-term if k % 2 else term)
        prev = size
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


@functools.cache
def _taylor_tables() -> tuple:
    """Taylor coefficients of Ai about every node, one row per node, and of
    Ai' (the term-by-term derivative); built once, on first use."""
    ai = np.zeros((len(_NODES), TAYLOR_DEGREE + 2))
    for row, x0, values in zip(ai, _NODES.tolist(), _NODE_VALUES):
        row[:2] = values
        # y'' = x y about x0: (k+1)(k+2) a_{k+2} = x0 a_k + a_{k-1}
        for k in range(TAYLOR_DEGREE):
            row[k + 2] = (x0 * row[k] + (row[k - 1] if k else 0.0)) / ((k + 1) * (k + 2))
    return ai[:, :-1], ai[:, 1:] * np.arange(1, TAYLOR_DEGREE + 2)


def _taylor(x, derivative: bool):
    """Ai or Ai' by Horner's rule about the nearest node, elementwise over
    an array x of values with |x| <= SERIES_CUTOFF."""
    node = np.rint(x)
    coeffs = _taylor_tables()[derivative][(node + SERIES_CUTOFF).astype(int)].T
    h = x - node  # exact: x and node are within 1/2 of each other
    p = coeffs[-1]
    for c in coeffs[-2::-1]:
        p = p * h + c
    return p


def _evaluate(x, derivative: bool):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inner = np.abs(x) <= SERIES_CUTOFF
    out[inner] = _taylor(x[inner], derivative)
    # the scalar loop stays, though one asymptotics pass sends hundreds of
    # points out here: numpy's array power and exp round differently from
    # the scalar ** and math.exp (about 5% of results differ in the last
    # bit), so an array version would move the values
    out[~inner] = [_asymptotic(v, derivative) for v in x[~inner].tolist()]
    return out[()]  # a 0-d input gives an np.float64, which is a float


def airy_ai(x):
    """Ai(x) for a float (returns a float) or an array (returns an array)."""
    return _evaluate(x, derivative=False)


def airy_ai_prime(x):
    """Ai'(x) for a float (returns a float) or an array (returns an array)."""
    return _evaluate(x, derivative=True)
