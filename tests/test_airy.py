import math

import mpmath as mp
import numpy as np
import pytest

from schaeffer import airy
from schaeffer.airy import airy_ai, airy_ai_prime


def test_value_at_zero_closed_form():
    # 3^(-2/3)/Gamma(2/3) and -3^(-1/3)/Gamma(1/3)
    with mp.workdps(30):
        a0 = float(mp.power(3, mp.mpf(-2) / 3) / mp.gamma(mp.mpf(2) / 3))
        a0p = float(-mp.power(3, mp.mpf(-1) / 3) / mp.gamma(mp.mpf(1) / 3))
    assert airy_ai(0.0) == pytest.approx(a0, rel=1e-14)
    assert airy_ai_prime(0.0) == pytest.approx(a0p, rel=1e-14)
    assert airy_ai(0.0) == pytest.approx(0.3550280538878172, rel=1e-15)
    assert airy_ai_prime(0.0) == pytest.approx(-0.2588194037928068, rel=1e-15)


@pytest.mark.parametrize("x", np.linspace(-20, 20, 81))
def test_against_library_oracle(x):
    with mp.workdps(40):
        ora = float(mp.airyai(mp.mpf(float(x))))
        orap = float(mp.airyai(mp.mpf(float(x)), 1))
    assert abs(airy_ai(float(x)) - ora) <= 1e-10 * abs(ora)
    assert abs(airy_ai_prime(float(x)) - orap) <= 1e-10 * abs(orap)


def test_quadrature_oracle():
    # nonoscillatory integral representation
    # Ai(x) = exp(-xi)/pi * int_0^inf exp(-sqrt(x) t^2) cos(t^3/3) dt, x > 0
    for x in (1.0, 3.0):
        with mp.workdps(30):
            xi = mp.mpf(2) / 3 * mp.mpf(x) ** mp.mpf(1.5)
            val = mp.quad(lambda t: mp.exp(-mp.sqrt(x) * t * t) * mp.cos(t ** 3 / 3),
                          [0, mp.inf])
            oracle = float(mp.exp(-xi) / mp.pi * val)
        assert airy_ai(x) == pytest.approx(oracle, rel=1e-10)


def test_large_positive_matches_leading_asymptotic_within_2pct():
    x = 10.0
    lead = math.exp(-(2 / 3) * x ** 1.5) / (2 * x ** 0.25 * math.sqrt(math.pi))
    assert abs(airy_ai(x) - lead) / lead < 0.02
    assert airy_ai(x) == pytest.approx(1.1047532552898695e-10, rel=1e-9)


def test_large_negative_oscillatory_form():
    x = 15.0
    xi = (2 / 3) * x ** 1.5
    lead = math.cos(xi - math.pi / 4) / (math.sqrt(math.pi) * x ** 0.25)
    assert abs(airy_ai(-x) - lead) < 0.02 * (math.pi ** -0.5 * x ** -0.25)


def _ulp_neighbours(xs):
    return np.concatenate([np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf)])


def test_dense_accuracy_on_the_taylor_range():
    # 2001 points, each node and its 1-ulp neighbours, and each midpoint,
    # where the nearest node changes
    nodes = airy._NODES
    xs = np.concatenate([np.linspace(-9, 9, 2001), _ulp_neighbours(nodes),
                         (nodes[:-1] + nodes[1:]) / 2])
    got, gotp = airy_ai(xs), airy_ai_prime(xs)
    worst = 0.0
    with mp.workdps(40):
        for x, v, vp in zip(xs.tolist(), got.tolist(), gotp.tolist()):
            ora = float(mp.airyai(mp.mpf(x)))
            orap = float(mp.airyai(mp.mpf(x), 1))
            worst = max(worst, abs(v - ora) / abs(ora), abs(vp - orap) / abs(orap))
    assert worst <= 1e-12


def test_array_matches_scalar_bitwise():
    nodes = airy._NODES
    xs = np.concatenate([np.linspace(-20, 20, 801), _ulp_neighbours(nodes),
                         _ulp_neighbours((nodes[:-1] + nodes[1:]) / 2)])
    for fn in (airy_ai, airy_ai_prime):
        arr = fn(xs)
        assert isinstance(fn(1.5), float)
        assert np.array_equal(arr, [fn(x) for x in xs.tolist()])
        assert np.array_equal(fn(xs.reshape(3, -1)), arr.reshape(3, -1))


def test_seam_continuity():
    # every piece boundary: the midpoints between Taylor nodes, where the
    # node changes, and the Taylor/asymptotic handover at +-9.  The jump is
    # measured against |Ai| + |Ai'|, the size of the solution there: plain
    # relative jumps are meaningless at seams next to a zero of Ai or Ai'
    # (-9.02 and -8.49), where the function itself moves by 3e-13 of its
    # value across the two ulps between the sides.
    nodes = airy._NODES
    seams = np.concatenate([(nodes[:-1] + nodes[1:]) / 2, [-9.0, 9.0]])
    lo, hi = np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf)
    size = np.abs(airy_ai(seams)) + np.abs(airy_ai_prime(seams))
    for fn in (airy_ai, airy_ai_prime):
        assert np.all(np.abs(fn(lo) - fn(hi)) <= 1e-13 * size)


def test_series_runs_only_to_build_the_node_table(monkeypatch):
    calls = []
    series = airy._series

    def counted(x, derivative):
        calls.append(x)
        return series(x, derivative)

    monkeypatch.setattr(airy, "_series", counted)
    airy._taylor_tables.cache_clear()
    limit = 2 * len(airy._NODES)
    try:
        xs = np.linspace(-9, 9, 10_000)
        airy_ai(xs)
        airy_ai_prime(xs)
        assert len(calls) <= limit
        for x in xs.tolist():
            airy_ai(x)
            airy_ai_prime(x)
            assert len(calls) <= limit
    finally:
        airy._taylor_tables.cache_clear()


def test_ode_residual_second_difference():
    xs = np.arange(-10, 10.01, 0.5)
    res = {}
    for h in (0.1, 0.05):
        res[h] = max(
            abs((airy_ai(x + h) - 2 * airy_ai(x) + airy_ai(x - h)) / h ** 2 - x * airy_ai(x))
            for x in xs
        )
    order = math.log2(res[0.1] / res[0.05])
    assert 1.6 <= order <= 2.4


def test_wronskian_identity():
    # Ai(x) Bi'(x) - Ai'(x) Bi(x) = 1/pi; checked against the library Bi
    for x in (-5.0, -1.0, 0.5, 4.0):
        with mp.workdps(30):
            bi = float(mp.airybi(x))
            bip = float(mp.airybi(x, 1))
        w = airy_ai(x) * bip - airy_ai_prime(x) * bi
        assert w == pytest.approx(1 / math.pi, rel=1e-10)
