import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import schaeffer
from schaeffer import _airy_oracle, airy
from schaeffer.airy import airy_ai, airy_ai_prime


def _series(x: float, derivative: bool) -> float:
    """Ai(x) or Ai'(x) from the Maclaurin series Ai = c1 f - c2 g, summed in
    mpmath at 25 + 0.9 xi digits (its partial sums reach ~ exp(xi) before
    cancelling) and rounded to double: the reference for the node literals."""
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


def _full_asym_sum(coeffs, xi):
    """The asymptotic sum with every term up to the smallest one added."""
    total, prev = 0.0, math.inf
    for k, u in enumerate(coeffs):
        term = u / xi ** k
        if abs(term) > abs(prev):
            break
        total += (-term if k % 2 else term)
        prev = term
    return total


def test_asymptotic_sum_stops_with_the_full_sum_bits():
    # as _asymptotic calls it for |x| >= 9: both coefficient lists at xi >= 18
    # for x > 0, their even and odd halves at xi^2 for x < 0; dense near the
    # cutoff, where the most terms count
    rng = np.random.default_rng(36)
    xis = np.concatenate([np.geomspace(18, 1e7, 4000), rng.uniform(18, 40, 4000)]).tolist()
    cases = [(coeffs, xi) for coeffs in (airy._U, airy._V) for xi in xis]
    cases += [(coeffs[start::2], xi * xi) for coeffs in (airy._U, airy._V)
              for start in (0, 1) for xi in xis]
    for coeffs, xi in cases:
        assert airy._asym_sum(coeffs, xi).hex() == _full_asym_sum(coeffs, xi).hex(), xi


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


def test_node_literals_equal_the_series_bitwise():
    # every literal is the double the high-precision Maclaurin series rounds to
    for x0, (ai, aip) in zip(airy._NODES.tolist(), airy._NODE_VALUES):
        assert ai == _series(x0, derivative=False), x0
        assert aip == _series(x0, derivative=True), x0


def test_oracle_literals_equal_mpmath_bitwise():
    # criterion 8's oracle is the double each 40-digit mpmath value rounds to
    stored = np.frombuffer(bytes.fromhex(_airy_oracle.ORACLE_HEX), "<f8")
    assert stored.shape == (802,)
    oracle_ai, oracle_aip = stored.reshape(2, -1).tolist()
    with mp.workdps(40):
        for x, ai, aip in zip(np.linspace(-20, 20, 401).tolist(), oracle_ai, oracle_aip):
            assert ai == float(mp.airyai(mp.mpf(x))), x
            assert aip == float(mp.airyai(mp.mpf(x), 1)), x


def test_cli_paths_other_than_validate_import_no_mpmath(tmp_path):
    # growth (L only), coeffs, bounds and asymptotics, Airy included, run
    # without mpmath
    out = str(tmp_path)
    code = ("import sys\n"
            "from schaeffer.cli import main\n"
            f"d = {out!r}\n"
            "assert main(['growth', '--lambda', '0.5', '--n', '128,256', '--phi-max-n', '64',"
            " '--out', d + '/g.csv']) == 0\n"
            "assert main(['coeffs', '--lambda', '0.5', '--n', '64', '--out', d + '/c.csv']) == 0\n"
            "assert main(['bounds', '--lambda', '0.5', '--n', '16', '--zeta', '0,0.9',"
            " '--out', d + '/b.csv']) == 0\n"
            "assert main(['asymptotics', '--lambda', '0.5', '--n', '64,128,256,512',"
            " '--out', d + '/a.csv']) == 0\n"
            "print('mpmath' in sys.modules)\n")
    paths = [str(Path(schaeffer.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    assert (tmp_path / "a.csv.fits.csv").exists()


def test_validate_imports_neither_mpmath_nor_numpy_random():
    # criterion 8 reads its oracle and criterion 7 its sample draws from
    # literals, so validate runs without mpmath and without numpy.random
    code = ("import sys\n"
            "from schaeffer.cli import main\n"
            "assert main(['validate']) == 0\n"
            "print('mpmath' in sys.modules or 'numpy.random' in sys.modules)\n")
    paths = [str(Path(schaeffer.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["11/11 criteria passed", "False"]


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
