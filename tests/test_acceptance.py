"""Acceptance gate: one test per numbered criterion, each printing its
pass/fail line.  Every tolerance is pinned inside schaeffer.acceptance.

Criterion 11 compares the scaled resolvent interpolation norms with their
certified exact values, pinned in schaeffer.acceptance; the bracket that
certifies them is recomputed in tests/test_wiener_opt.py.
"""

import math

import numpy as np

from schaeffer import acceptance, asymptotics, wiener_opt
from schaeffer._saddle_draws import DRAWS_HEX


def _run(fn):
    result = fn()
    print()
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_01_sqrt_n_growth():
    _run(acceptance.criterion_1)


def test_criterion_02_envelope_constant():
    _run(acceptance.criterion_2)


def test_criterion_03_phi_sandwich():
    _run(acceptance.criterion_3)


def test_criterion_04_toeplitz_construction():
    _run(acceptance.criterion_4)


def test_criterion_05_case2_refinement():
    _run(acceptance.criterion_5)


def test_criterion_06_bound_dominance():
    _run(acceptance.criterion_6)


def test_criterion_07_saddle_correctness():
    result = _run(acceptance.criterion_7)
    # the line README documents, byte for byte
    assert result.line() == (
        "PASS criterion  7 [saddle correctness]: worst |f'(z_pm)| = 6.13e-12; "
        "trichotomy and coalesced f''' closed form verified")


def test_criterion_07_checks_the_saddles_the_estimates_use(monkeypatch):
    pick = asymptotics._pick_saddles

    def wrong(mu, a):
        zp, zm = pick(mu, a)
        return zp, 2 * zm

    monkeypatch.setattr(asymptotics, "_pick_saddles", wrong)
    assert not acceptance.criterion_7().passed


def test_saddle_draws_are_the_generator_draws_bitwise():
    stored = np.frombuffer(bytes.fromhex(DRAWS_HEX), "<f8")
    assert stored.tobytes() == np.random.default_rng(20250810).random(2000).tobytes()


def test_saddle_samples_are_the_scalar_uniform_draws_bitwise():
    # criterion 7 once drew each sample with two scalar Generator.uniform
    # calls; the stored draws must give the same 1000 pairs
    rng = np.random.default_rng(20250810)
    expected = []
    for _ in range(1000):
        lam = float(rng.uniform(0.05, 0.95))
        a0 = asymptotics.alpha0(lam)
        a = float(math.exp(rng.uniform(math.log(0.3 * a0), math.log(3.0 / a0))))
        expected.append((lam.hex(), a.hex()))
    assert [(lam.hex(), a.hex()) for lam, a in acceptance._saddle_samples()] == expected


def test_criterion_08_airy_quality():
    _run(acceptance.criterion_8)


def test_criterion_09_uniform_airy_vs_truth():
    _run(acceptance.criterion_9)


def test_criterion_10_region_decay_rates():
    _run(acceptance.criterion_10)


def test_criterion_11_resolvent_growth():
    _run(acceptance.criterion_11)


def test_criterion_11_requires_every_norm_certified(monkeypatch):
    # the n = 16 norm keeps its value but loses its certificate
    norm = wiener_opt.resolvent_interpolation_norm

    def uncertified(spec, zeta):
        res = norm(spec, zeta)
        return res._replace(converged=False) if spec.degree == 16 else res

    monkeypatch.setattr(wiener_opt, "resolvent_interpolation_norm", uncertified)
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.details.endswith(", uncertified n = [16]")
