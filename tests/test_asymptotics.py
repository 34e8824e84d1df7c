import cmath
import math

import numpy as np
import pytest

from schaeffer import asymptotics as A
from schaeffer.errors import DomainError, ModeError


class TestStationaryPoints:
    """The saddles as ``_pick_saddles`` forms them for every estimate."""

    def test_circle_pair_midpoint(self):
        zp, zm = A._pick_saddles(0.5, 1.0)
        assert zp == pytest.approx(0.5 + 1j * math.sqrt(0.75), abs=1e-14)
        assert abs(abs(zp) - 1) < 1e-14
        assert zm == pytest.approx(np.conj(zp))

    def test_coalesced_right(self):
        zp, zm = A._pick_saddles(0.5, 3.0)
        assert zp == zm == 1.0

    def test_coalesced_left(self):
        # 1/3 is not a double, so the pair sits about 2e-8 either side of -1
        zp, zm = A._pick_saddles(0.5, 1 / 3)
        assert zp == pytest.approx(-1.0, abs=1e-7)
        assert zm == pytest.approx(-1.0, abs=1e-7)

    def test_real_pair_reciprocal(self):
        zp, zm = A._pick_saddles(0.5, 4.0)
        assert zp.imag == zm.imag == 0
        assert zp * zm == pytest.approx(1.0, abs=1e-12)
        assert A.phase_value(0.5, 4.0, zp).real >= 0

    def test_gradient_vanishes(self):
        for a in (0.9, 1.7, 3.5):
            for z in A._pick_saddles(0.5, a):
                assert abs(A._phase_f1(0.5, a, complex(z))) < 1e-10


class TestPhaseDerivatives:
    def test_third_derivative_coalesced(self):
        f3 = A._phase_f3(0.5, 3.0, 1.0 + 0j)
        assert f3 == pytest.approx(-12.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_third_derivative_closed_form(self, lam):
        ac = 1 / A.alpha0(lam)
        f3 = A._phase_f3(lam, ac, 1.0 + 0j)
        assert f3 == pytest.approx(-2 * lam * (1 + lam) / (1 - lam) ** 3, rel=1e-12)

    def test_second_derivative_closed_form_at_saddles(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = float(rng.uniform(0.1, 0.9))
            a0 = A.alpha0(lam)
            a = float(rng.uniform(1.05 * a0, 0.95 / a0))
            z, _ = A._pick_saddles(lam, a)
            direct = A._phase_f2(lam, a, z)
            # f'' at a stationary point, with a eliminated through f' = 0
            closed = (1 - lam ** 2) * (1 - z * z) * lam / (z * (z - lam) ** 2 * (1 - lam * z) ** 2)
            assert direct == pytest.approx(closed, rel=1e-8)

    def test_second_derivative_vs_numerical(self):
        lam, a = 0.5, 1.3
        z, _ = A._pick_saddles(lam, a)
        h = 1e-6
        num = (A._phase_f1(lam, a, z + h) - A._phase_f1(lam, a, z - h)) / (2 * h)
        assert num == pytest.approx(A._phase_f2(lam, a, z), rel=1e-7)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            A.phase_value(0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            A.phase_value(0.5, 1.0, 0j)


class TestRegions:
    def test_example_rows(self):
        assert A.classify_region(0.5, 1000, 200) is A.Region.II
        assert A.classify_region(0.5, 1000, 1000) is A.Region.IV
        assert A.classify_region(0.5, 1000, 5999) is A.Region.VI
        assert A.classify_region(0.5, 1000, 6000) is A.Region.VII

    def test_partition_monotone(self):
        order = list(A.Region)
        prev = 0
        seen = set()
        for k in range(0, 7001, 7):
            idx = order.index(A.classify_region(0.5, 1000, k))
            assert idx >= prev
            prev = idx
            seen.add(idx)
        assert seen == set(range(7))

    def test_small_n_degenerate_thresholds_still_partition(self):
        for k in range(0, 60):
            A.classify_region(0.5, 8, k)  # must not raise

    def test_config_validation(self):
        with pytest.raises(DomainError):
            A.classify_region(0.5, 100, 10, alpha=0.5)  # alpha above alpha0
        with pytest.raises(DomainError):
            A.classify_region(0.5, 100, 10, beta=0.2)   # beta below alpha0

    def test_alpha0_values(self):
        assert A.alpha0(0.5) == pytest.approx(1 / 3)
        assert A.alpha0(1 / 3) == pytest.approx(0.5)
        assert A.alpha0(1e-9) == pytest.approx(1.0, abs=1e-8)


def _gamma_sq(lam, a, n=1024):
    """gamma^2 as the uniform Airy estimate computes it at k = a n."""
    return A.uniform_airy_estimate(lam, n, a * n).gamma_sq


def _gamma_sq_leading_order(lam, a):
    """First-order expansion of gamma^2 about the right coalescence:
    (a - 1/alpha0)(1 - lambda)/(lambda (1 + lambda))^(1/3)."""
    return (a - 1 / A.alpha0(lam)) * (1 - lam) / (lam * (1 + lam)) ** (1 / 3)


class TestGamma:
    def test_zero_at_coalescence(self):
        assert _gamma_sq(0.5, 3.0) == 0.0

    def test_right_side_positive_and_leading_order(self):
        g2 = _gamma_sq(0.5, 3.1)
        lead = _gamma_sq_leading_order(0.5, 3.1)
        assert g2 > 0
        assert 0.8 <= g2 / lead <= 1.2

    def test_left_side_negative(self):
        assert _gamma_sq(0.5, 2.9) < 0

    def test_leading_order_ratio_tends_to_one(self):
        r1 = _gamma_sq(0.5, 3.01) / _gamma_sq_leading_order(0.5, 3.01)
        r2 = _gamma_sq(0.5, 3.001) / _gamma_sq_leading_order(0.5, 3.001)
        assert abs(r2 - 1) < abs(r1 - 1)
        assert abs(r2 - 1) < 2e-3

    def test_mode_error_outside_neighborhood(self):
        with pytest.raises(ModeError):
            _gamma_sq(0.5, 1.0)


def _contour(lam, n, k):
    """``blaschke.log_weighted_coeff_magnitude`` at k alone, on the circle
    through the saddle with Re f >= 0, the radius ``decay_exponent_fit``
    passes."""
    from schaeffer.blaschke import log_weighted_coeff_magnitude

    return log_weighted_coeff_magnitude(lam, n, k, abs(A._pick_saddles(lam, k / n)[0]))


def _airy_rel_error(lam, n, k):
    """Pointwise relative error of the uniform Airy estimate against the
    FFT truth at integer k."""
    truth = A.weighted_truth(lam, n, k)
    est = A.uniform_airy_estimate(lam, n, k)
    return abs(est.value - truth) / max(abs(truth), 1e-14)


class TestUniformAiry:
    def test_right_center(self):
        est = A.uniform_airy_estimate(0.5, 1024, 3072)
        assert _airy_rel_error(0.5, 1024, 3072) <= 0.10
        assert est.branch_ok
        # at the coalescence A0 = 0 and the value reduces to the A1 term
        # 2 (-2/f'''(1))^(2/3) Ai'(0) / n^(2/3) with f''' = -12
        expect = 2 * (1 / 6) ** (2 / 3) * (-0.2588194037928068) / 1024 ** (2 / 3)
        assert est.value.real == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("k", [2900, 3000, 3150, 3220])
    def test_right_window_accuracy(self, k):
        assert _airy_rel_error(0.5, 1024, k) <= 0.10

    def test_row_vi_exponential_consistency(self):
        n = 1024
        k2 = 3072 + 2 * math.ceil(n ** (1 / 3))
        e0 = A.uniform_airy_estimate(0.5, n, 3072)
        e2 = A.uniform_airy_estimate(0.5, n, k2)
        assert abs(e2.value) < abs(e0.value)
        ell = (1 - 0.5) / (0.5 * 1.5) ** (1 / 3)
        predicted = -(2 / 3) * n * ((k2 / n - 3) * ell) ** 1.5
        measured = math.log(abs(e2.value) / abs(e0.value))
        assert abs(measured - predicted) < 1.0  # algebraic prefactors only

    def test_coalescence_continuity(self):
        n = 1024
        eps = 1e-4
        left = A.uniform_airy_estimate(0.5, n, (3 - eps) * n)
        right = A.uniform_airy_estimate(0.5, n, (3 + eps) * n)
        assert abs(left.value - right.value) / abs(right.value) < 1e-3

    @pytest.mark.parametrize("k", [330, 341, 360])
    def test_left_edge_mirror(self, k):
        assert _airy_rel_error(0.5, 1024, k) <= 0.10
        assert A.uniform_airy_estimate(0.5, 1024, k).branch_ok

    def test_mid_range_rejected(self):
        with pytest.raises(ModeError):
            A.uniform_airy_estimate(0.5, 1024, 1024)

    def test_gamma_sign_tracks_side(self):
        assert A.uniform_airy_estimate(0.5, 1024, 3200).gamma_sq > 0
        assert A.uniform_airy_estimate(0.5, 1024, 2950).gamma_sq < 0


def _scalar_airy_core(mu, n, a):
    """Reference for ``A._airy_cores`` at one ratio off the coalescence: the
    saddles, gamma and z'(t_pm) computed one tracking step at a time with
    scalar arithmetic.  Returns (value, gamma_sq, branch_ok)."""
    from schaeffer.airy import airy_ai, airy_ai_prime

    def saddles(asub):
        M = A._midpoint(mu, asub)
        if M * M <= 1:
            zp = complex(M, math.sqrt(1 - M * M))
            return zp, np.conj(zp)
        s = math.sqrt(M * M - 1)
        c1, c2 = complex(M + s), complex(M - s)
        return (c1, c2) if A.phase_value(mu, asub, c1).real >= 0 else (c2, c1)

    def gamma(asub, zp):
        g3 = 1.5 * A.phase_value(mu, asub, zp)
        roots = [abs(g3) ** (1 / 3) * np.exp(1j * (np.angle(g3) + 2 * math.pi * i) / 3)
                 for i in range(3)]
        return min(roots, key=lambda r: abs((r * r).imag))

    ac = A._coalescence_ratio(mu)
    seed = A._zprime_seed(mu, ac)
    zp, zm = saddles(a)
    gam = gamma(a, zp)
    g2 = float((gam * gam).real)
    wp_prev = wm_prev = seed
    ok = True
    for s in range(1, A._BRANCH_STEPS + 1):
        asub = ac + (a - ac) * s / A._BRANCH_STEPS
        zps, zms = saddles(asub)
        gs = gamma(asub, zps)
        wp = np.sqrt(-2 * gs / A._phase_f2(mu, asub, complex(zps)))
        wm = np.sqrt(2 * gs / A._phase_f2(mu, asub, complex(zms)))
        if abs(wp - wp_prev) > abs(-wp - wp_prev):
            wp = -wp
        if abs(wm - wm_prev) > abs(-wm - wm_prev):
            wm = -wm
        jump = max(abs(wp - wp_prev) / max(abs(wp_prev), 1e-30),
                   abs(wm - wm_prev) / max(abs(wm_prev), 1e-30))
        if jump > A._BRANCH_JUMP_LIMIT and s > 1:
            ok = False
        wp_prev, wm_prev = wp, wm
    G0p, G0m = A._psi(zp) * wp_prev, A._psi(zm) * wm_prev
    A0 = (G0p + G0m) / 2
    A1 = (G0p - G0m) / (2 * gam)
    x = n ** (2 / 3) * g2
    sigma = 1.0 if seed.real > 0 else -1.0
    value = sigma * (A0 / n ** (1 / 3) * airy_ai(x) + A1 / n ** (2 / 3) * airy_ai_prime(x))
    return complex(value), g2, ok


@pytest.mark.parametrize("lam", [0.1, 0.2, 0.5, 0.9])
def test_vectorised_branch_tracking_matches_scalar_steps(lam):
    # both coalescences (mu = lam at a = 1/alpha0, the mirrored mu = -lam at
    # alpha0), dense on either side; at lambda = 0.1 the far paths cross
    # from the circle onto the real axis and tracking fails there
    a0 = A.alpha0(lam)
    r = np.geomspace(1e-5, 0.5, 40)
    for mu, ac in ((lam, 1 / a0), (-lam, a0)):
        for a in (ac * np.concatenate([1 - r, 1 + r])).tolist():
            for n in (256, 2048):
                value, g2, ok = A._airy_cores(mu, n, [a])[0]
                ref_value, ref_g2, ref_ok = _scalar_airy_core(mu, n, a)
                assert ok == ref_ok
                assert g2 == ref_g2
                assert abs(value - ref_value) <= 1e-13 * abs(ref_value)


def test_batched_estimates_match_scalar_reference():
    # every k of the CLI's default grid in one call, across both windows and
    # their overlap (lambda <= 0.268), plus the coalescence index and two
    # float ks next to it
    from schaeffer.cli import _default_k_grid

    cases = [(lam, n, _default_k_grid(lam, n))
             for lam in (0.05, 0.2, 0.35, 0.5, 0.65, 0.9) for n in (256, 2048)]
    cases.append((0.5, 1024, [3072, (3 - 1e-4) * 1024, (3 + 1e-4) * 1024]))
    for lam, n, ks in cases:
        batch = A.uniform_airy_estimates(lam, n, ks)
        assert len(batch) == len(ks)
        a0 = A.alpha0(lam)
        for k, est in zip(ks, batch):
            try:
                single = A.uniform_airy_estimate(lam, n, k)
            except ModeError:
                assert est is None, (lam, n, k)
                continue
            assert est == single, (lam, n, k)
            a = k / n
            right = abs(a - 1 / a0) <= 0.5 / a0
            if right and abs(a - a0) <= 0.5 * a0:
                right = abs(a - 1 / a0) / (1 / a0) <= abs(a - a0) / a0
            mu, ac = (lam, 1 / a0) if right else (-lam, a0)
            if abs(a - ac) <= 1e-9 * ac:
                continue  # the reference divides by gamma = 0
            ref_value, ref_g2, ref_ok = _scalar_airy_core(mu, n, a)
            if not right:
                ref_value *= np.exp(1j * math.pi * (k - n))
            assert est.branch_ok == ref_ok, (lam, n, k)
            assert est.gamma_sq == ref_g2, (lam, n, k)
            assert abs(est.value - ref_value) <= 1e-13 * abs(ref_value), (lam, n, k)


def _whole_path_tracked_amplitudes(mu, ac, seed, a):
    """``A._tracked_amplitudes`` with every path point on the complex route:
    the saddles of a both-sided ``_pick_saddles_along``, then
    ``_real_gamma2_root`` of (3/2) f(z_plus) at each path point, and each
    ratio's pole test, f(z_plus) and z'(t_pm) one 0-d call at a time."""
    def saddles_along(asub):
        M = A._midpoint(mu, asub)
        circle = M * M <= 1
        s = np.sqrt(np.abs(1 - M * M))
        c1_first = A.phase_value(mu, asub, np.where(circle, 1j, M + s)).real >= 0
        zp = np.where(circle, M + 1j * s, np.where(c1_first, M + s, M - s))
        zm = np.where(circle, M - 1j * s, np.where(c1_first, M - s, M + s))
        return zp, zm

    saddles = [A._pick_saddles(mu, ai) for ai in a]
    for _, zm in saddles:
        A._check_pole(mu, zm)
    gams = [A._real_gamma2_root(1.5 * A.phase_value(mu, ai, zp))
            for ai, (zp, _) in zip(a, saddles)]
    path = ac + (np.array(a)[:, None] - ac) * np.arange(1, A._BRANCH_STEPS) / A._BRANCH_STEPS
    zps, zms = saddles_along(path)
    A._check_pole(mu, zms)
    gs = A._real_gamma2_root(1.5 * A.phase_value(mu, path, zps))
    wp, jump_p = A._continue_signs(seed, np.column_stack([
        np.sqrt(-2 * gs / A._phase_f2(mu, path, zps)),
        [np.sqrt(-2 * gam / A._phase_f2(mu, ai, complex(zp)))
         for ai, (zp, _), gam in zip(a, saddles, gams)]]))
    wm, jump_m = A._continue_signs(seed, np.column_stack([
        np.sqrt(2 * gs / A._phase_f2(mu, path, zms)),
        [np.sqrt(2 * gam / A._phase_f2(mu, ai, complex(zm)))
         for ai, (_, zm), gam in zip(a, saddles, gams)]]))
    branch_ok = ~np.any(np.maximum(jump_p, jump_m)[:, 1:] > A._BRANCH_JUMP_LIMIT, axis=1)
    out = []
    for (zp, zm), gam, wpi, wmi, ok in zip(saddles, gams, wp, wm, branch_ok.tolist()):
        G0p, G0m = A._psi(zp) * wpi, A._psi(zm) * wmi
        A1 = (G0p - G0m) / (2 * gam) if abs(gam) > 1e-7 else complex(2.0 * seed ** 2)
        out.append(((G0p + G0m) / 2, A1, float((gam * gam).real), ok))
    return out


def test_estimates_keep_the_whole_path_bits(monkeypatch):
    # on the unit circle the path's gamma comes from three real arctan2 and
    # a cbrt; path values only choose signs and branch_ok, so every estimate
    # keeps the bits of the complex route.  Dense over both windows, and at
    # lambda 0.1 past the overlap, where the far paths leave the circle and
    # tracking fails
    def bits(rows):
        return [None if r is None else (r[0].real.hex(), r[0].imag.hex(), r[1].hex(), r[2])
                for r in rows]

    def run():
        out = []
        for lam in (0.05, 0.1, 0.2, 0.5, 0.9, 0.97):
            a0 = A.alpha0(lam)
            for n in (16, 256, 2048):
                ks = sorted({float(round(k)) for k in np.linspace(0.5 * a0, 1.5 / a0, 300) * n}
                            | set((np.linspace(0.5 * a0, 1.5 / a0, 301) * n).tolist()))
                out += bits((e.value, e.gamma_sq, e.branch_ok) if e else None
                            for e in A.uniform_airy_estimates(lam, n, ks))
                if lam == 0.1:
                    r = np.geomspace(1e-6, 0.5, 40)
                    for mu, ac in ((lam, 1 / a0), (-lam, a0)):
                        out += bits(A._airy_cores(mu, n, (ac * np.concatenate([1 - r, 1 + r])).tolist()))
        return out

    fast = run()
    monkeypatch.setattr(A, "_tracked_amplitudes", _whole_path_tracked_amplitudes)
    reference = run()
    assert sum(b is not None for b in reference) > 8000
    assert any(b is not None and not b[3] for b in reference)  # branch_ok = False is reached
    assert fast == reference


def test_airy_evaluated_once_per_side(monkeypatch):
    # one call of Ai and of Ai' per coalescence side, however many ks
    from schaeffer import acceptance, cli

    calls = {"ai": 0, "ai_prime": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    monkeypatch.setattr(A, "airy_ai", counted("ai", A.airy_ai))
    monkeypatch.setattr(A, "airy_ai_prime", counted("ai_prime", A.airy_ai_prime))
    lam, n = 0.5, 1024
    rows = cli._asym_task((lam, n, cli._default_k_grid(lam, n), None, None))
    assert sum(r[7] is not None for r in rows) > 2  # Airy rows on both sides
    assert 0 < calls["ai"] <= 2 and 0 < calls["ai_prime"] <= 2
    calls.update(ai=0, ai_prime=0)
    assert acceptance.criterion_9().passed
    assert 0 < calls["ai"] <= 2 and 0 < calls["ai_prime"] <= 2


def test_pole_rejected_inside_an_array():
    with pytest.raises(DomainError):
        A.phase_value(0.5, np.array([1.0, 1.0]), np.array([1j, 0.5]))


def _array_real_gamma2_root(g3):
    """The gamma pick in its array form, np.angle, np.argmin over the three
    roots and np.choose: the reference for the 0-d path."""
    mag = abs(g3) ** (1 / 3)
    ang = np.angle(g3)
    roots = [mag * np.exp(1j * (ang + 2 * math.pi * i) / 3) for i in range(3)]
    pick = np.argmin(np.abs([(r * r).imag for r in roots]), axis=0)
    return np.choose(pick, roots)[()]


def _mask_is_pole(lam, z):
    """The pole test in its mask form: the reference for the 0-d path."""
    bad = (z == 0) | (abs(z - lam) < 1e-300)
    if lam != 0:
        bad = bad | (abs(z - 1 / lam) < 1e-300)
    return bool(bad)


def _complex_draws() -> list:
    """2000 finite complex numbers: 1990 in all four quadrants with moduli
    from 1e-6 to 1e6, and five points of the negative real axis with each
    sign of a zero imaginary part."""
    rng = np.random.default_rng(34)
    z = (10.0 ** rng.uniform(-6, 6, 1990) * np.exp(1j * rng.uniform(-math.pi, math.pi, 1990)))
    out = z.tolist()
    for x in (1e-3, 0.5, 1.0, 3.0, 2e5):
        out += [complex(-x, 0.0), complex(-x, -0.0)]
    return out


def _bits(z) -> tuple:
    return type(z), z.real.hex(), z.imag.hex()


def test_zero_d_gamma_root_keeps_the_array_formula_bits():
    draws = _complex_draws()
    quadrants = {(z.real > 0, z.imag > 0) for z in draws}
    assert len(draws) == 2000 and len(quadrants) == 4
    for z in draws:
        for g3 in (z, np.complex128(z)):
            assert _bits(A._real_gamma2_root(g3)) == _bits(_array_real_gamma2_root(g3)), g3
    arr = np.array(draws).reshape(40, 50)
    assert np.array_equal(A._real_gamma2_root(arr), _array_real_gamma2_root(arr))


def test_zero_d_pole_check_matches_the_mask():
    for lam in (0.5, -0.5, 0.3):
        near = [0j, complex(lam), complex(1 / lam)]
        near += [complex(np.nextafter(v.real, math.inf)) for v in near]
        for z in _complex_draws()[::10] + near:
            for zz in (z, np.complex128(z), np.array(z)):
                if _mask_is_pole(lam, zz):
                    with pytest.raises(DomainError):
                        A._check_pole(lam, zz)
                else:
                    A._check_pole(lam, zz)


@pytest.mark.parametrize("lam", [0.5, -0.5, 0.3])
def test_scalar_pole_raises(lam):
    for z in (0, 0.0, lam, 1 / lam):
        for zz in (z, complex(z), np.float64(z), np.complex128(z), np.array(complex(z))):
            with pytest.raises(DomainError):
                A._check_pole(lam, zz)
            with pytest.raises(DomainError):
                A.phase_value(lam, 1.0, zz)


class TestStationaryPhase:
    @pytest.mark.parametrize("n", [1024, 2048])
    def test_center_accuracy(self, n):
        est = A.stationary_phase_estimate(0.5, n, n)
        truth = A.weighted_truth(0.5, n, n)
        assert abs(est - truth) / abs(truth) <= 0.10

    def test_envelope_bound(self):
        est = A.stationary_phase_estimate(0.5, 1024, 1024)
        env = A.stationary_phase_envelope(0.5, 1024, 1024)
        assert abs(est) <= env
        # independent envelope arithmetic
        a, lam, n = 1.0, 0.5, 1024
        a0 = 1 / 3
        expect = (math.sqrt(2 / (math.pi * n)) * (1 - lam ** 2)
                  * (a - a0) ** 0.25 * (1 / a0 - a) ** 0.25 / (lam * a ** 1.5))
        assert env == pytest.approx(expect, rel=1e-13)

    def test_window_worst_case(self):
        n = 1024
        worst = 0.0
        for k in range(820, 1229, 3):
            est = A.stationary_phase_estimate(0.5, n, k)
            truth = A.weighted_truth(0.5, n, k)
            worst = max(worst, abs(est - truth) / max(abs(truth), 1e-14))
        assert worst <= 0.10

    def test_mode_error_outside_mid_range(self):
        with pytest.raises(ModeError):
            A.stationary_phase_estimate(0.5, 1024, 100)


class TestDecayFit:
    def test_validation(self):
        with pytest.raises(DomainError):
            A.decay_exponent_fit(0.5, A.Region.V, [256, 512, 1024])
        with pytest.raises(DomainError):
            A.decay_exponent_fit(0.5, A.Region.V, [256, 256, 512, 1024])

    def test_region_v_power_fit_small(self):
        fit = A.decay_exponent_fit(0.5, A.Region.V, [128, 256, 512, 1024])
        assert fit.mode == "power"
        assert -0.8 <= fit.slope <= -0.55

    def test_region_i_exponential_fit_small(self):
        fit = A.decay_exponent_fit(0.5, A.Region.I, [64, 128, 256, 512])
        assert fit.mode == "exponential"
        assert fit.slope < 0


def test_truth_cache_roundtrip():
    A.clear_truth_cache()
    v1 = A.weighted_truth(0.5, 64, 40)
    v2 = A.weighted_truth(0.5, 64, 40)
    assert v1 == v2


def test_truth_array_matches_scalar_bitwise():
    ks = np.array([2, 17, 40, 97, 150])
    A.clear_truth_cache()
    arr = A.weighted_truth(0.5, 64, ks)
    assert arr.shape == ks.shape
    for k, v in zip(ks, arr):
        A.clear_truth_cache()
        assert A.weighted_truth(0.5, 64, int(k)) == v
    # past the support estimate the array read extends the cache once
    A.clear_truth_cache()
    wide = A.weighted_truth(0.5, 64, np.arange(0, 400))
    assert [A.weighted_truth(0.5, 64, k) for k in range(400)] == wide.tolist()


class TestRegionEnvelopeShapes:
    """Windowed coefficient magnitudes against the per-region envelope
    shapes at n = 2048, with a median-fitted constant per region.

    The exponential rows use the rate (2/3) n (|a - a_c| ell)^(3/2) with the
    edge-specific scale ell: (1-lambda)/(lambda(1+lambda))^(1/3) at the right
    coalescence and (1+lambda)/(lambda(1-lambda))^(1/3) at the left one (the
    gamma^2 slope of the mirrored problem).  The FFT truth pins both scales:
    the unscaled exponent misstates the decay by e^20 across region VI at
    this size, and the right-edge scale applied on the left by e^21.
    """

    def _shape(self, region, lam, n, k):
        a = k / n
        a0 = A.alpha0(lam)
        ell_right = (1 - lam) / (lam * (1 + lam)) ** (1 / 3)
        ell_left = (1 + lam) / (lam * (1 - lam)) ** (1 / 3)
        if region is A.Region.II:
            d = a0 - a
            return d ** 0.25 / math.sqrt(n) * math.exp(-(2 / 3) * n * (d * ell_left) ** 1.5)
        if region in (A.Region.III, A.Region.V):
            return n ** (-2 / 3)
        if region is A.Region.IV:
            # the oscillatory mid-range amplitude carries 1/a^(3/2); without
            # it the fitted-constant check drifts by an order of magnitude
            # across the row
            return (a - a0) ** 0.25 * (1 / a0 - a) ** 0.25 / (math.sqrt(n) * a ** 1.5)
        if region is A.Region.VI:
            d = a - 1 / a0
            return d ** 0.25 / math.sqrt(n) * math.exp(-(2 / 3) * n * (d * ell_right) ** 1.5)
        raise AssertionError(region)

    def test_rows_two_through_six(self):
        lam, n = 0.5, 2048
        a0 = 1 / 3
        w = int(round(n ** (1 / 3)))
        samples = {
            A.Region.II: [int(a0 * n) - 5 * w, int(a0 * n) - 3 * w, int(a0 * n) - 2 * w],
            A.Region.III: [int(a0 * n) - w // 2, int(a0 * n), int(a0 * n) + w // 2],
            A.Region.IV: [int(0.5 * n), int(0.8 * n), n, int(1.5 * n), int(2.2 * n)],
            A.Region.V: [3 * n - w // 2, 3 * n, 3 * n + w // 2],
            A.Region.VI: [3 * n + 2 * w, 3 * n + 3 * w, 3 * n + 5 * w],
        }
        for region, ks in samples.items():
            ratios = []
            for k in ks:
                assert A.classify_region(lam, n, k) is region, (region, k)
                mag = max(abs(A.weighted_truth(lam, n, j))
                          for j in range(k - 3, k + 4))
                ratios.append(mag / self._shape(region, lam, n, k))
            fitted = sorted(ratios)[len(ratios) // 2]
            assert max(ratios) <= 2 * fitted, (region, ratios)

    def test_outer_rows_are_exponentially_negligible(self):
        lam, n = 0.5, 2048
        assert _contour(lam, n, int(0.1 * n))[0] < -50
        assert _contour(lam, n, int(12.5 * n))[0] < -50


class TestPhaseFunctionType:
    def test_binds_parameters(self):
        # at a saddle of f_a, f' vanishes and phase_value is f_a with a and
        # lambda bound
        z, _ = A._pick_saddles(0.5, 1.0)
        assert abs(A._phase_f1(0.5, 1.0, z)) < 1e-12
        f = 1.0 * cmath.log(z) + cmath.log(1 - 0.5 * z) - cmath.log(z - 0.5)
        assert A.phase_value(0.5, 1.0, z) == pytest.approx(f, abs=1e-15)

    def test_circle_phase_is_imaginary_part(self):
        # f_a = a log z - log b_lambda, so on the unit circle Im f_a is
        # a phi minus the Blaschke phase, up to a multiple of 2 pi
        from schaeffer.blaschke import circle_phase

        size, j = 16, 3
        phi = 2 * np.pi * j / size
        direct = A.phase_value(0.5, 1.2, np.exp(1j * phi)).imag
        expect = 1.2 * phi - circle_phase([(0.5, 1)], size)[j]
        assert math.remainder(direct - expect, 2 * np.pi) == pytest.approx(0, abs=1e-13)


class TestDeepTailCrossValidation:
    """The uniform Airy value and the scaled-contour coefficient extraction
    agree deep in the exponential regions, far below double underflow of the
    coefficients themselves (and far below the unit-circle FFT noise floor,
    which makes pointwise rel_error meaningless out there)."""

    @pytest.mark.parametrize("k,expect_below", [(4300, -300), (4605, -400)])
    def test_right_tail(self, k, expect_below):
        est = A.uniform_airy_estimate(0.5, 1024, k)
        lg_truth = _contour(0.5, 1024, k)[0]
        assert lg_truth < expect_below
        assert abs(math.log(abs(est.value)) - lg_truth) < 0.5

    @pytest.mark.parametrize("k", [200, 280])
    def test_left_tail(self, k):
        est = A.uniform_airy_estimate(0.5, 1024, k)
        lg_truth = _contour(0.5, 1024, k)[0]
        assert lg_truth < -40
        assert abs(math.log(abs(est.value)) - lg_truth) < 0.5


def test_overlapping_neighborhoods_small_lambda():
    # at lambda = 0.2 the two coalescence neighborhoods overlap; the
    # estimate must remain accurate wherever it dispatches
    assert _airy_rel_error(0.2, 1024, int(0.8 * 1024)) < 0.05


def test_overlap_anchors_at_the_nearer_coalescence():
    # at lambda = 0.05 the right window reaches below alpha0 n = 231.6, and a
    # path tracked from the right coalescence would cross the left one
    for k in range(200, 233, 4):
        assert A.uniform_airy_estimate(0.05, 256, k).branch_ok
        assert _airy_rel_error(0.05, 256, k) < 0.2
