import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schaeffer import acceptance, resolvent
from schaeffer.errors import DomainError, ModeError
from schaeffer.resolvent import (
    BoundQuery,
    BoundRule,
    _scan_grid,
    applicable_closed_forms,
    mainlemma_log_bound,
    optimize_rho,
    pseudo_hyperbolic,
    schaeffer_baseline,
    thm_case1,
    thm_case2,
    thm_case2_log,
    thm_case3,
    thm_case4,
)
from schaeffer.spectra import SpectrumSpec
from schaeffer.wiener_opt import resolvent_interpolation_norm

E = math.e


class TestPseudoHyperbolic:
    def test_origin(self):
        assert pseudo_hyperbolic(0, 0.5) == pytest.approx(0.5)

    def test_identity(self):
        assert pseudo_hyperbolic(0.5, 0.5) == 0.0

    def test_antipodal(self):
        assert pseudo_hyperbolic(0.5, -0.5) == pytest.approx(0.8)

    def test_degenerate(self):
        with pytest.raises(DomainError):
            pseudo_hyperbolic(1.0, 1.0)

    @given(st.complex_numbers(max_magnitude=0.95),
           st.complex_numbers(max_magnitude=0.95))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_range(self, z, w):
        d1 = pseudo_hyperbolic(z, w)
        d2 = pseudo_hyperbolic(w, z)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert 0 <= d1 < 1

    def test_real_pairs_correctly_rounded(self):
        # for real operands the numerator and denominator are doubles, and
        # the one division between them must round correctly, which a
        # multiply by a rounded reciprocal does not
        rng = np.random.default_rng(19)
        for z, w in zip(*rng.uniform(-1, 1, (2, 1000)).tolist()):
            exact = Fraction(abs(z - w)) / Fraction(abs(1 - z * w))
            assert pseudo_hyperbolic(z, w) == float(exact), (z, w)

    def test_complex_pairs_near_30_digit_value(self):
        # the componentwise products, sums and moduli round before the
        # division, so a few results in 1e4 land 3 ulp off; 100,000 pairs
        # drawn like these showed none further off
        rng = np.random.default_rng(19)
        radius = 0.9 * np.sqrt(rng.uniform(0, 1, (2, 1000)))
        angle = rng.uniform(0, 2 * math.pi, (2, 1000))
        with mp.workdps(30):
            for z, w in zip(*(radius * np.exp(1j * angle)).tolist()):
                zm, wm = mp.mpc(z), mp.mpc(w)
                ref = float(abs((zm - wm) / (1 - mp.conj(zm) * wm)))
                assert abs(pseudo_hyperbolic(z, w) - ref) <= 3 * math.ulp(ref), (z, w)


class TestMainLemma:
    def test_one_term_value(self):
        # (1/(1-0.81)) * (1-0.81*0.25)/0.25 evaluated with independent
        # high-precision arithmetic
        import mpmath as mp
        with mp.workdps(40):
            expect = float(mp.sqrt((1 / (1 - mp.mpf("0.81")))
                                   * (1 - mp.mpf("0.81") * mp.mpf("0.25")) / mp.mpf("0.25")))
        q = BoundQuery(SpectrumSpec.single(0.5, 1), 0.0, 1.0)
        assert math.exp(mainlemma_log_bound(q, 0.9)) == pytest.approx(expect, rel=1e-13)

    def test_linear_in_C(self):
        q1 = BoundQuery(SpectrumSpec.single(0.5, 1), 0.0, 1.0)
        q2 = BoundQuery(SpectrumSpec.single(0.5, 1), 0.0, 2.0)
        assert math.exp(mainlemma_log_bound(q2, 0.9)) == 2 * math.exp(mainlemma_log_bound(q1, 0.9))

    def test_rho_limit_unimodular_single(self):
        q = BoundQuery(SpectrumSpec.single(1.0, 1), 0.5, 1.0)
        assert math.exp(mainlemma_log_bound(q, 1 - 1e-7)) == pytest.approx(1 / 0.5, rel=1e-4)

    def test_monotone_convergence_to_case1(self):
        q = BoundQuery(SpectrumSpec.single(1.0, 5), 0.3, 1.0)
        target = thm_case1(q)
        diffs = [abs(math.exp(mainlemma_log_bound(q, 1 - 10.0 ** -k)) - target)
                 for k in range(2, 7)]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_vanishing_factor_keeps_the_first_term(self, m):
        # s = -inf, a vanishing |fac|: only the run's first term survives
        assert resolvent._run_log_sum(0.75, -math.inf, m) == 0.75
        assert resolvent._run_log_sum(-math.inf, 0.5, m) == -math.inf

    def test_rho_domain(self):
        q = BoundQuery(SpectrumSpec.single(0.5, 1), 0.0, 1.0)
        with pytest.raises(DomainError):
            mainlemma_log_bound(q, 0.0)
        with pytest.raises(DomainError):
            mainlemma_log_bound(q, 1.0)

    def test_large_multiplicity_log_path(self):
        # the bound itself overflows a double near |m| ~ 700 at r = 0.1; the
        # log-magnitude accumulation stays finite and the optimizer runs
        q = BoundQuery(SpectrumSpec.single(0.1, 800), 0.0, 1.0)
        lg = mainlemma_log_bound(q, 0.99)
        assert math.isfinite(lg) and lg > 0
        assert lg > 709.78  # the bound is past the largest double
        rep = optimize_rho(q)
        assert math.isfinite(mainlemma_log_bound(q, rep.rho_star))


def _reference_log_bound(points, zeta, rho, digits=50):
    """The main-lemma log-bound summed term by term over the eigenvalues, as
    the lemma states it, in mpmath with the double inputs taken exactly."""
    import mpmath as mp
    with mp.workdps(digits):
        z, r2 = mp.mpc(zeta), mp.mpf(rho) ** 2
        total, weight = mp.mpf(0), mp.mpf(1)  # weight_k = rho^(2-2k) prod_{j<k} |fac_j|^2
        for lam, mult in points:
            lam = mp.mpc(lam)
            term = (1 - r2 * abs(lam) ** 2) / abs(z - lam) ** 2
            den = 1 - mp.conj(lam) * z
            fac = (1 + (1 - r2) * mp.conj(lam) * z / den) * den / (z - lam)
            step = abs(fac) ** 2 / r2
            for _ in range(mult):
                total += weight * term
                weight *= step
        return float(mp.log(total / (1 - r2)) / 2)


_REFERENCE_SPECTRA = [[(lam, n)] for lam in (0.35, 0.65) for n in (1, 256, 1024)] + [
    # one point in two separate runs, a complex and a unimodular eigenvalue
    [(0.35, 3), (0.3 + 0.4j, 2), (-0.6, 5), (0.35, 4), (1j, 1)],
]


@pytest.mark.parametrize("points", _REFERENCE_SPECTRA,
                         ids=lambda p: "+".join(f"{l}^{m}" for l, m in p))
def test_log_bound_matches_reference(points):
    spec = SpectrumSpec(points)
    for zeta in (0.0, -0.5, 0.9, 1.0, 1.5):
        q = BoundQuery(spec, zeta, 1.0)
        for rho in (1e-6, 0.5, 0.99, 1 - 1e-6):
            ref = _reference_log_bound(points, zeta, rho)
            assert abs(mainlemma_log_bound(q, rho) - ref) <= 1e-11, (zeta, rho)


class TestOptimizeRho:
    def test_below_given_rho_point(self):
        q = BoundQuery(SpectrumSpec.single(0.5, 1), 0.0, 1.0)
        rep = optimize_rho(q)
        assert rep.value <= math.exp(mainlemma_log_bound(q, 0.9)) + 1e-12
        assert rep.rule is BoundRule.MAIN_LEMMA_OPT
        assert 0 < rep.rho_star < 1

    def test_below_case2_choice(self):
        q = BoundQuery(SpectrumSpec.single(0.5, 4), 0.0, 1.0)
        assert optimize_rho(q).value <= thm_case2(q) + 1e-9

    def test_grid_certificate(self):
        q = BoundQuery(SpectrumSpec.single(0.7, 8), 0.3, 1.0)
        rep = optimize_rho(q)
        for rho in np.linspace(1e-6, 1 - 1e-6, 32):
            assert rep.value <= math.exp(mainlemma_log_bound(q, float(rho))) + 1e-9

    @pytest.mark.parametrize("n", [1, 4, 64, 1024, 3072])
    def test_scan_grid_is_linspace(self, n):
        edge = min(1e-6, 0.01 / n)
        grid = _scan_grid(edge)
        assert all(type(r) is float for r in grid)
        assert grid == np.linspace(1e-6, 1 - edge, 32).tolist()

    def test_scan_unimodal(self):
        # at most one interior minimum on the 32-point grid optimize_rho scans
        for n in (1, 4, 16):
            q = BoundQuery(SpectrumSpec.single(0.5, n), 0.0, 1.0)
            rs = _scan_grid(min(1e-6, 0.01 / n))
            logv = [mainlemma_log_bound(q, r) for r in rs]
            minima = [i for i in range(1, 31) if logv[i] < min(logv[i - 1], logv[i + 1])]
            assert len(minima) <= 1

    def test_scalar_truth_dominated(self):
        # for a 1x1 matrix the true resolvent is 1/|zeta - lambda|; every
        # bound must sit above it
        for zeta in (0.0, 0.3, 0.9):
            q = BoundQuery(SpectrumSpec.single(0.5, 1), zeta, 1.0)
            truth = 1 / abs(zeta - 0.5)
            assert optimize_rho(q).value >= truth - 1e-9
            assert thm_case3(q) >= truth


def _case4_proof_form(q):
    """Case 4 in the form its proof gives, 2 C (|m|/min_i |zeta - l_i|)
    sqrt(2 + 1/(2|m|)) sqrt((e^(1+s/2) - 1)/(s + 2)) with
    s = min_i |1 - conj(l_i) zeta|.  The program prints only the headline
    form ``thm_case4``; neither form dominates the other."""
    mm = q.spec.degree
    mind = min(abs(q.zeta - l) for l in q.lams)
    s = min(abs(1 - np.conj(l) * q.zeta) for l in q.lams)
    return (2 * q.C * mm / mind * math.sqrt(2 + 1 / (2 * mm))
            * math.sqrt((math.exp(1 + s / 2) - 1) / (s + 2)))


class TestClosedForms:
    def test_case1_values(self):
        q = BoundQuery(SpectrumSpec.single(1.0, 4), 0.0, 1.0)
        assert thm_case1(q) == pytest.approx(2.0)
        q = BoundQuery(SpectrumSpec.single(1.0, 1), 0.5, 1.0)
        assert thm_case1(q) == pytest.approx(2.0)
        q = BoundQuery(SpectrumSpec.single(1.0, 1), 0.5, 3.0)
        assert thm_case1(q) == pytest.approx(6.0)

    def test_case1_hypothesis(self):
        with pytest.raises(ModeError):
            thm_case1(BoundQuery(SpectrumSpec.single(0.5, 2), 0.0, 1.0))

    def test_case2_value_and_refinement(self):
        import mpmath as mp
        q = BoundQuery(SpectrumSpec.single(0.5, 4), 0.0, 1.0)
        with mp.workdps(40):
            expect = float(mp.sqrt(4 * (mp.e - mp.mpf("0.5") ** 8)) / mp.mpf("0.5") ** 4)
        assert thm_case2(q) == pytest.approx(expect, rel=1e-13)
        assert thm_case2(q) < schaeffer_baseline(q) == pytest.approx(math.sqrt(4 * E) / 0.5 ** 4)

    def test_case2_continuity_toward_unit_radius(self):
        vals = [thm_case2(BoundQuery(SpectrumSpec.single(r, 1), 0.0, 1.0))
                for r in (0.99, 0.999, 0.9999)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] == pytest.approx(math.sqrt(E - 0.9999 ** 2), rel=1e-3)

    def test_case2_large_degree_log_path(self):
        q = BoundQuery(SpectrumSpec.single(0.1, 700), 0.0, 1.0)
        assert thm_case2(q) == math.inf
        lg = thm_case2_log(q)
        assert math.isfinite(lg)
        # log value ~ |m| log(1/r) + log sqrt(e |m|)
        assert lg == pytest.approx(700 * math.log(10) + 0.5 * math.log(E * 700), rel=1e-6)

    def test_case3_value(self):
        import mpmath as mp
        q = BoundQuery(SpectrumSpec.single(0.5, 1), 0.0, 1.0)
        with mp.workdps(40):
            expect = float(mp.e * mp.sqrt(2) * 2 * mp.sqrt(1 + mp.mpf(1) / mp.mpf(1.5)))
        assert thm_case3(q) == pytest.approx(expect, rel=1e-12)

    def test_case3_above_optimized(self):
        q = BoundQuery(SpectrumSpec.single(0.5, 1), 0.0, 1.0)
        assert thm_case3(q) >= optimize_rho(q).value

    def test_case3_linear_in_C(self):
        a = thm_case3(BoundQuery(SpectrumSpec.single(0.5, 2), 0.1, 1.0))
        b = thm_case3(BoundQuery(SpectrumSpec.single(0.5, 2), 0.1, 2.5))
        assert b == pytest.approx(2.5 * a, rel=1e-12)

    def test_case4_headline(self):
        q = BoundQuery(SpectrumSpec.single(0.5, 1), 1.0, 1.0)
        assert thm_case4(q) == pytest.approx(1.5 * math.sqrt(E ** 2 - 1) * 2, rel=1e-12)

    def test_case4_headline_linear_in_degree(self):
        a = thm_case4(BoundQuery(SpectrumSpec.single(0.5, 2), 1.0, 1.0))
        b = thm_case4(BoundQuery(SpectrumSpec.single(0.5, 4), 1.0, 1.0))
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_case4_proof_form_antipodal(self):
        # s = |1 - (-1)| = 2 gives the factor sqrt((e^2 - 1)/4)
        q = BoundQuery(SpectrumSpec.single(-1.0 + 0j, 1), 1.0, 1.0)
        got = _case4_proof_form(q)
        expect = 2 * (1 / 2) * math.sqrt(2 + 0.5) * math.sqrt((E ** 2 - 1) / 4)
        assert got == pytest.approx(expect, rel=1e-12)
        assert optimize_rho(q).value <= got

    def test_case4_mode(self):
        with pytest.raises(ModeError):
            thm_case4(BoundQuery(SpectrumSpec.single(0.3, 1), 0.5, 1.0))


def test_dominance_spot_grid():
    for lam in (0.3, 0.7):
        for n in (2, 8):
            for zeta in (0.0, 0.9, 1.0):
                q = BoundQuery(SpectrumSpec.single(lam, n), zeta, 1.0)
                opt = optimize_rho(q).value
                for rule, form in applicable_closed_forms(q).items():
                    assert opt <= form + 1e-9, (lam, n, zeta, rule)


_SPECTRA = {"unimodular": [(1.0, 2), (-1j, 1)], "interior": [(0.5, 2), (-0.3 + 0.4j, 1)],
            "mixed": [(1.0, 1), (0.5, 1)]}
_ZETAS = {"origin": 0.0, "inside": 0.3, "inside-complex": -0.2 + 0.4j, "on": 1j,
          "on-real": -1.0, "outside": 1.7, "outside-complex": -1.5j}


@pytest.mark.parametrize("spectrum", _SPECTRA)
@pytest.mark.parametrize("zeta", _ZETAS)
def test_each_form_raises_mode_error_exactly_where_it_is_not_offered(spectrum, zeta):
    # each closed form states its hypotheses once: applicable_closed_forms
    # offers exactly the forms that do not raise ModeError, at their values
    q = BoundQuery(SpectrumSpec(_SPECTRA[spectrum]), _ZETAS[zeta], 1.0)
    offered = applicable_closed_forms(q)
    forms = {BoundRule.CASE1: thm_case1, BoundRule.CASE2: thm_case2,
             BoundRule.SCHAEFFER_BASELINE: schaeffer_baseline, BoundRule.CASE3: thm_case3,
             BoundRule.CASE4: thm_case4}
    for rule, form in forms.items():
        if rule in offered:
            assert repr(form(q)) == repr(offered[rule]), rule
        else:
            with pytest.raises(ModeError):
                form(q)
    expected = {BoundRule.CASE1: spectrum == "unimodular", BoundRule.CASE2: zeta == "origin",
                BoundRule.SCHAEFFER_BASELINE: zeta == "origin",
                BoundRule.CASE3: spectrum == "interior" and abs(_ZETAS[zeta]) < 1,
                BoundRule.CASE4: abs(_ZETAS[zeta]) == 1}
    assert set(offered) == {rule for rule, holds in expected.items() if holds}


@pytest.mark.parametrize("mult", [10 ** 6, 10 ** 7])
def test_optimized_below_case4_at_large_multiplicity(mult):
    # the minimizer sits near rho = 1 - 0.27/|m|; a scan stopping at a fixed
    # 1 - 1e-6 reports a value above both case-4 forms from |m| ~ 1e6 on
    q = BoundQuery(SpectrumSpec.single(0.5, mult), 1.0, 1.0)
    rep = optimize_rho(q)
    assert rep.value <= min(thm_case4(q), _case4_proof_form(q))
    assert 1 - rep.rho_star < 1e-6


def test_interpolation_norm_sits_under_case3():
    for lam in (0.3, 0.5):
        for n in (1, 2, 4, 8):
            for zeta in (0.0, 0.9):
                if abs(zeta - lam) < 1e-9:
                    continue
                q = BoundQuery(SpectrumSpec.single(lam, n), zeta, 1.0)
                interp = resolvent_interpolation_norm(SpectrumSpec.single(lam, n), zeta)
                assert interp.converged
                assert interp.value <= thm_case3(q) + 1e-9


def test_query_validation():
    with pytest.raises(DomainError):
        BoundQuery(SpectrumSpec.single(0.5, 1), 0.5, 1.0)
    with pytest.raises(DomainError):
        BoundQuery(SpectrumSpec.single(0.5, 1), 0.0, 0.5)
    # nan fails every comparison, so `C < 1` alone would accept it
    for zeta, C in [(math.nan, 1.0), (math.inf, 1.0), (complex(0, math.nan), 1.0),
                    (0.0, math.nan), (0.0, math.inf)]:
        with pytest.raises(DomainError):
            BoundQuery(SpectrumSpec.single(0.5, 1), zeta, C)


def test_nan_eigenvalue_rejected():
    for lam in (math.nan, complex(0.5, math.nan)):
        with pytest.raises(DomainError):
            SpectrumSpec.single(lam)


def test_report_json_shape():
    rep = optimize_rho(BoundQuery(SpectrumSpec.single(0.5, 2), 0.0, 1.0))
    assert rep.rule.value == "mainlemma-optimized"
    assert 0 < rep.rho_star < 1


# Recorded bits of the rho scan: (points, zeta, optimize_rho's value and
# rho_star as float.hex, its count of mainlemma_log_bound calls, and
# mainlemma_log_bound at each _PINNED_RHOS).  The rows are criterion 6's
# dominance grid, the unimodular spectra of its case-1 limit (which it
# evaluates at fixed rhos only, so their scan fields are None) and one
# spectrum of three runs.  How the bound is evaluated may change; these bits
# may not.
_PINNED_RHOS = (1e-6, 0.5, 0.99, 1 - 1e-6)
_PINNED_SCAN = [
    (((0.3, 1),), 0.0, '0x1.aaaaaaaaab803p+1', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.34378fcbdaf22p+0', '0x1.5620a07c8aedap+0', '0x1.8ee384eebdc8ep+1', '0x1.edf3b42f19da8p+2')),
    (((0.3, 1),), 0.9, '0x1.aaaaaaaaab800p+0', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.058aefa812452p-1', '0x1.495d1109723c2p-1', '0x1.362a78f2d4e11p+1', '0x1.c1972e312566ap+2')),
    (((0.3, 1),), 1.0, '0x1.6db6db6db7927p+0', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.6d3c324e15f55p-2', '0x1.f4e07510d5e35p-2', '0x1.226f4352930e7p+1', '0x1.b7b99361047d5p+2')),
    (((0.3, 2),), 0.0, '0x1.6331d3f434c46p+4', '0x1.6a681308f715ap-1', 68,
     ('0x1.039346c5fb541p+4', '0x1.9f51b1f187d32p+1', '0x1.17d8cf9a31800p+2', '0x1.1ee1c9dac3168p+3')),
    (((0.3, 2),), 0.9, '0x1.4e4f816225dcfp+2', '0x1.7339ecb7549eap-1', 68,
     ('0x1.daca078e022f8p+3', '0x1.d39d4a296d30ap+0', '0x1.71a38ecb2cff0p+1', '0x1.dea891af928d1p+2')),
    (((0.3, 2),), 1.0, '0x1.f5fda744cd5c7p+1', '0x1.6f16632018612p-1', 68,
     ('0x1.d0ec6cbde1477p+3', '0x1.872480366fa6ep+0', '0x1.4ffe68405f0d9p+1', '0x1.cde7da450aaedp+2')),
    (((0.3, 4),), 0.0, '0x1.7c24f60ddf839p+8', '0x1.bb6812ef9a106p-1', 68,
     ('0x1.7219712c3b4e2p+5', '0x1.c281d244ba209p+2', '0x1.b37d6a4075dbap+2', '0x1.6c10bd3746398p+3')),
    (((0.3, 4),), 0.9, '0x1.deb6163e02239p+3', '0x1.c606ce76cd8bfp-1', 68,
     ('0x1.5beb2e2d410e4p+5', '0x1.06685d4fc3f23p+2', '0x1.befe52d336054p+1', '0x1.01e551a5d6ecap+3')),
    (((0.3, 4),), 1.0, '0x1.11f0b991aee74p+3', '0x1.c0fa59c4ad28bp-1', 68,
     ('0x1.56fc60c530996p+5', '0x1.bdaa8b5d79630p+1', '0x1.7ec5cdae3f5a3p+1', '0x1.e416250e1d514p+2')),
    (((0.3, 8),), 0.0, '0x1.0cb966387155dp+16', '0x1.deeea0e96e1a2p-1', 68,
     ('0x1.a95c865f5b4b3p+6', '0x1.d415bd48ff3d5p+3', '0x1.752410d4fe403p+3', '0x1.031669260237ep+4')),
    (((0.3, 8),), 0.9, '0x1.c0606bed19c30p+5', '0x1.e731f5fa1fc9fp-1', 68,
     ('0x1.932e436061098p+6', '0x1.145e678cf2819p+3', '0x1.1b7b6e44578cbp+2', '0x1.1e0694650da35p+3')),
    (((0.3, 8),), 1.0, '0x1.1cd019ff85adcp+4', '0x1.e297ae4d07f31p-1', 68,
     ('0x1.8e3f75f850944p+6', '0x1.d7a4918d3d302p+2', '0x1.b00e91df72463p+1', '0x1.fa4477a14a419p+2')),
    (((0.3, 16),), 0.0, '0x1.677b0788b0a8cp+30', '0x1.efbdeaf4ad148p-1', 68,
     ('0x1.c4fe10f8eb49dp+7', '0x1.dcdfb28655bffp+4', '0x1.55f724a4d1464p+4', '0x1.9d32396fff6f5p+4')),
    (((0.3, 16),), 0.9, '0x1.a37d98dec9450p+8', '0x1.f516fb04a2fa9p-1', 68,
     ('0x1.aecfcdf9f1073p+7', '0x1.1b58f45a376c0p+4', '0x1.89d3d8dc37558p+2', '0x1.50e932c12ca84p+3')),
    (((0.3, 16),), 1.0, '0x1.2222e841f35d0p+5', '0x1.f1cb01bf06a21p-1', 68,
     ('0x1.a9e10091e091cp+7', '0x1.e49e23e26338bp+3', '0x1.e69d23645f64ap+1', '0x1.08396ce458befp+3')),
    (((0.5, 1),), 0.0, '0x1.0000000000699p+1', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.62e42fefa4721p-1', '0x1.9c041f7ed8d34p-1', '0x1.416cb22058ccap+1', '0x1.c7123e01b5356p+2')),
    (((0.5, 1),), 0.3, '0x1.400000000083fp+2', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.9c041f7ed93ccp+0', '0x1.b8941746736d5p+0', '0x1.b6b5b5e3dc4e8p+1', '0x1.00db5ff1bb7b2p+3')),
    (((0.5, 1),), 0.9, '0x1.400000000083fp+1', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.d5240f0e0eda9p-1', '0x1.0721ff4ea19dep+0', '0x1.5dfca9e7f366cp+1', '0x1.d55a39e582826p+2')),
    (((0.5, 1),), 1.0, '0x1.0000000000699p+1', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.62e42fefa4721p-1', '0x1.9c041f7ed8d34p-1', '0x1.416cb22058ccap+1', '0x1.c7123e01b5356p+2')),
    (((0.5, 2),), 0.0, '0x1.fbeb50fc41affp+2', '0x1.6cf289637fccdp-1', 68,
     ('0x1.e6752f96f47f8p+3', '0x1.1c5465ef8a309p+1', '0x1.a975b7b09e857p+1', '0x1.fa92c54c8eca8p+2')),
    (((0.5, 2),), 0.3, '0x1.5abc7aa233151p+5', '0x1.8245f6c6ca390p-1', 68,
     ('0x1.108cd8bc5b1bcp+4', '0x1.fed0a0fb0cba3p+1', '0x1.3a813350af630p+2', '0x1.300542483e8c0p+3')),
    (((0.5, 2),), 0.9, '0x1.29f985b389b93p+3', '0x1.956ab6385ad1ep-1', 68,
     ('0x1.f4bd2b7ac1bb2p+3', '0x1.4577e7e59c6e5p+1', '0x1.a4226fccd9cd6p+1', '0x1.f751d6cfe62bdp+2')),
    (((0.5, 2),), 1.0, '0x1.8124b4540854bp+2', '0x1.924a471722321p-1', 68,
     ('0x1.e6752f96f46dep+3', '0x1.0c613f24df327p+1', '0x1.6fb7f9bec7203p+1', '0x1.dd40874b4c91fp+2')),
    (((0.5, 4),), 0.0, '0x1.89e4d9185846bp+5', '0x1.bb7f19aeeffabp-1', 68,
     ('0x1.61c0c231ba39dp+5', '0x1.3fbc3afa3998dp+2', '0x1.309adc9c681fap+2', '0x1.2a9e3e1cd12b6p+3')),
    (((0.5, 4),), 0.3, '0x1.2ff74f9f853bap+10', '0x1.ca1bb81156dd8p-1', 68,
     ('0x1.7f1303229b157p+5', '0x1.109ff8e5b0b8ep+3', '0x1.f589cae56cc40p+2', '0x1.8cac2316deeccp+3')),
    (((0.5, 4),), 0.9, '0x1.09f32864fa903p+5', '0x1.d97d0f4b8554bp-1', 68,
     ('0x1.68e4c023a0d41p+5', '0x1.618c5c10344c8p+2', '0x1.055f78ab33e6ep+2', '0x1.13fce0a00b38cp+3')),
    (((0.5, 4),), 1.0, '0x1.b12e378e03d08p+3', '0x1.d5942643c42f4p-1', 68,
     ('0x1.61c0c231ba2cap+5', '0x1.26c191dcfdf0ep+2', '0x1.a000809bb2bbfp+1', '0x1.f36ed6df824dcp+2')),
    (((0.5, 8),), 0.0, '0x1.20dd8ffce6765p+10', '0x1.deeeaced50df2p-1', 68,
     ('0x1.9903d764da36ep+6', '0x1.51504574e69bep+3', '0x1.e4bd16c4b3030p+2', '0x1.83674a792c63ap+3')),
    (((0.5, 8),), 0.3, '0x1.1d00eaf9ef71ep+19', '0x1.e6d0eb07576a2p-1', 68,
     ('0x1.b6561855bb124p+6', '0x1.193b52ef90a27p+4', '0x1.b5b5c5fb72e2bp+3', '0x1.22f06e38fedeap+4')),
    (((0.5, 8),), 0.9, '0x1.84caca0fdb489p+7', '0x1.f04f5785c7f61p-1', 68,
     ('0x1.a027d556c0cf6p+6', '0x1.6f818396738a8p+3', '0x1.5f92da75c7554p+2', '0x1.3df4b42d5a210p+3')),
    (((0.5, 8),), 1.0, '0x1.c7a079b216decp+4', '0x1.ed18003ebea40p-1', 68,
     ('0x1.9903d764da277p+6', '0x1.33bb80f46c85bp+3', '0x1.d46ed105c2bd2p+1', '0x1.04ce99847c3f2p+3')),
    (((0.5, 16),), 0.0, '0x1.9f63ae9d2738cp+18', '0x1.efbdeb2022871p-1', 68,
     ('0x1.b4a561fe6a357p+7', '0x1.5a1a3ab24d1d6p+4', '0x1.a66359a185adep+3', '0x1.1a6cc19beeccep+4')),
    (((0.5, 16),), 0.3, '0x1.4d6e27133ee93p+36', '0x1.f3cdc308ef227p-1', 68,
     ('0x1.d1f7a2ef4b10cp+7', '0x1.1d88fff2ae196p+5', '0x1.95cbbaafc343cp+4', '0x1.dc251dba437afp+4')),
    (((0.5, 16),), 0.9, '0x1.d5e9cd6c17217p+11', '0x1.f912adc38b3e3p-1', 68,
     ('0x1.bbc95ff050cd0p+7', '0x1.767c10603284ap+4', '0x1.08152fc3fbc57p+3', '0x1.8f9412db3d427p+3')),
    (((0.5, 16),), 1.0, '0x1.d28196451625ap+5', '0x1.f70bba1e0cb98p-1', 68,
     ('0x1.b4a561fe6a24fp+7', '0x1.3a3849f023efep+4', '0x1.08e99ea030065p+2', '0x1.0fe5d42e7f37ep+3')),
    (((0.7, 1),), 0.0, '0x1.6db6db6db7420p+0', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.6d3c324e15142p-2', '0x1.bd9efdeb0d413p-2', '0x1.fcece9b18f98ap+0', '0x1.a53224f28de43p+2')),
    (((0.7, 1),), 0.3, '0x1.400000000059cp+1', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.d5240f0e0e971p-1', '0x1.fd5574dc8aadap-1', '0x1.4617f25288cf9p+1', '0x1.c902e3af6e65dp+2')),
    (((0.7, 1),), 0.9, '0x1.4000000000599p+2', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.9c041f7ed91aep+0', '0x1.b01cd26617262p+0', '0x1.9ed0fe4e71b74p+1', '0x1.f55f69ad62d9ap+2')),
    (((0.7, 1),), 1.0, '0x1.aaaaaaaaab223p+1', '0x1.0c6f7a0b5ed8dp-20', 67,
     ('0x1.34378fcbdab9cp+0', '0x1.485042b318c50p+0', '0x1.6aeab674f286bp+1', '0x1.db6c45c0a3416p+2')),
    (((0.7, 2),), 0.0, '0x1.f96aae8f07c65p+1', '0x1.763d39e3bd24dp-1', 68,
     ('0x1.d0ec6cbde14afp+3', '0x1.8af381a5010dfp+0', '0x1.468148c377ca3p+1', '0x1.c8c8b10b45ac8p+2')),
    (((0.7, 2),), 0.3, '0x1.3dfdd8262c205p+3', '0x1.906c43ae6c6a9p-1', 68,
     ('0x1.f4bd2b7ac1bf6p+3', '0x1.493a81127bbe7p+1', '0x1.ad610a6019184p+1', '0x1.fbdef8107464ep+2')),
    (((0.7, 2),), 0.9, '0x1.97c6f2da8bed0p+4', '0x1.bddb1df9f2b65p-1', 68,
     ('0x1.108cd8bc5b113p+4', '0x1.e9bee62e7d9f5p+1', '0x1.0126d43bebcd6p+2', '0x1.127947531ddf6p+3')),
    (((0.7, 2),), 1.0, '0x1.6188ed947255ep+3', '0x1.bc9e75536cb27p-1', 68,
     ('0x1.039346c5fb444p+4', '0x1.80722cfcc6192p+1', '0x1.9aecb1d3923cep+1', '0x1.f19a94a1e2ad2p+2')),
    (((0.7, 4),), 0.0, '0x1.9694f70565f39p+3', '0x1.bcc8e55d39180p-1', 68,
     ('0x1.56fc60c5309f8p+5', '0x1.d32eee8f77a5ap+1', '0x1.b1ab3920bde16p+1', '0x1.fd53187996697p+2')),
    (((0.7, 4),), 0.3, '0x1.e3aa15562f6a1p+5', '0x1.cffef3fda5341p-1', 68,
     ('0x1.68e4c023a0d95p+5', '0x1.6bc86fb0c99ebp+2', '0x1.31aef70a888fcp+2', '0x1.2a82ac67a1fdap+3')),
    (((0.7, 4),), 0.9, '0x1.3588da3bf260ap+7', '0x1.ea5d708f00aa1p-1', 68,
     ('0x1.7f1303229b07bp+5', '0x1.02d62ce9bd50cp+3', '0x1.57aa4c91dc34ap+2', '0x1.3b2819c096946p+3')),
    (((0.7, 4),), 1.0, '0x1.94e96171edb29p+4', '0x1.e85fe7fbc41aap-1', 68,
     ('0x1.7219712c3b39ep+5', '0x1.9a77388a2bb74p+2', '0x1.cec64f204c494p+1', '0x1.03e477b2b5da3p+3')),
    (((0.7, 8),), 0.0, '0x1.38fffa10e4897p+6', '0x1.def8a4665aadap-1', 68,
     ('0x1.8e3f75f8509c9p+6', '0x1.f65a74061a1ffp+2', '0x1.385fe4a07fa22p+2', '0x1.2d36ac9bd7b9cp+3')),
    (((0.7, 8),), 0.3, '0x1.5220a807c9566p+10', '0x1.e9a89c5305014p-1', 68,
     ('0x1.a027d556c0d64p+6', '0x1.7cff2c010e1edp+3', '0x1.e3f45cc9b581fp+2', '0x1.81b13e9663692p+3')),
    (((0.7, 8),), 0.9, '0x1.6115c19f17d0cp+11', '0x1.f72dbaf7d686cp-1', 68,
     ('0x1.b6561855bb030p+6', '0x1.09d0b9be0c742p+4', '0x1.0035d600f5ec5p+3', '0x1.8a04643bd1816p+3')),
    (((0.7, 8),), 1.0, '0x1.ac6159a5b7a5bp+5', '0x1.f5c6086ca9314p-1', 68,
     ('0x1.a95c865f5b34cp+6', '0x1.a770cd01b534ap+3', '0x1.0571ca9a46948p+2', '0x1.0efbb0f6ca983p+3')),
    (((0.7, 16),), 0.0, '0x1.e8410f331d5d4p+10', '0x1.efbdef55d7888p-1', 68,
     ('0x1.a9e10091e09b2p+7', '0x1.03f72f4e004b3p+4', '0x1.f43a74e7412eep+2', '0x1.889360dabb225p+3')),
    (((0.7, 16),), 0.3, '0x1.b82e5c419777ap+18', '0x1.f534831bb09eep-1', 68,
     ('0x1.bbc95ff050d4bp+7', '0x1.859a86074a1dep+4', '0x1.a42064d1fb2b9p+3', '0x1.17f5936fb0ae9p+4')),
    (((0.7, 16),), 0.9, '0x1.17d0f36290110p+19', '0x1.fc011a81e8384p-1', 68,
     ('0x1.d1f7a2ef4b00bp+7', '0x1.0d4e0022ea6c0p+5', '0x1.a8cd398403e04p+3', '0x1.13c0da17b88bep+4')),
    (((0.7, 16),), 1.0, '0x1.b7a8980129452p+6', '0x1.fb364fe8bc550p-1', 68,
     ('0x1.c4fe10f8eb324p+7', '0x1.aded95fce533dp+4', '0x1.2cddca240bc15p+2', '0x1.1a1301ff9a459p+3')),
    (((1.0, 1),), 0.5, None, None, 0,
     ('0x1.62e42fefa39efp-1', '0x1.62e42fefa39eep-1', '0x1.62e42fefa39f0p-1', '0x1.62e42fefa39f0p-1')),
    (((1.0, 1),), -0.4, None, None, 0,
     ('-0x1.588c2d913348fp-2', '-0x1.588c2d913348fp-2', '-0x1.588c2d9133490p-2', '-0x1.588c2d9133490p-2')),
    (((1.0, 1),), 2.0, None, None, 0,
     ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0')),
    (((1.0, 3),), 0.5, None, None, 0,
     ('0x1.db5e0e1777418p+4', '0x1.9ed86e5ad899cp+1', '0x1.45d61c1dce854p+0', '0x1.3e119e2224a34p+0')),
    (((1.0, 3),), -0.4, None, None, 0,
     ('0x1.a9f2177631b1fp+4', '0x1.95dcf48e8d514p-1', '0x1.bcd0af5014678p-3', '0x1.b3e27d0e7ae60p-3')),
    (((1.0, 3),), 2.0, None, None, 0,
     ('0x1.ba18a998ffbc7p+4', '0x1.193ea7aad030bp-1', '0x1.09ea4148e0d92p-1', '0x1.193e430103860p-1')),
    (((1.0, 9),), 0.5, None, None, 0,
     ('0x1.d30cb4f7d96a2p+6', '0x1.5840245960215p+3', '0x1.eaaab5352b95cp+0', '0x1.cab188f674828p+0')),
    (((1.0, 9),), -0.4, None, None, 0,
     ('0x1.adfbbbfee53edp+6', '0x1.c4f83389268acp+1', '0x1.8f2f8dfbe3694p-1', '0x1.86377212a90f0p-1')),
    (((1.0, 9),), 2.0, None, None, 0,
     ('0x1.ba18a998ffb5dp+6', '0x1.193ea7aad030bp+0', '0x1.f7137c0f4af18p-1', '0x1.193dde575e700p+0')),
    (((0.3, 2), (0.6, 1), (-0.5, 3)), 0.9, '0x1.32e35ac4c4c54p+4', '0x1.ce2648a58581cp-1', 68,
     ('0x1.192ccf74bc167p+6', '0x1.3e55119b2fc59p+2', '0x1.d5d3b9f539ef6p+1', '0x1.0763fb734c340p+3')),
    (((0.3, 2), (0.6, 1), (-0.5, 3)), 2.0, '0x1.fe10b5a76e1cdp-1', '0x1.66dd8d7d745a3p-1', 68,
     ('0x1.03b94b7175580p+6', '0x1.80f7f0d2dfaefp-2', '0x1.69a01fa593feap+0', '0x1.80c271b36ed0bp+2')),
    (((0.3, 2), (0.6, 1), (-0.5, 3)), -1.5, '0x1.f77c1bbd50daap+0', '0x1.9af6484dac85ap-1', 68,
     ('0x1.0ca3e2148c982p+6', '0x1.e3d8ea8b4ec4bp+0', '0x1.dae5dd367f91bp+0', '0x1.9cc5bc8e2d469p+2')),
]


@pytest.mark.parametrize("points, zeta, value, rho_star, evals, logs", _PINNED_SCAN,
                         ids=["+".join(f"{l}^{m}" for l, m in row[0]) + f"@{row[1]}"
                              for row in _PINNED_SCAN])
def test_rho_scan_keeps_its_bits(points, zeta, value, rho_star, evals, logs):
    q = BoundQuery(SpectrumSpec(points), zeta, 1.0)
    assert tuple(mainlemma_log_bound(q, r).hex() for r in _PINNED_RHOS) == logs
    if value is not None:
        rep = optimize_rho(q)
        assert (rep.value.hex(), rep.rho_star.hex()) == (value, rho_star)


def test_every_scanned_rho_goes_through_the_module_function(monkeypatch):
    # the benchmark counts bound evaluations by wrapping the module-level
    # function, so optimize_rho must reach every rho through it
    seen = []
    bound = resolvent.mainlemma_log_bound

    def spy(q, rho):
        seen.append(rho)
        return bound(q, rho)

    monkeypatch.setattr(resolvent, "mainlemma_log_bound", spy)
    for points, zeta, value, rho_star, evals, _ in _PINNED_SCAN:
        if value is None:
            continue
        seen.clear()
        rep = optimize_rho(BoundQuery(SpectrumSpec(points), zeta, 1.0))
        assert len(seen) == evals
        assert rep.rho_star in seen
    seen.clear()
    assert acceptance.criterion_6().passed
    assert len(seen) == 3738
