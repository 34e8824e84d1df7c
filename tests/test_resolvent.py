import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
