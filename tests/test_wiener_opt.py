import math
from fractions import Fraction

import numpy as np
import pytest

from schaeffer.blaschke import (
    CoefficientSeries,
    MoebiusParam,
    blaschke_power_coeffs,
    weighted_coeffs,
)
from schaeffer.errors import DomainError, ModeError
from schaeffer.spectra import SpectrumSpec
from schaeffer.wiener_opt import (
    _product_weighted_linf,
    admm_basis_pursuit,
    phi_exact_truncated,
    phi_lower_bound,
    quotient_norm,
    remark5_lift,
    resolvent_interpolation_norm,
    schaeffer_upper,
)

# Values certified by an exact rational-arithmetic simplex run on the same
# truncated programs (lambda = 1/2 is dyadic, so the constraint data is
# exactly representable):
PHI_05_MULT2 = Fraction(7, 4)
PHI_05_MULT8_D96 = Fraction(108594539, 33510400)
PHI_05_MULT16_D128 = Fraction(84438862041202206351, 19059441479450624000)


class TestPhi:
    def test_single_point(self):
        res = phi_exact_truncated(SpectrumSpec.single(0.5, 1), D=8)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.converged

    def test_exact_rational_values(self):
        r8 = phi_exact_truncated(SpectrumSpec.single(0.5, 8), D=96, cap=96)
        assert r8.value == pytest.approx(float(PHI_05_MULT8_D96), rel=1e-10)
        r16 = phi_exact_truncated(SpectrumSpec.single(0.5, 16), D=128, cap=128)
        assert r16.value == pytest.approx(float(PHI_05_MULT16_D128), rel=1e-10)

    def test_multiplicity_two_value_and_bracket(self):
        res = phi_exact_truncated(SpectrumSpec.single(0.5, 2))
        assert res.value == pytest.approx(float(PHI_05_MULT2), rel=1e-9)
        assert res.lower_bound <= res.value <= np.sqrt(2 * np.e)

    def test_lower_bound_ordering(self):
        res = phi_exact_truncated(SpectrumSpec.single(0.5, 8))
        assert res.lower_bound <= res.value

    def test_monotone_in_degree(self):
        a = phi_exact_truncated(SpectrumSpec.single(0.5, 8), D=64, cap=64).value
        b = phi_exact_truncated(SpectrumSpec.single(0.5, 8), D=128, cap=128).value
        assert b <= a + 1e-9

    def test_growth_band(self):
        # certifiable range; the multiplicity-64 program exceeds the
        # extended-precision conditioning ceiling and must flag itself
        vals = {}
        for n in (8, 16, 32):
            res = phi_exact_truncated(SpectrumSpec.single(0.5, n))
            assert res.converged
            vals[n] = res.value / np.sqrt(n)
        assert max(vals.values()) / min(vals.values()) < 1.5

    def test_uncertifiable_multiplicity_flagged(self):
        res = phi_exact_truncated(SpectrumSpec.single(0.5, 64), D=512, cap=512)
        assert not res.converged

    def test_distinct_points(self):
        res = phi_exact_truncated(SpectrumSpec([(0.3, 1), (0.6, 1)]))
        assert res.lower_bound <= res.value <= schaeffer_upper(2) + 1e-3

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            phi_exact_truncated(SpectrumSpec.single(0.0, 2))

    def test_complex_needs_subgradient_mode(self):
        spec = SpectrumSpec([(0.3 + 0.2j, 1), (0.3 - 0.2j, 1)])
        with pytest.raises(ModeError):
            phi_exact_truncated(spec)
        res = phi_exact_truncated(spec, D=16, cap=16, method="subgradient")
        assert res.method == "subgradient"
        assert not res.converged  # never certified
        assert res.value >= res.lower_bound - 1e-3

    def test_conjugate_spectrum_invariance(self):
        spec = SpectrumSpec([(0.3 + 0.2j, 1), (0.3 - 0.2j, 1)])
        a = phi_exact_truncated(spec, D=16, cap=16, method="subgradient").value
        b = phi_exact_truncated(spec.conjugate(), D=16, cap=16, method="subgradient").value
        assert a == pytest.approx(b, rel=1e-4)

    def test_json_payload(self):
        spec = SpectrumSpec.single(0.5, 2)
        d = phi_exact_truncated(spec).to_json_dict(spec)
        assert d["n"] == 2 and d["converged"]
        assert set(d) >= {"phi_truncated", "degree", "lower_bound", "schaeffer_upper"}


class TestQuotientNorm:
    def test_constant_function(self):
        one = CoefficientSeries(np.array([1.0]))
        assert quotient_norm(one, SpectrumSpec.single(0.5, 1), D=8) == pytest.approx(1.0, abs=1e-10)

    def test_identity_function(self):
        zed = CoefficientSeries(np.array([0.0, 1.0]))
        assert quotient_norm(zed, SpectrumSpec.single(0.5, 1), D=8) == pytest.approx(0.5, abs=1e-10)

    def test_cross_formulation_with_lift(self):
        # the lift of 1/z and the pinned-constant program encode the same
        # optimization after the change of variables h = prod(lam) (1 - z f)
        spec = SpectrumSpec.single(0.5, 3)
        lift = remark5_lift(spec)
        q = quotient_norm(lift, spec)
        phi = phi_exact_truncated(spec).value
        assert q * 0.5 ** 3 == pytest.approx(phi, abs=1e-6)


class TestRemark5Lift:
    def test_values_at_spectrum(self):
        spec = SpectrumSpec([(0.5, 1), (0.25, 1)])
        a = remark5_lift(spec).coeffs
        for lam in (0.5, 0.25):
            val = sum(c * lam ** k for k, c in enumerate(a))
            assert val == pytest.approx(1 / lam, abs=1e-12)

    def test_degree(self):
        assert remark5_lift(SpectrumSpec.single(0.5, 3)).coeffs.size == 3


class TestPhiLowerBound:
    def test_single_factor_closed_form(self):
        # sup coefficient 7/8 from the weighted series of b_1/2, so the
        # bound is 8/7 - 1/2 = 9/14
        assert phi_lower_bound(SpectrumSpec.single(0.5, 1)) == pytest.approx(9 / 14, abs=1e-12)

    def test_clamp_formula(self):
        spec = SpectrumSpec.single(0.9, 1)
        p = MoebiusParam(0.9, 1)
        from schaeffer.blaschke import default_coeff_count, linf_A_norm
        norm = linf_A_norm(weighted_coeffs(p, default_coeff_count(p)))
        assert phi_lower_bound(spec) == pytest.approx(max(0.0, 1 / norm - 0.9), abs=1e-12)

    def test_product_spectrum_path(self):
        v = phi_lower_bound(SpectrumSpec([(0.3, 2), (0.5, 1)]))
        assert v >= 0

    def test_product_matches_convolved_factors(self):
        # (1-z^2) b_0.3 b_0.6 from the single-factor series, convolved
        K = 400
        a = blaschke_power_coeffs(MoebiusParam(0.3, 1), K).coeffs
        b = blaschke_power_coeffs(MoebiusParam(0.6, 1), K).coeffs
        prod = np.convolve(a, b)[: K + 1]
        weighted = prod.copy()
        weighted[2:] -= prod[:-2]
        norm = _product_weighted_linf(SpectrumSpec([(0.3, 1), (0.6, 1)]))
        assert norm == pytest.approx(np.max(np.abs(weighted)), abs=1e-12)


class TestSchaefferUpper:
    def test_values(self):
        assert schaeffer_upper(1) == pytest.approx(1.6487212707001282, rel=1e-12)
        assert schaeffer_upper(4) == pytest.approx(3.2974425414002564, rel=1e-12)

    def test_monotone(self):
        vals = [schaeffer_upper(n) for n in range(1, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestResolventInterpolation:
    def test_constant_interpolant_zeta_zero(self):
        v = resolvent_interpolation_norm(SpectrumSpec.single(0.5, 1), 0.0, D=16)
        assert v == pytest.approx(2.0, abs=1e-12)

    def test_constant_interpolant_zeta_two(self):
        v = resolvent_interpolation_norm(SpectrumSpec.single(0.5, 1), 2.0, D=16)
        assert v == pytest.approx(2 / 3, abs=1e-12)

    def test_cross_check_against_phi(self):
        # at zeta = 0 the jets of 1/(0 - z) are minus those of 1/z, so the
        # program matches the pinned-constant one up to the factor lam^n
        n = 8
        v = resolvent_interpolation_norm(SpectrumSpec.single(0.5, n), 0.0)
        phi = phi_exact_truncated(SpectrumSpec.single(0.5, n)).value
        assert v * 0.5 ** n >= phi - 1e-6

    def test_zeta_in_spectrum_rejected(self):
        with pytest.raises(DomainError):
            resolvent_interpolation_norm(SpectrumSpec.single(0.5, 2), 0.5)

    def test_complex_zeta_falls_back(self):
        v = resolvent_interpolation_norm(SpectrumSpec.single(0.5, 2), 0.3 + 0.4j,
                                         D=24, cap=24)
        assert v > 0


def test_admm_matches_lp_on_real_data():
    rows = np.array([[1.0, 0.5, 0.25]])
    rhs = np.array([1.0])
    x, val, ok = admm_basis_pursuit(rows.astype(complex), rhs.astype(complex))
    assert ok
    assert val == pytest.approx(1.0, abs=1e-4)


class TestTruncatedL1Problem:
    def test_real_solve(self):
        import numpy as np
        from schaeffer.wiener_opt import TruncatedL1Problem
        prob = TruncatedL1Problem(2, np.array([[1.0, 0.5, 0.25]]), np.array([1.0]))
        assert prob.is_real
        val, coeffs = prob.solve()
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_complex_solve(self):
        import numpy as np
        from schaeffer.wiener_opt import TruncatedL1Problem
        prob = TruncatedL1Problem(
            1, np.array([[1.0 + 0j, 1j]]), np.array([1.0 + 1j]))
        assert not prob.is_real
        val, coeffs = prob.solve()
        assert val <= math.sqrt(2) + 1e-3


class TestMixedSpectra:
    def test_cross_formulation_mixed_multiplicities(self):
        # distinct points with multiplicities: the lift-quotient and the
        # pinned-constant programs still encode the same optimization
        for points in ([(0.3, 2), (0.6, 1)], [(0.5, 3), (0.25, 2)]):
            spec = SpectrumSpec(points)
            res = phi_exact_truncated(spec)
            assert res.converged
            q = quotient_norm(remark5_lift(spec), spec)
            assert q * abs(spec.eigen_product()) == pytest.approx(res.value, abs=1e-9)
            assert res.lower_bound <= res.value


class TestDegreeValidation:
    def test_phi_degree_below_constraints(self):
        with pytest.raises(DomainError):
            phi_exact_truncated(SpectrumSpec.single(0.5, 8), D=8)

    def test_quotient_degree_below_constraints(self):
        import numpy as np
        one = CoefficientSeries(np.array([1.0]))
        with pytest.raises(DomainError):
            quotient_norm(one, SpectrumSpec.single(0.5, 8), D=4)

    def test_resolvent_degree_below_constraints(self):
        with pytest.raises(DomainError):
            resolvent_interpolation_norm(SpectrumSpec.single(0.5, 8), 0.0, D=4)
