from fractions import Fraction

import numpy as np
import pytest

from schaeffer.blaschke import blaschke_power_coeffs, support_estimate, weight_series
from schaeffer import acceptance, wiener_opt
from schaeffer.errors import DomainError
from schaeffer.simplex import LD, SimplexError, min_l1_solution
from schaeffer.modelspace import _malmquist_walsh_rows, _row_error_bound, row_table
from schaeffer.spectra import SpectrumSpec
from schaeffer.wiener_opt import (
    _certified_interpolate,
    _interpolate,
    _malmquist_walsh_resolvent_rhs,
    _shift_tail,
    _start_degree,
    phi_exact_truncated,
    phi_lower_bound,
    resolvent_interpolation_norm,
    schaeffer_upper,
)

# Values certified by an exact rational-arithmetic simplex run on the same
# truncated programs (lambda = 1/2 is dyadic, so the constraint data is
# exactly representable):
PHI_05_MULT2 = Fraction(7, 4)
PHI_05_MULT8_D96 = Fraction(108594539, 33510400)
PHI_05_MULT16_D128 = Fraction(84438862041202206351, 19059441479450624000)


def _jet_rows(points, D):
    """Rows of the scaled jet map a -> a^{(d)}(lambda)/d! over coefficients
    a_0..a_D, one row per (lambda_i, d < mult_i), in long double: entry
    (d; k) is binom(k, d) lambda^(k-d), built by a cumulative-ratio
    recurrence.  These confluent-Vandermonde rows pose the l1 programs
    independently of the Malmquist-Walsh rows the package uses."""
    rows = np.zeros((sum(mult for _, mult in points), D + 1), dtype=LD)
    r = 0
    for lam, mult in points:
        for d in range(mult):
            ks = np.arange(d, D + 1).astype(LD)
            ratios = np.ones(ks.size, dtype=LD)
            # binom(k+1,d)/binom(k,d) * lambda = (k+1)/(k+1-d) * lambda
            ratios[1:] = ks[1:] / (ks[1:] - d) * LD(lam.real)
            rows[r, d:] = np.cumprod(ratios)
            r += 1
    return rows


def _solve(spec, zeta, deg):
    """(f, y) of the program over polynomials of degree deg, posed in the
    Malmquist-Walsh basis as ``_certified_interpolate`` poses it."""
    mus = [lam.real for lam in spec.expanded()]
    return _interpolate(_malmquist_walsh_rows(mus, deg), _malmquist_walsh_resolvent_rhs(mus, zeta))


def _phi_at_degree(spec, D):
    """phi_D = |a0| N_{D-1}(0) at a fixed truncation degree D."""
    return abs(spec.eigen_product()) * float(np.sum(np.abs(_solve(spec, 0.0, D - 1)[0])))


def _pinned_constant_lp(spec, D):
    """phi_D posed directly: min sum_{k=1..D} |h_k| subject to the jet rows
    of h on the spectrum, with h_0 = prod lambda_i moved to the right-hand
    side (-h_0 on each value row and 0 on each derivative row)."""
    rhs = np.concatenate([[-spec.eigen_product().real] + [0.0] * (mult - 1)
                          for _, mult in spec.points])
    val, _, _ = min_l1_solution(_jet_rows(spec.points, D)[:, 1:], rhs.astype(LD))
    return float(val)


class TestPhi:
    def test_single_point(self):
        # exact to the last bit: the optimum stays in long double until
        # phi = |a0| sum |f| is formed
        res = phi_exact_truncated(SpectrumSpec.single(0.5, 1))
        assert res.value == 1.0
        assert res.converged

    def test_exact_rational_values(self):
        r8 = _phi_at_degree(SpectrumSpec.single(0.5, 8), 96)
        assert r8 == pytest.approx(float(PHI_05_MULT8_D96), rel=1e-10)
        r16 = _phi_at_degree(SpectrumSpec.single(0.5, 16), 128)
        assert r16 == pytest.approx(float(PHI_05_MULT16_D128), rel=1e-10)

    def test_multiplicity_two_value_and_bracket(self):
        spec = SpectrumSpec.single(0.5, 2)
        res = phi_exact_truncated(spec)
        assert res.value == pytest.approx(float(PHI_05_MULT2), rel=1e-9)
        assert phi_lower_bound(spec) <= res.value <= np.sqrt(2 * np.e)

    def test_lower_bound_ordering(self):
        spec = SpectrumSpec.single(0.5, 8)
        assert phi_lower_bound(spec) <= phi_exact_truncated(spec).value

    def test_monotone_in_degree(self):
        a = _phi_at_degree(SpectrumSpec.single(0.5, 8), 64)
        b = _phi_at_degree(SpectrumSpec.single(0.5, 8), 128)
        assert b <= a + 1e-9

    def test_growth_band(self):
        vals = {}
        for n in (8, 16, 32):
            res = phi_exact_truncated(SpectrumSpec.single(0.5, n))
            assert res.converged
            vals[n] = res.value / np.sqrt(n)
        assert max(vals.values()) / min(vals.values()) < 1.5

    def test_near_unit_programs_certified(self):
        # the dual's shift index stays inside the column budget, so these
        # brackets close (~1e-11 wide) on the values printed before they did
        pinned = {(0.97, 32): "3.0466231208942358", (0.95, 64): "4.750100159255676"}
        for (lam, n), value in pinned.items():
            res = phi_exact_truncated(SpectrumSpec.single(lam, n))
            assert (format(res.value, ".17g"), res.converged) == (value, True), (lam, n)

    def test_distinct_points(self):
        spec = SpectrumSpec([(0.3, 1), (0.6, 1)])
        res = phi_exact_truncated(spec)
        assert phi_lower_bound(spec) <= res.value <= schaeffer_upper(2) + 1e-3

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            phi_exact_truncated(SpectrumSpec.single(0.0, 2))

    def test_complex_spectrum_rejected(self):
        # the l1 program is posed for real data only
        spec = SpectrumSpec([(0.3 + 0.2j, 1), (0.3 - 0.2j, 1)])
        with pytest.raises(DomainError):
            phi_exact_truncated(spec)
        with pytest.raises(DomainError):
            resolvent_interpolation_norm(spec, 0.9)

    def test_growth_values_pinned(self):
        # phi_D and phi_converged of `growth --lambda 0.5 --n 8,16,24,32,48,64`
        # as the CSV prints them (17 significant digits)
        pinned = {8: ("3.2406219860103134", True), 16: ("4.4302904747886718", True),
                  24: ("5.2930049308975908", True), 32: ("5.8536096849791344", True),
                  48: ("7.1410261096866048", True), 64: ("7.9015564360118127", True)}
        for n, (value, converged) in pinned.items():
            res = phi_exact_truncated(SpectrumSpec.single(0.5, n))
            assert (format(res.value, ".17g"), res.converged) == (value, converged), n
            # the proven bracket holds the value after the |a0| scaling and
            # the rounding to float
            assert res.lower <= res.value <= res.upper, n
            assert res.upper - res.lower <= 1e-8 * res.upper, n

    def test_one_program_from_the_coefficient_support(self, monkeypatch):
        # started at the coefficient support, ~|m|/alpha0 = 2134 columns,
        # the program needs no second solve
        calls = []
        solve = wiener_opt.min_l1_solution

        def counted(rows, rhs):
            calls.append(rows.shape)
            return solve(rows, rhs)

        monkeypatch.setattr(wiener_opt, "min_l1_solution", counted)
        res = phi_exact_truncated(SpectrumSpec.single(0.97, 32))
        assert np.isfinite(res.value)
        assert len(calls) == 1

    def test_not_monotone_in_lambda(self):
        # phi dips at lambda = 0.5 between 0.49 and 0.51 (HiGHS on the dual
        # gives 7.901556 and 8.160073 at 0.50 and 0.51)
        res = {lam: phi_exact_truncated(SpectrumSpec.single(lam, 64)) for lam in (0.49, 0.5, 0.51)}
        assert all(r.converged for r in res.values())
        assert [round(r.value, 6) for r in res.values()] == [8.057037, 7.901556, 8.160073]
        assert res[0.5].value < min(res[0.49].value, res[0.51].value)

    def test_inside_bracket_where_simplex_hit_iteration_limit(self):
        # the jet-row program ran out of simplex iterations here
        spec = SpectrumSpec.single(0.56, 64)
        res = phi_exact_truncated(spec)
        assert phi_lower_bound(spec) <= res.value <= schaeffer_upper(64)


class TestRemark5Lift:
    def test_matches_pinned_constant_lp(self):
        # h = prod(lam) (1 + z f) turns the pinned-constant program into the
        # zeta = 0 resolvent program of degree D - 1
        spec = SpectrumSpec.single(0.5, 8)
        assert _phi_at_degree(spec, 96) == pytest.approx(_pinned_constant_lp(spec, 96), rel=1e-12)

    def test_values_at_spectrum(self):
        # the zeta = 0 interpolant matches the jets of -1/z, so
        # h = prod(lam) (1 + z f) vanishes on the spectrum
        spec = SpectrumSpec([(0.5, 1), (0.25, 1)])
        f, _ = _solve(spec, 0.0, 8)
        for lam in (0.5, 0.25):
            val = sum(float(c) * lam ** k for k, c in enumerate(f))
            assert val == pytest.approx(-1 / lam, abs=1e-12)


class TestPhiLowerBound:
    def test_single_factor_closed_form(self):
        # sup coefficient 7/8 from the weighted series of b_1/2, so the
        # bound is 8/7 - 1/2 = 9/14
        assert phi_lower_bound(SpectrumSpec.single(0.5, 1)) == pytest.approx(9 / 14, abs=1e-12)

    def test_clamp_formula(self):
        spec = SpectrumSpec.single(0.9, 1)
        norm = weight_series(blaschke_power_coeffs([(0.9, 1)], support_estimate([(0.9, 1)]))).linf
        assert phi_lower_bound(spec) == pytest.approx(max(0.0, 1 / norm - 0.9), abs=1e-12)

    def test_product_spectrum_path(self):
        v = phi_lower_bound(SpectrumSpec([(0.3, 2), (0.5, 1)]))
        assert v >= 0

    def test_product_matches_convolved_factors(self):
        # (1-z^2) b_0.3 b_0.6 from the single-factor series, convolved,
        # against the one extraction of the product that phi_lower_bound reads
        K = 400
        a = blaschke_power_coeffs([(0.3, 1)], K).coeffs
        b = blaschke_power_coeffs([(0.6, 1)], K).coeffs
        prod = np.convolve(a, b)[: K + 1]
        weighted = prod.copy()
        weighted[2:] -= prod[:-2]
        expect = np.max(np.abs(weighted))
        spec = SpectrumSpec([(0.3, 1), (0.6, 1)])
        norm = weight_series(blaschke_power_coeffs(spec.points, support_estimate(spec.points))).linf
        assert norm == pytest.approx(expect, abs=1e-12)
        assert phi_lower_bound(spec) == pytest.approx(1 / expect - 0.18, abs=1e-12)


class TestSchaefferUpper:
    def test_values(self):
        assert schaeffer_upper(1) == pytest.approx(1.6487212707001282, rel=1e-12)
        assert schaeffer_upper(4) == pytest.approx(3.2974425414002564, rel=1e-12)

    def test_monotone(self):
        vals = [schaeffer_upper(n) for n in range(1, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestResolventInterpolation:
    def test_constant_interpolant_zeta_zero(self):
        res = resolvent_interpolation_norm(SpectrumSpec.single(0.5, 1), 0.0)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_constant_interpolant_zeta_two(self):
        res = resolvent_interpolation_norm(SpectrumSpec.single(0.5, 1), 2.0)
        assert res.converged
        assert res.value == pytest.approx(2 / 3, abs=1e-12)

    def test_zeta_at_reciprocal_eigenvalue_certified(self):
        # 1 - lambda zeta = 0 exactly, so the right-hand side past the first
        # row is exactly 0 and its rounding bound must not void the bracket
        res = resolvent_interpolation_norm(SpectrumSpec.single(0.5, 2), 2.0)
        assert res.converged
        assert res.value == pytest.approx(8 / 9, rel=1e-12)

    def test_cross_check_against_phi(self):
        # at zeta = 0 the jets of 1/(0 - z) are minus those of 1/z, so the
        # program matches the pinned-constant one up to the factor lam^n
        n = 8
        res = resolvent_interpolation_norm(SpectrumSpec.single(0.5, n), 0.0)
        phi = phi_exact_truncated(SpectrumSpec.single(0.5, n)).value
        assert res.converged
        assert res.value * 0.5 ** n >= phi - 1e-6

    def test_zeta_in_spectrum_rejected(self):
        with pytest.raises(DomainError):
            resolvent_interpolation_norm(SpectrumSpec.single(0.5, 2), 0.5)

    def test_certified_interpolate_rejects_zeta_in_spectrum(self):
        # the one entry point checks it, not only the norm that wraps it
        with pytest.raises(DomainError, match="zeta coincides with an eigenvalue"):
            _certified_interpolate(SpectrumSpec.single(0.9, 1), 0.9 + 0j)

    def test_complex_zeta_rejected(self):
        with pytest.raises(DomainError):
            resolvent_interpolation_norm(SpectrumSpec.single(0.5, 2), 0.3 + 0.4j)

    def test_uncertified_norm_is_not_converged(self):
        # budget-bound: |g_k| passes 1 beyond column 4096, so the dual's
        # shift index runs past the column budget; the lower end is 2.8e-4
        # against an upper end of 2.61, so the value is not certified
        res = resolvent_interpolation_norm(SpectrumSpec.single(0.99, 32), 0.0)
        assert not res.converged
        assert 2.7e-4 <= res.lower <= 2.9e-4 and 2.6 <= res.upper <= 2.62
        assert res.lower <= res.value <= res.upper

    def test_model_space_rows_match_jet_rows(self):
        # the Malmquist-Walsh rows and their closed-form right-hand side pose
        # the same program as the jet rows with rhs (zeta - lambda)^-(d+1);
        # both are well conditioned at this size
        for points, zeta in (([(0.3, 2), (0.6, 3)], 0.9), ([(0.3, 2), (-0.6, 3)], -0.5)):
            spec = SpectrumSpec(points)
            f, _ = _solve(spec, zeta, 64)
            rhs = np.array([(LD(zeta) - LD(lam.real)) ** (-LD(d + 1))
                            for lam, mult in spec.points for d in range(mult)], dtype=LD)
            jet, _, _ = min_l1_solution(_jet_rows(spec.points, 64), rhs)
            assert float(np.sum(np.abs(f))) == pytest.approx(float(jet), rel=1e-12), (points, zeta)


def _times_blaschke(p, lam):
    """Taylor coefficients of p(z) (z - lam)/(1 - lam z), same length."""
    from scipy.signal import lfilter

    r = -lam * p
    r[1:] += p[:-1]
    return lfilter([1.0], [1.0, -lam], r)


def _resolvent_bracket(lam, n, zeta):
    """(lo, hi) around |B(zeta)| N(lam, n), B = b_lam^n, from two programs
    independent of the package, both scaled by |B(zeta)| (HiGHS treats
    magnitudes above 1e20 as infinite).

    hi: min ||h + B q||_1 over polynomials q of degree 4n, where
    h = (1 - B/B(zeta))/(zeta - z); every q gives an exactly feasible
    interpolant, so the recomputed norm is an upper bound.
    lo: the LP dual over the model space K_B in its Malmquist-Walsh basis
    e_j: max <h, y> subject to |coefficients of sum_j y_j e_j| <= 1, the dual
    rescaled by its largest coefficient over 4K of them, so it is feasible
    for the untruncated program.
    """
    from scipy.optimize import linprog
    from scipy.signal import lfilter

    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
             "ipm_optimality_tolerance": 1e-12}
    L = 32 * n + 256
    powers = [np.zeros(L)]
    powers[0][0] = 1.0
    for _ in range(n):
        powers.append(_times_blaschke(powers[-1], lam))
    B = powers[-1]
    K = int(np.nonzero(np.abs(B) >= 1e-18)[0][-1]) + 1
    Bz = ((zeta - lam) / (1 - lam * zeta)) ** n
    # e = |B(zeta)| (1 - B/B(zeta)); h = e/(zeta - z) by h_{k-1} = zeta h_k - e_k
    e = -np.sign(Bz) * B
    e[0] += abs(Bz)
    h = np.zeros(L)
    for k in range(L - 1, 0, -1):
        h[k - 1] = zeta * h[k] - e[k]

    Q = 4 * n
    rows = K + Q + 1
    M = np.zeros((rows, Q + 1))
    for j in range(Q + 1):
        M[j:j + K, j] = B[:K]
    res = linprog(np.concatenate([np.zeros(Q + 1), np.ones(2 * rows)]),
                  A_eq=np.hstack([M, -np.eye(rows), np.eye(rows)]), b_eq=-h[:rows],
                  bounds=[(None, None)] * (Q + 1) + [(0, None)] * (2 * rows),
                  method="highs-ipm", options=tight)
    assert res.status == 0, res.message
    hi = np.sum(np.abs(h + np.convolve(B, res.x[:Q + 1])[:L]))

    E = np.vstack([np.sqrt(1 - lam ** 2) * lfilter([1.0], [1.0, -lam], powers[j])
                   for j in range(n)])
    r = E @ h
    res = linprog(-r, A_ub=np.vstack([E[:, :K].T, -E[:, :K].T]), b_ub=np.ones(2 * K),
                  bounds=[(None, None)] * n, method="highs-ipm", options=tight)
    assert res.status == 0, res.message
    y = res.x
    lo = (r @ y) / np.max(np.abs(y @ E[:, :4 * K]))
    return lo, hi


def test_resolvent_norm_inside_certified_bracket():
    # the jet rows lose long-double precision from n ~ 48; the program must
    # stay inside the bracket there, and the criterion-11 values pinned in
    # schaeffer.acceptance must lie inside it too
    pytest.importorskip("scipy")
    lam, zeta = 0.5, 0.9
    b = abs((zeta - lam) / (1 - lam * zeta))
    for n in (8, 32, 48, 64):
        lo, hi = _resolvent_bracket(lam, n, zeta)
        res = resolvent_interpolation_norm(SpectrumSpec.single(lam, n), zeta)
        v = b ** n * res.value
        assert res.converged, n
        assert lo * (1 - 1e-8) <= v <= hi * (1 + 1e-8), (n, lo, v, hi)
        if n in acceptance._RESOLVENT_EXACT:
            pinned = acceptance._RESOLVENT_EXACT[n]
            assert lo * (1 - 1e-8) <= pinned <= hi * (1 + 1e-8), (n, lo, pinned, hi)


class TestTruncatedL1Problem:
    def test_real_solve(self):
        val, _, _ = min_l1_solution(np.array([[1.0, 0.5, 0.25]]), np.array([1.0]))
        assert val == pytest.approx(1.0, abs=1e-12)


class TestMixedSpectra:
    def test_cross_formulation_mixed_multiplicities(self):
        # distinct points with multiplicities: the zeta = 0 resolvent program
        # and the pinned-constant program still encode the same optimization
        for points in ([(0.3, 2), (0.6, 1)], [(0.5, 3), (0.25, 2)]):
            spec = SpectrumSpec(points)
            assert _phi_at_degree(spec, 64) == pytest.approx(_pinned_constant_lp(spec, 64),
                                                             rel=1e-12)
            res = phi_exact_truncated(spec)
            assert phi_lower_bound(spec) <= res.value
            assert res.converged


class TestCertificate:
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.66])
    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("zeta", [0j, 0.9 + 0j])
    def test_bracket_is_tight(self, lam, n, zeta):
        # the dual, priced over every k, and the repaired primal bracket the
        # untruncated norm
        res = _certified_interpolate(SpectrumSpec.single(lam, n), zeta)
        assert res.converged
        assert res.lower <= res.value <= res.upper
        assert res.upper - res.lower <= 1e-8 * res.upper

    @pytest.mark.parametrize("n", [8, 16])
    def test_one_solve_reaches_the_long_truncation(self, n):
        # at lambda = 0.9 the optimal support runs to ~19 n: the one solve at
        # the support degree certifies the value a far longer fixed
        # truncation reaches
        spec = SpectrumSpec.single(0.9, n)
        res = _certified_interpolate(spec, 0j)
        far = np.sum(np.abs(_solve(spec, 0.0, 2047)[0]))
        assert res.converged
        assert res.value == pytest.approx(float(far), rel=1e-12)
        assert phi_exact_truncated(spec).converged


_ONE_SOLVE_PROGRAMS = ([([(lam, n)], zeta) for lam in (0.3, 0.5, 0.66, 0.9, 0.97, -0.6)
                        for n in (8, 16, 32, 64) for zeta in (0.0, 0.9, -0.5)]
                       + [([(0.3, 2), (-0.6, 3), (0.8, 2)], 0.9)])


def test_one_solve_per_program(monkeypatch):
    # the optimum's support ends inside the coefficient support the program
    # is posed at: each program is solved once, and one that does not
    # certify prices no column past the posed degree above 1, so no longer
    # truncation within the column budget could tighten it
    solves = []
    solve = wiener_opt._interpolate

    def recorded(rows, rhs):
        f, y = solve(rows, rhs)
        solves.append((rows.shape[1] - 1, y))
        return f, y

    monkeypatch.setattr(wiener_opt, "_interpolate", recorded)
    for points, zeta in _ONE_SOLVE_PROGRAMS:
        spec = SpectrumSpec(points)
        solves.clear()
        try:
            res = _certified_interpolate(spec, complex(zeta))
        except (DomainError, SimplexError):
            continue
        assert len(solves) == 1, (points, zeta)
        (deg, y), = solves
        assert deg == _start_degree(spec)
        if not res.converged:
            mus = [lam.real for lam in spec.expanded()]
            K = _shift_tail(mus)[0](y.astype(float))
            priced = _malmquist_walsh_rows(mus, max(deg, min(K, wiener_opt._COLUMN_BUDGET)))
            assert np.all(np.abs(y @ priced[:, deg + 1:]) <= 1), (points, zeta)


def _outcome(spec, zeta):
    """Every ``Bracket`` field, the floats in hex, or the error raised."""
    try:
        res = resolvent_interpolation_norm(spec, zeta)
    except (DomainError, SimplexError) as ex:
        return type(ex).__name__, str(ex)
    return tuple(v.hex() if isinstance(v, float) else v for v in tuple(res))


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.99])
def test_row_table_keeps_every_bracket_bit(lam):
    # in ascending n each larger program replaces the table, in descending n the
    # smaller ones slice the largest; zeta = 0.9 meets lambda = 0.9, and
    # lambda 0.97 and 0.99 leave programs uncertified at the column budget
    grid = [(n, zeta) for n in (1, 2, 8, 16, 32, 48, 64) for zeta in (0.0, 0.9, -0.5)]
    outside = {key: _outcome(SpectrumSpec.single(lam, key[0]), key[1]) for key in grid}
    for order in (grid, grid[::-1]):
        with row_table():
            inside = {key: _outcome(SpectrumSpec.single(lam, key[0]), key[1]) for key in order}
        assert inside == outside


class TestShiftTail:
    @pytest.mark.parametrize("points, zeta", [([(0.5, 64)], 0.0), ([(0.9, 16)], 0.0),
                                              ([(0.3, 2), (-0.6, 3), (0.8, 2)], 0.9)])
    def test_bound_dominates_the_dual_coefficients(self, points, zeta):
        # |g_k| of the optimal dual, from rows built to twice the shift
        # index K, under the shift bound at every k in [K, 2K]
        spec = SpectrumSpec(points)
        mus = [lam.real for lam in spec.expanded()]
        _, y = _solve(spec, zeta, _start_degree(spec))
        index, bound, _ = _shift_tail(mus)
        y64 = y.astype(float)
        K = index(y64)
        assert 0 < K < _start_degree(spec)
        g = np.abs(y @ _malmquist_walsh_rows(mus, 2 * K)).astype(float)
        bounds = np.array([bound(y64, k) for k in range(K, 2 * K + 1)])
        assert bounds[0] <= 1 < bound(y64, K - 1)
        assert np.all(g[K:] <= bounds)

    def test_exact_for_one_point(self):
        # n = 1: g_k = y e_1(0) mu^k and the bound is |y| sqrt(1 - mu^2) mu^k
        index, bound, L = _shift_tail([0.5])
        assert bound(np.array([2.0]), 3) == pytest.approx(2 * np.sqrt(0.75) / 8, rel=1e-14)
        # the bound is 4 (1/2)^k here: 1 at k = 2, which the slack lifts past 1
        assert index(np.array([4 / np.sqrt(0.75)])) == 3
        # ||M|| = 1/2 exactly, which the slack does not prove; ||M^2|| = 1/4
        assert L == 2


def _planted(monkeypatch, rel):
    """Make every solve return its witness f with its largest coefficient
    scaled by 1 + rel, the dual untouched."""
    solve = wiener_opt._interpolate

    def planted(rows, rhs):
        f, y = solve(rows, rhs)
        f = f.copy()
        f[np.argmax(np.abs(f))] *= 1 + rel
        return f, y

    monkeypatch.setattr(wiener_opt, "_interpolate", planted)


class TestVerifiedBracket:
    @pytest.mark.parametrize("rel", [1e-6, 1e-7])
    def test_planted_witness_defect_rejected(self, monkeypatch, rel):
        # a witness that moves phi by 1e-8 relative or more is not certified
        spec = SpectrumSpec.single(0.5, 16)
        exact = phi_exact_truncated(spec).value
        _planted(monkeypatch, rel)
        res = phi_exact_truncated(spec)
        assert abs(res.value / exact - 1) >= 1e-8
        assert not res.converged

    def test_small_witness_defect_stays_inside_the_bracket(self, monkeypatch):
        # a 1e-9 change of one coefficient moves phi by ~1e-9 and widens the
        # bracket to ~6e-10: the printed value is still certified to 1e-8
        spec = SpectrumSpec.single(0.5, 16)
        _planted(monkeypatch, 1e-9)
        res = _certified_interpolate(spec, 0j)
        assert res.converged
        assert res.lower <= res.value <= res.upper
        assert 1e-10 <= (res.upper - res.lower) / res.upper <= 1e-9

    def test_one_point_bracket_holds_the_exact_norm(self):
        # at one point the constant f = 1/(zeta - lam) is optimal, so
        # N(zeta) = 1/|zeta - lam| exactly; ends rounded to the nearest
        # float miss it on about a quarter of these programs
        for lam in np.random.default_rng(3).uniform(0.2, 0.8, 40).tolist():
            for zeta in (0.0, -0.5, 0.9, 1.0, 1.5):
                res = resolvent_interpolation_norm(SpectrumSpec.single(lam, 1), zeta)
                exact = 1 / abs(Fraction(zeta) - Fraction(lam))
                assert Fraction(res.lower) <= exact <= Fraction(res.upper), (lam, zeta)

    def test_phi_ends_bracket_the_exactly_scaled_long_double_ends(self, monkeypatch):
        # |a0| = lam^n is formed in double; the float ends must hold lam^n
        # times the long-double ends, in exact arithmetic
        ends = []
        scaled = wiener_opt._scaled_bracket

        def recorded(value, lower, upper, *args):
            ends.append((lower, upper))
            return scaled(value, lower, upper, *args)

        monkeypatch.setattr(wiener_opt, "_scaled_bracket", recorded)
        for lam in np.random.default_rng(3).uniform(0.2, 0.8, 40).tolist():
            for n in (3, 5, 7, 9, 12, 17, 24):
                res = phi_exact_truncated(SpectrumSpec.single(lam, n))
                lower, upper = (Fraction(lam) ** n * Fraction(*e.as_integer_ratio())
                                for e in ends.pop())
                assert Fraction(res.lower) <= lower and upper <= Fraction(res.upper), (lam, n)

    @pytest.mark.parametrize("points, D", [([(0.5, 64)], 400), ([(0.9, 24)], 1200),
                                           ([(0.3, 3), (-0.7, 5), (0.6, 4)], 300)])
    def test_row_error_bound_holds_at_60_digits(self, points, D):
        # the rows recomputed by the plain first-order recurrences at 60
        # digits; the bound is rigorous and within 1e4 of the true error
        import mpmath as mp

        mus = [lam.real for lam in SpectrumSpec(points).expanded()]
        rows = _malmquist_walsh_rows(mus, D)
        bound = _row_error_bound(mus, D)
        err = []
        with mp.workdps(60):
            prefix = [mp.mpf(1)] + [mp.mpf(0)] * D
            for j, mu in enumerate(mus):
                mu = mp.mpf(mu)
                row, acc = [], mp.mpf(0)
                for p in prefix:
                    acc = mu * acc + p
                    row.append(acc * mp.sqrt(1 - mu * mu))
                err.append(float(mp.sqrt(mp.fsum(
                    (mp.mpf(float(r)) + mp.mpf(float(r - LD(float(r)))) - e) ** 2
                    for r, e in zip(rows[j], row)))))
                shifted = [-mu * p + q for p, q in zip(prefix, [0] + prefix[:-1])]
                acc, prefix = mp.mpf(0), []
                for c in shifted:
                    acc = mu * acc + c
                    prefix.append(acc)
        err = np.array(err)
        assert np.all(err <= bound)
        assert np.max(bound) <= 1e4 * np.max(err)
