import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schaeffer import simplex
from schaeffer.simplex import LD, SimplexError, dense_simplex, min_l1_solution
from schaeffer.modelspace import _malmquist_walsh_rows
from schaeffer.spectra import SpectrumSpec
from schaeffer.wiener_opt import (_certified_interpolate, _malmquist_walsh_resolvent_rhs,
                                  _start_degree, phi_exact_truncated)


def test_small_equality_lp():
    # min |x1| + |x2| s.t. x1 + 2 x2 = 3  ->  x = (0, 1.5)
    x, val, _, _ = dense_simplex(np.array([[1.0, 2.0]]), np.array([3.0]))
    assert val == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(np.asarray(x, dtype=float), [0.0, 1.5], atol=1e-12)


def test_min_l1_single_row():
    # cheapest way to satisfy  x1 + 0.5 x2 = 1  in l1 is all mass on x1
    val, x, _ = min_l1_solution(np.array([[1.0, 0.5]]), np.array([1.0]))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert float(x[0]) == pytest.approx(1.0, abs=1e-12)


def test_min_l1_prefers_large_coefficient_column():
    # row [0.5, 0.25, 1.0]: optimal support on the unit-entry column
    val, x, _ = min_l1_solution(np.array([[0.5, 0.25, 1.0]]), np.array([2.0]))
    assert val == pytest.approx(2.0, abs=1e-12)
    assert float(x[2]) == pytest.approx(2.0, abs=1e-12)


def test_negative_rhs_handled():
    val, x, _ = min_l1_solution(np.array([[1.0, 0.5]]), np.array([-1.0]))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert float(x[0]) == pytest.approx(-1.0, abs=1e-12)


def test_two_constraints_basic_solution():
    # constraints force both coordinates
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    val, x, _ = min_l1_solution(rows, np.array([2.0, -3.0]))
    assert val == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(np.asarray(x, dtype=float), [2.0, -3.0], atol=1e-12)


def test_dual_certifies_optimum():
    # the dual y is feasible (|y @ rows| <= 1 on every column) and attains
    # the optimum, with the row equilibration and the sign flip undone
    rows = np.array([[2.0, 1.0, 0.5], [0.0, 4.0, -1.0]])
    rhs = np.array([-3.0, 2.0])
    val, x, y = min_l1_solution(rows, rhs)
    assert np.max(np.abs(y @ rows)) <= 1 + 1e-15
    assert float(y @ rhs) == pytest.approx(float(val), rel=1e-15)
    assert np.allclose(np.asarray(rows @ x, dtype=float), rhs, atol=1e-15)


def _random_program(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m, 13))
    return rng.standard_normal((m, n)), rng.standard_normal(m)


def _linprog_l1(rows, rhs):
    """min ||x||_1 s.t. rows @ x = rhs by HiGHS, over x = u - v, u, v >= 0."""
    from scipy.optimize import linprog

    n = rows.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([rows, -rows]), b_eq=rhs,
                  bounds=[(0, None)] * (2 * n), method="highs-ds")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("seed", range(12))
def test_matches_linprog_on_random_programs(seed):
    pytest.importorskip("scipy")
    rows, rhs = _random_program(seed)
    val, x, y = min_l1_solution(rows, rhs)
    assert float(val) == pytest.approx(_linprog_l1(rows, rhs), rel=1e-12)
    assert float(np.sum(np.abs(x))) == pytest.approx(float(val), rel=1e-15)
    assert np.max(np.abs(y @ rows)) <= 1 + 1e-15
    assert float(y @ rhs) == pytest.approx(float(val), rel=1e-15)


def test_bland_rule_from_the_first_pivot_reaches_the_same_optimum(monkeypatch):
    # lowest index both to enter and to leave: finite (Bland 1977), and the
    # same optimal value as Dantzig pricing
    programs = [_random_program(seed) for seed in range(4)]
    dantzig = [float(min_l1_solution(rows, rhs)[0]) for rows, rhs in programs]
    phi = phi_exact_truncated(SpectrumSpec.single(0.5, 16)).value
    monkeypatch.setattr(simplex, "_BLAND_AFTER", 0)
    for (rows, rhs), ref in zip(programs, dantzig):
        assert float(min_l1_solution(rows, rhs)[0]) == pytest.approx(ref, rel=1e-13)
    assert phi_exact_truncated(SpectrumSpec.single(0.5, 16)).value == pytest.approx(phi, rel=1e-13)


def _drifted():
    """(T, R, b, basis): the tableau of the basis (+R_0, +R_1) = I with its
    objective row drifted at column 2, so that +R_2 prices at -4; but
    B^{-1} R_2 = (5, -1e12) has its positive entry under 1e-11 of the
    column, so +R_2 has no acceptable pivot."""
    R = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, -1e12]], dtype=LD)
    b = np.array([1.0, 0.0], dtype=LD)
    basis = np.array([0, 1])
    T = simplex._tableau(R, b, basis)
    T[2, 2] = -5.0
    return T, R, b, basis


def test_drifted_tableau_is_reformed():
    # the drifted tableau's only improving column has no acceptable pivot,
    # so the run re-forms the tableau from its basis, which clears the
    # drift, and goes on to the optimum x = (1, 0, 0)
    T, R, b, basis = _drifted()
    simplex._run(T, R, b, basis)
    assert float(-T[2, -1]) == pytest.approx(1.0, rel=1e-15)


def test_once_stalled_program_certifies():
    # lambda = 0.97, n = 32 stalled from the all-artificial start; from its
    # coefficient support, degree 2133, it certifies.  Posed on 256 columns,
    # three of its Taylor rows depend on the others to _FEAS_TOL, and the
    # crash says so before any pivot
    spec = SpectrumSpec.single(0.97, 32)
    result = phi_exact_truncated(spec)
    assert (format(result.value, ".17g"), result.converged) == ("3.0466231208942358", True)
    mus = [lam.real for lam in spec.expanded()]
    with pytest.raises(SimplexError, match="depends on the rows before it"):
        min_l1_solution(_malmquist_walsh_rows(mus, 255), _malmquist_walsh_resolvent_rhs(mus, 0.0))


def _count_runs(monkeypatch):
    """(passes, pivots) of every simplex._run from now on."""
    runs = []
    run = simplex._run

    def counted(T, R, b, basis):
        passes, pivots = run(T, R, b, basis)
        runs.append((passes, pivots))
        return passes, pivots

    monkeypatch.setattr(simplex, "_run", counted)
    return runs


def _count_pivots(monkeypatch):
    """The pivots of every dense_simplex from now on."""
    pivots = []
    solve = simplex.dense_simplex

    def counted(R, b):
        result = solve(R, b)
        pivots.append(result[2])
        return result

    monkeypatch.setattr(simplex, "dense_simplex", counted)
    return pivots


def test_phi_lp_pivot_path(monkeypatch):
    # the six programs of `growth --lambda 0.5 --n 8,16,24,32,48,64` take
    # one run each and 94 pivots from the crash start (821 from the
    # all-artificial start of a two-phase simplex, 732 of them in its
    # phase 1), counted without the pass that ends the run
    pivots = _count_pivots(monkeypatch)
    runs = _count_runs(monkeypatch)
    for n in (8, 16, 24, 32, 48, 64):
        phi_exact_truncated(SpectrumSpec.single(0.5, n))
    assert len(pivots) == len(runs) == 6
    assert sum(pivots) == sum(p for _, p in runs) == 94


def test_crash_start_takes_few_pricing_passes(monkeypatch):
    # lambda = 0.66, n = 64, zeta = 0.9 from its coefficient support; from
    # degree 511 it took 2932 pricing passes from the all-artificial start
    # of a two-phase simplex, 2826 of them in its phase 1
    runs = _count_runs(monkeypatch)
    assert _certified_interpolate(SpectrumSpec.single(0.66, 64), 0.9 + 0j).converged
    assert sum(passes for passes, _ in runs) < 100


def _dependent(seed, c):
    """(program, row): _random_program(seed), two rows or more, with its
    last row c times its first and the rhs scaled to match."""
    rows, rhs = _random_program(seed)
    rows[-1], rhs[-1] = c * rows[0], c * rhs[0]
    return (rows, rhs), len(rhs) - 1


_SEEDS = [seed for seed in range(40) if len(_random_program(seed)[1]) >= 2][:12]

# (program, the row the crash finds dependent)
_DEPENDENT_ROWS = {
    # the third row repeats the first
    "hand": ((np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0], [1.0, 2.0, 0.5]]),
              np.array([3.0, 1.0, 3.0])), 2),
    **{f"dependent-{seed}-{c}": _dependent(seed, c)
       for seed, c in zip(_SEEDS, [1, -2.5, 0.3] * 4)},
    # the second row is the first but for 1e-10 x_3, under _FEAS_TOL of it
    "near-dependent": ((np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1e-10]]), np.array([2.0, 1.0])), 1),
    # x = 1 and x = 2 at once, in either order
    "inconsistent-1-2": ((np.array([[1.0], [1.0]]), np.array([1.0, 2.0])), 1),
    "inconsistent-2-1": ((np.array([[1.0], [1.0]]), np.array([2.0, 1.0])), 1),
    # x1 + x2 = 1e-15 and x1 + x2 = 2e-15: the test is on the rows alone
    "inconsistent-tiny": ((np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1e-15, 2e-15])), 1),
}


@pytest.mark.parametrize("program, row", _DEPENDENT_ROWS.values(), ids=_DEPENDENT_ROWS.keys())
def test_dependent_row_raises_before_any_pivot(monkeypatch, program, row):
    # the rows must have full rank: the crash finds the first row with no
    # entry left above _FEAS_TOL of its own sup norm, consistent or not
    runs = _count_runs(monkeypatch)
    with pytest.raises(SimplexError, match=f"^row {row} depends on the rows before it$"):
        min_l1_solution(*program)
    assert runs == []


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-0.95, 0.95), st.integers(1, 16)), min_size=1, max_size=4))
def test_crash_takes_a_column_for_every_row_at_the_start_degree(points):
    # a nonzero element of K_B is p(z)/prod(1 - mu_i z) with deg p < N, so
    # its first N Taylor coefficients cannot all vanish: the rows have full
    # rank once there are N columns, and the start degree, at least the
    # coefficient support ~N/alpha0, leaves the crash a column for every row
    spec = SpectrumSpec(points)
    rows = _malmquist_walsh_rows([lam.real for lam in spec.expanded()], _start_degree(spec))
    _, basis = simplex._crash(rows, np.ones(len(rows), dtype=LD))
    assert len(set(basis % rows.shape[1])) == len(rows)


def _ld_solve(B, rhs):
    """X with B X = rhs (one column per right-hand side), by long-double
    Gaussian elimination with partial pivoting on [B, rhs]."""
    m = len(B)
    A = np.hstack([np.asarray(B, dtype=LD), np.asarray(rhs, dtype=LD)])
    for k in range(m):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, p]] = A[[p, k]]
        A[k + 1:] -= A[k + 1:, k, None] / A[k, k] * A[k]
    X = A[:, m:]
    for k in reversed(range(m)):
        X[k] = (X[k] - A[k, k + 1:m] @ X[k + 1:]) / A[k, k]
    return X


def _reformed(R, b, basis):
    """The tableau B^{-1} [R, b] re-formed from its basis by a long-double
    elimination, independently of the float64 solve of simplex._tableau,
    under the objective row of simplex._price."""
    X = _ld_solve(simplex._basis_matrix(R, basis, LD), np.hstack([R, b[:, None]]))
    T = np.vstack([X, np.zeros(X.shape[1], dtype=LD)]).astype(float)
    simplex._price(T)
    return T


@pytest.mark.parametrize("program", [_random_program(seed) for seed in range(5)])
def test_crash_tableau_is_the_reformed_one(program):
    # the float64 solve of the crash start agrees with the long-double
    # elimination that re-forms a tableau from its basis, and every basic
    # value starts nonnegative
    R, b = (np.asarray(a, dtype=LD) for a in program)
    T, basis = simplex._crash(R, b)
    assert T.shape == (R.shape[0] + 1, R.shape[1] + 1)
    assert np.all(T[:-1, -1] >= 0)
    assert np.max(np.abs(_reformed(R, b, basis) - T)) <= 1e-12


@pytest.mark.parametrize("points, zeta", [([(0.5, 32)], 0.9), ([(0.9, 16)], 0.0),
                                          ([(0.3, 3), (-0.7, 5), (0.6, 4)], 0.0)])
def test_refined_vertex_and_dual_match_a_40_digit_solve(monkeypatch, points, zeta):
    # in the final basis B of every solve, x_B (B x_B = b) and y (y B = 1)
    # lie within 8 long-double eps, relative to their sup norm, of the same
    # systems solved at 40 digits from the same long-double data
    import mpmath as mp

    solves, solve, run = [], simplex.dense_simplex, simplex._run

    def recorded_run(T, R, b, basis):
        result = run(T, R, b, basis)
        solves.append([R, b, basis])  # the basis is final once the run returns
        return result

    def recorded(R, b):
        x, value, pivots, y = solve(R, b)
        solves[-1] += [x, y]
        return x, value, pivots, y

    monkeypatch.setattr(simplex, "_run", recorded_run)
    monkeypatch.setattr(simplex, "dense_simplex", recorded)
    spec = SpectrumSpec(points)
    assert _certified_interpolate(spec, complex(zeta)).converged
    assert solves
    eps = np.finfo(LD).eps
    with mp.workdps(40):
        def exact(a):  # the long-double entries as exact mpmath numbers, a list per row
            return [[mp.mpf(p) / q for p, q in map(LD.as_integer_ratio, row)]
                    for row in np.atleast_2d(a)]

        for R, b, basis, x, y in solves:
            n = R.shape[1]
            B = simplex._basis_matrix(R, basis, LD)
            xb = np.where(basis < n, x[basis % n], -x[basis % n])
            for got, M, rhs in ((xb, B, b), (y, B.T, np.ones(len(b), dtype=LD))):
                ref = mp.lu_solve(mp.matrix(exact(M)), mp.matrix(exact(rhs)[0]))
                err = max(abs(v - r) for v, r in zip(exact(got)[0], ref))
                assert err <= 8 * eps * max(abs(r) for r in ref)


def test_singular_basis_is_a_simplex_error():
    # LAPACK's LinAlgError on an exactly singular basis matrix surfaces as
    # the simplex's own error
    B = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=LD)
    with pytest.raises(SimplexError, match="^singular basis$"):
        simplex._refined_solve(B, np.ones(2, dtype=LD))


def test_dual_solved_from_the_basis():
    # lambda = 0.5, n = 128 from its coefficient support: on every basic
    # coefficient y prices its column at 1 in the sign it entered with (a
    # degenerate entry may solve to the other sign), no column above 1, and
    # y @ b is the optimum, all to the long-double rounding
    spec = SpectrumSpec.single(0.5, 128)
    mus = [lam.real for lam in spec.expanded()]
    rows = _malmquist_walsh_rows(mus, _start_degree(spec))
    rhs = _malmquist_walsh_resolvent_rhs(mus, 0.0)
    rhs = rhs / np.max(np.abs(rhs))
    val, x, y = min_l1_solution(rows, rhs)
    g = y @ rows
    assert np.max(np.abs(np.abs(g[x != 0]) - 1)) <= 1e-17
    assert np.max(np.abs(g)) <= 1 + LD(1e-17)
    assert abs(y @ rhs - val) <= 1e-17 * val


def test_reformed_tableau_matches_the_running_one(monkeypatch):
    # stopped after 8 pricing passes from the crash start, the float64
    # tableau agrees with the one re-formed from its basis by the
    # long-double elimination
    rng = np.random.default_rng(3)
    R = rng.standard_normal((12, 40)).astype(LD)
    b = rng.standard_normal(12).astype(LD)
    T, basis = simplex._crash(R, b)
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 8)
    with pytest.raises(SimplexError, match="iteration limit"):
        simplex._run(T, R, b, basis)
    assert np.max(np.abs(_reformed(R, b, basis) - T)) <= 1e-12


# phi at zeta 0 for lambda (rows) by n = 8, 16, 32, 64 (columns)
_PHI_GRID = {
    0.35: ["2.970850551061456", "3.9142203927346859", "5.2812682084946081", "7.25679077304342"],
    0.45: ["3.2969373880918615", "4.1876092098594322", "5.8449788741457569", "7.8008668925210731"],
    0.5: ["3.2406219860103134", "4.4302904747886718", "5.8536096849791344", "7.9015564360118127"],
    0.53: ["3.2927382691476179", "4.3513239864739024", "5.9269156554711406", "7.9840109690113161"],
    0.56: ["3.3888284180268853", "4.5809634109242054", "5.9242509276030209", "8.1707746358727658"],
    0.66: ["3.3306634410032463", "4.367782729006648", "5.921321836803858", "8.1803683225800672"],
    0.9: ["2.5384782536037442", "3.3720853657087497", "4.5444425356498401", "6.1292128981828133"],
}


def test_phi_grid_is_pinned(monkeypatch):
    # every value to 17 digits, certified, and 508 pivots in all; no
    # program drifts, so the crash forms the one tableau of each
    pivots = _count_pivots(monkeypatch)
    tableaus = []
    tableau = simplex._tableau

    def counted(R, b, basis):
        tableaus.append(len(basis))
        return tableau(R, b, basis)

    monkeypatch.setattr(simplex, "_tableau", counted)
    for lam, values in _PHI_GRID.items():
        for n, value in zip((8, 16, 32, 64), values):
            result = phi_exact_truncated(SpectrumSpec.single(lam, n))
            assert (format(result.value, ".17g"), result.converged) == (value, True), (lam, n)
    assert sum(pivots) == 508
    assert len(pivots) == len(tableaus) == 28


def test_phi_at_n_256_is_pinned(monkeypatch):
    pivots = _count_pivots(monkeypatch)
    result = phi_exact_truncated(SpectrumSpec.single(0.5, 256))
    assert (format(result.value, ".17g"), result.converged) == ("15.180600281935991", True)
    assert pivots == [145]
