import time

import numpy as np
import pytest

from schaeffer import simplex
from schaeffer.simplex import (LD, SimplexError, _basis_lu, _lu_solve, dense_simplex,
                               min_l1_solution)
from schaeffer.modelspace import _malmquist_walsh_rows
from schaeffer.spectra import SpectrumSpec
from schaeffer.wiener_opt import (_certified_interpolate, _malmquist_walsh_resolvent_rhs,
                                  _start_degree, phi_exact_truncated)


def test_small_equality_lp():
    # min |x1| + |x2| s.t. x1 + 2 x2 = 3  ->  x = (0, 1.5)
    x, val, _, _ = dense_simplex(np.array([[1.0, 2.0]]), np.array([3.0]))
    assert val == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(np.asarray(x, dtype=float), [0.0, 1.5], atol=1e-12)


def test_infeasible_detected():
    # x = 1 and x = 2 at once; the crash keeps the second row's artificial,
    # which starts at +1 or at -1
    A = np.array([[1.0], [1.0]])
    for rhs in ([1.0, 2.0], [2.0, 1.0]):
        with pytest.raises(SimplexError, match="infeasible: row 1"):
            dense_simplex(A, np.array(rhs))


def test_infeasibility_is_relative_to_each_row():
    # x1 + x2 = 1e-15 and x1 + x2 = 2e-15 at once: the second row would be
    # missed by half its size, far under any absolute tolerance
    with pytest.raises(SimplexError, match="infeasible"):
        dense_simplex(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1e-15, 2e-15]))


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


def test_stall_raises_at_once():
    # a phase-2 tableau whose one improving column, +R_1 at reduced cost -4,
    # has B^{-1} R_1 = (5, -1e12): its positive entry is under 1e-11 of the
    # column, so it has no acceptable pivot, and the tableau re-formed from
    # the basis is the same; without a pivot the tableau cannot change, so
    # the phase ends here instead of cycling to the iteration limit
    R = np.array([[1.0, 5.0], [0.0, -1e12]], dtype=LD)
    b = np.array([1.0, 0.0], dtype=LD)
    basis = np.array([0, 5])  # +R_0, and the second row's artificial at 0
    T = simplex._tableau(R, b, basis, 2)
    t0 = time.perf_counter()
    with pytest.raises(SimplexError, match="stalled: 1 column"):
        simplex._run(T, R, b, basis, 2, 0)
    assert time.perf_counter() - t0 < 0.5


def test_once_stalled_program_certifies():
    # lambda = 0.97, n = 32 posed on 256 columns stalled from the
    # all-artificial start; from the crash start it solves, and the degree
    # the dual asks for certifies the value phi_exact_truncated prints
    spec = SpectrumSpec.single(0.97, 32)
    value, _, _, _, certified = _certified_interpolate(spec, 0j, 255)
    assert certified
    assert format(float(LD(abs(spec.eigen_product())) * value), ".17g") == "3.0466231208942358"


def _count_runs(monkeypatch):
    """(phase, passes, pivots) of every simplex._run from now on."""
    runs = []
    run = simplex._run

    def counted(T, R, b, basis, phase, total):
        passes, pivots = run(T, R, b, basis, phase, total)
        runs.append((phase, passes, pivots))
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
    # 94 pivots from the crash start, and the crash keeps no artificial, so
    # phase 1 never runs (821 pivots, 732 of them in phase 1, from the
    # all-artificial start), counted without the passes that block a
    # column or close a phase
    pivots = _count_pivots(monkeypatch)
    runs = _count_runs(monkeypatch)
    for n in (8, 16, 24, 32, 48, 64):
        phi_exact_truncated(SpectrumSpec.single(0.5, n))
    assert len(pivots) == 6
    assert sum(pivots) == 94
    assert [phase for phase, _, _ in runs] == [2] * 6


def test_crash_start_takes_few_pricing_passes(monkeypatch):
    # lambda = 0.66, n = 64, zeta = 0.9 from degree 511: 2932 pricing passes
    # from the all-artificial start, 2826 of them in phase 1
    runs = _count_runs(monkeypatch)
    *_, certified = _certified_interpolate(SpectrumSpec.single(0.66, 64), 0.9 + 0j, 511)
    assert certified
    assert sum(passes for phase, passes, _ in runs if phase == 2) < 100


def test_crash_keeps_the_artificial_of_a_dependent_row():
    # the third row repeats the first: the crash keeps its artificial, and
    # the optimum is the hand value, x = (0, 17/11, -2/11), and HiGHS's
    rows = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0], [1.0, 2.0, 0.5]])
    rhs = np.array([3.0, 1.0, 3.0])
    _, basis, _ = simplex._crash(rows.astype(LD), rhs.astype(LD))
    assert list(basis >= 6) == [False, False, True]
    val, x, y = min_l1_solution(rows, rhs)
    assert float(val) == pytest.approx(19 / 11, rel=1e-15)
    assert np.allclose(np.asarray(x, dtype=float), [0, 17 / 11, -2 / 11], atol=1e-15)
    assert float(y @ rhs) == pytest.approx(19 / 11, rel=1e-15)
    pytest.importorskip("scipy")
    assert float(val) == pytest.approx(_linprog_l1(rows, rhs), rel=1e-12)


# seeds of _random_program with two rows or more, and the c that makes the
# last row c times the first, the rhs scaled to match
_DEPENDENT = list(zip([seed for seed in range(40) if len(_random_program(seed)[1]) >= 2][:12],
                      [1, -2.5, 0.3] * 4))


@pytest.mark.parametrize("seed, c", _DEPENDENT)
def test_dependent_row_matches_linprog(monkeypatch, seed, c):
    # the crash keeps the one artificial of the dependent row, so phase 1
    # runs; it stays basic, at 0 up to rounding, and the optimum is HiGHS's
    pytest.importorskip("scipy")
    rows, rhs = _random_program(seed)
    rows[-1], rhs[-1] = c * rows[0], c * rhs[0]
    scale = np.max(np.abs(rows), axis=1)
    _, basis, _ = simplex._crash((rows / scale[:, None]).astype(LD), (rhs / scale).astype(LD))
    assert np.count_nonzero(basis >= 2 * rows.shape[1]) == 1
    runs = _count_runs(monkeypatch)
    val, x, y = min_l1_solution(rows, rhs)
    assert [phase for phase, _, _ in runs] == [1, 2]
    assert float(val) == pytest.approx(_linprog_l1(rows, rhs), rel=1e-12)
    assert np.max(np.abs(y @ rows)) <= 1 + 1e-15
    assert float(y @ rhs) == pytest.approx(float(val), rel=1e-15)


# the second row is the first but for 1e-10 x_3: the crash keeps its
# artificial, at 1 - 2 = -1
_NEAR_DEPENDENT = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1e-10]]), np.array([2.0, 1.0])


def test_kept_artificial_starts_nonnegative():
    # the kept artificial's row is negated instead, and phase 1 drives it
    # out at x = (2, 0, -1e10), not at a negative "optimum"
    rows, rhs = _NEAR_DEPENDENT
    _, basis, sgn = simplex._crash(rows.astype(LD), rhs.astype(LD))
    assert list(basis) == [0, 7] and list(sgn) == [1, -1]
    x, val, _, y = dense_simplex(rows, rhs)
    assert np.allclose(np.asarray(x, dtype=float), [2, 0, -1e10], rtol=1e-15, atol=0)
    assert float(val) == pytest.approx(2 + 1e10, rel=1e-15)
    assert float(y @ rhs) == pytest.approx(float(val), rel=1e-15)


def _reformed(R, b, basis, phase):
    """The phase's tableau B^{-1} [R, b] re-formed from its basis by the
    long-double LU, independently of the float64 solve of simplex._tableau,
    under the objective row of simplex._price."""
    X = _lu_solve(*_basis_lu(R, basis), np.hstack([R, b[:, None]]))
    T = np.vstack([X, np.zeros(X.shape[1], dtype=LD)]).astype(float)
    simplex._price(T, basis, phase)
    return T


@pytest.mark.parametrize("program", [_random_program(seed) for seed in range(4)] + [_NEAR_DEPENDENT])
def test_crash_tableau_is_the_reformed_one(program):
    # the float64 solve of the crash start agrees with the long-double LU
    # that re-forms a phase-1 tableau from its basis, on the signed rows
    R, b = (np.asarray(a, dtype=LD) for a in program)
    T, basis, sgn = simplex._crash(R, b)
    R, b = R * sgn[:, None], b * sgn
    assert T.shape == (R.shape[0] + 1, R.shape[1] + 1)
    assert np.all(T[:-1, -1] >= 0)
    assert np.max(np.abs(_reformed(R, b, basis, 1) - T)) <= 1e-12


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


@pytest.mark.parametrize("phase", [1, 2])
def test_reformed_tableau_matches_the_running_one(monkeypatch, phase):
    # stopped after 8 pivots of the phase, the float64 tableau agrees with
    # the one re-formed from its basis by the long-double LU
    rng = np.random.default_rng(3)
    R = rng.standard_normal((12, 40)).astype(LD)
    b = np.abs(rng.standard_normal(12)).astype(LD)
    basis = np.arange(80, 92)  # the artificials
    T = _reformed(R, b, basis, 1)
    if phase == 2:
        simplex._run(T, R, b, basis, 1, 0)
        T = _reformed(R, b, basis, 2)
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 8)
    with pytest.raises(SimplexError, match="iteration limit"):
        simplex._run(T, R, b, basis, phase, 0)
    assert np.max(np.abs(_reformed(R, b, basis, phase) - T)) <= 1e-12


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
    # every value to 17 digits, certified, and 508 pivots in all
    pivots = _count_pivots(monkeypatch)
    for lam, values in _PHI_GRID.items():
        for n, value in zip((8, 16, 32, 64), values):
            result = phi_exact_truncated(SpectrumSpec.single(lam, n))
            assert (format(result.value, ".17g"), result.converged) == (value, True), (lam, n)
    assert sum(pivots) == 508


def test_phi_at_n_256_is_pinned(monkeypatch):
    pivots = _count_pivots(monkeypatch)
    result = phi_exact_truncated(SpectrumSpec.single(0.5, 256))
    assert (format(result.value, ".17g"), result.converged) == ("15.180600281935991", True)
    assert pivots == [145]
