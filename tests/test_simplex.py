import numpy as np
import pytest

from schaeffer.simplex import SimplexError, dense_simplex, min_l1_solution


def test_small_equality_lp():
    # min x1 + x2 s.t. x1 + 2 x2 = 3, x >= 0  ->  x = (0, 1.5)
    x, val, _, _ = dense_simplex(np.array([[1.0, 2.0]]), np.array([3.0]), np.array([1.0, 1.0]))
    assert val == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(np.asarray(x, dtype=float), [0.0, 1.5], atol=1e-12)


def test_infeasible_detected():
    A = np.array([[1.0], [1.0]])
    with pytest.raises(SimplexError):
        dense_simplex(A, np.array([1.0, 2.0]), np.array([1.0]))


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
