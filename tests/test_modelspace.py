import numpy as np
import pytest

from schaeffer import modelspace
from schaeffer.errors import ConsistencyError, DomainError
from schaeffer.modelspace import (
    _compressed_shift,
    _first_order_scan,
    _malmquist_walsh_rows,
    build_toeplitz,
    minimal_poly_check,
    model_matrix,
    row_table,
)
from schaeffer.simplex import LD
from schaeffer.spectra import SpectrumSpec


class TestBuildToeplitz:
    def test_two_by_two(self):
        T = build_toeplitz(0.5, 2)
        assert np.allclose(T, [[0.5, 0.0], [0.75, 0.5]], atol=0)

    def test_third_row(self):
        T = build_toeplitz(0.5, 3)
        assert np.allclose(T[2], [-0.375, 0.75, 0.5], atol=0)

    def test_determinant_triangular(self):
        T = build_toeplitz(0.5, 4)
        assert np.prod(np.diag(T)) == 0.5 ** 4 == 0.0625

    def test_structure_exact(self):
        T = build_toeplitz(0.7, 8)
        assert np.all(np.triu(T, 1) == 0)
        for d in range(8):
            diag = np.diag(T, -d)
            assert np.all(diag == diag[0])

    def test_spectrum_is_diagonal(self):
        T = build_toeplitz(0.6, 6)
        eig = np.linalg.eigvals(T)
        assert np.allclose(eig, 0.6, atol=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_toeplitz(0.0, 3)
        with pytest.raises(DomainError):
            build_toeplitz(1.1, 3)

    def test_non_real_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            build_toeplitz(0.3 + 0.2j, 3)


def _evaluate(lambdas, j, z):
    """e_j (1-based) at the points z from its product formula
    sqrt(1-|lambda_j|^2)/(1 - conj(lambda_j) z) prod_{i<j} b_{lambda_i}(z):
    the reference the Taylor rows are checked against."""
    lam_j = lambdas[j - 1]
    out = np.sqrt(1 - abs(lam_j) ** 2) / (1 - np.conj(lam_j) * z)
    for lam_i in lambdas[: j - 1]:
        out = out * (z - lam_i) / (1 - np.conj(lam_i) * z)
    return out


_NODES = 4096
_Z = np.exp(2j * np.pi * np.arange(_NODES) / _NODES)
_THREE_POINT = SpectrumSpec([(0.2, 2), (0.5, 1), (-0.4, 1)])
_SINGLETONS = [(lam, n) for lam in (0.2, 0.5, 0.8) for n in range(1, 9)]


def _circle_values(spec):
    """Every e_j on the circle nodes, one row per j."""
    lambdas = spec.expanded()
    return np.vstack([_evaluate(lambdas, j, _Z) for j in range(1, len(lambdas) + 1)])


def _rows(spec, D):
    return _malmquist_walsh_rows([lam.real for lam in spec.expanded()], D)


class TestMalmquistWalsh:
    @pytest.mark.parametrize("spec", [SpectrumSpec.single(lam, n) for lam, n in _SINGLETONS]
                             + [_THREE_POINT])
    def test_rows_match_circle_values(self, spec):
        # the FFT of the circle values gives the Taylor coefficients; at
        # 4096 nodes they alias below 0.8^4096
        D = 300
        reference = np.fft.fft(_circle_values(spec), axis=1)[:, :D + 1] / _NODES
        assert np.max(np.abs(_rows(spec, D).astype(float) - reference)) < 1e-13

    def test_single_point_formula(self):
        row = _rows(SpectrumSpec.single(0.5, 1), 80)[0].astype(float)
        z = _Z[::64]
        expect = np.sqrt(0.75) / (1 - 0.5 * z)
        assert np.max(np.abs(z[:, None] ** np.arange(81) @ row - expect)) < 1e-13

    def test_orthogonality_multiplicity_two(self):
        R = _rows(SpectrumSpec.single(0.5, 2), 200)
        assert abs(R[0] @ R[1]) < 1e-10

    def test_normalization_two_distinct_points(self):
        R = _rows(SpectrumSpec([(0.3, 1), (0.6, 1)]), 200)
        assert abs(R[1] @ R[1] - 1) < 1e-10

    def test_gram_identity(self):
        R = _rows(_THREE_POINT, 200)
        assert np.max(np.abs(R @ R.T - np.eye(4))) < 1e-10

    def test_boundary_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            model_matrix(SpectrumSpec.single(1.0, 1))

    def test_non_real_spectrum_rejected(self):
        with pytest.raises(DomainError):
            model_matrix(SpectrumSpec([(0.3 + 0.2j, 1), (0.5, 1)]))

    def test_perturbed_row_fails_the_gram_check(self, monkeypatch):
        rows = modelspace._malmquist_walsh_rows

        def perturbed(mus, D):
            R = rows(mus, D)
            R[1] *= 1 + LD(1e-6)
            return R

        monkeypatch.setattr(modelspace, "_malmquist_walsh_rows", perturbed)
        with pytest.raises(ConsistencyError):
            model_matrix(SpectrumSpec.single(0.5, 3))


def _per_row_rows(mus, D):
    """The rows one ``_first_order_scan`` per row at a time: the reference the
    2-D scan keeps bit for bit."""
    rows = np.empty((len(mus), D + 1), dtype=LD)
    prefix = np.zeros(D + 1, dtype=LD)
    prefix[0] = 1
    for j, mu in enumerate(mus):
        mu = LD(mu)
        rows[j] = np.sqrt(1 - mu * mu) * _first_order_scan(prefix, mu)
        shifted = -mu * prefix
        shifted[1:] += prefix[:-1]
        prefix = _first_order_scan(shifted, mu)
    return rows


def _same_bits(a, b):
    # == and the sign bits, not tobytes(): an x87 long double's padding
    # bytes are not part of its value
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# (mus, D): singletons near 0 and near 1, a multi-point spectrum with a
# signed zero, mu = 0 (no scan at all) and mu = 1e-3, whose w = mu^(2^s)
# underflows to 0 at shift 2048 while the rows of 0.5 scan on
_COVER = ([([lam] * 64, 300) for lam in (0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.99)]
          + [([0.2, 0.2, 0.5, -0.4, 0.0, -0.7, -0.0, 0.3, 0.3, 0.3], 200),
             ([0.0] * 6, 40),
             ([1e-3] * 5, 2048),
             ([1e-3, 0.5, 1e-3, 0.0, 0.5], 4200)])


class TestRowTable:
    @pytest.mark.parametrize("mus,D", _COVER)
    def test_rows_keep_the_per_row_bits(self, mus, D):
        assert _same_bits(_malmquist_walsh_rows(mus, D), _per_row_rows(mus, D))

    @pytest.mark.parametrize("mus,D", _COVER)
    def test_prefix_rows_are_the_leading_block(self, mus, D):
        full = _malmquist_walsh_rows(mus, D)
        for N in sorted({1, 2, len(mus) // 2, len(mus)}):
            for d in sorted({0, 1, min(63, D), D // 2, D}):
                assert _same_bits(_malmquist_walsh_rows(mus[:N], d), full[:N, :d + 1])

    @pytest.mark.parametrize("mus,D", _COVER)
    def test_scope_serves_the_same_bits(self, mus, D):
        requests = [(N, d) for N in sorted({1, 2, len(mus) // 2, len(mus)})
                    for d in sorted({0, min(63, D), D // 2, D})]
        outside = [_malmquist_walsh_rows(mus[:N], d) for N, d in requests]
        for order in (requests, requests[::-1]):
            with row_table():
                inside = {(N, d): _malmquist_walsh_rows(mus[:N], d) for N, d in order}
            for (N, d), rows in zip(requests, outside):
                assert _same_bits(inside[N, d], rows)
                assert inside[N, d].flags.c_contiguous

    def test_a_larger_request_replaces_the_table(self):
        with row_table():
            _malmquist_walsh_rows([0.5] * 8, 63)
            _malmquist_walsh_rows([0.5] * 4, 127)  # past the held degree
            _malmquist_walsh_rows([0.3, 0.5], 10)  # not a prefix
            held_mu, held_D, _ = modelspace._held
            assert held_mu.tolist() == [0.3, 0.5] and held_D == 10
            assert _same_bits(_malmquist_walsh_rows([0.3], 5), _per_row_rows([0.3], 5))
            # -0.0 and 0.0 give rows with different signed zeros
            _malmquist_walsh_rows([0.0, 0.5, 0.3], 20)
            assert not _same_bits(_per_row_rows([-0.0, 0.5], 20), _per_row_rows([0.0, 0.5], 20))
            assert _same_bits(_malmquist_walsh_rows([-0.0, 0.5], 20), _per_row_rows([-0.0, 0.5], 20))

    def test_mutated_rows_leave_the_table(self):
        mus = [0.5, 0.5, -0.3]
        with row_table():
            R = _malmquist_walsh_rows(mus, 80)
            R[1] *= 1 + LD(1e-6)
            block = _malmquist_walsh_rows(mus[:2], 40)
            block[:] = 0
            assert _same_bits(_malmquist_walsh_rows(mus, 80), _per_row_rows(mus, 80))
            assert _same_bits(_malmquist_walsh_rows(mus[:2], 40), _per_row_rows(mus[:2], 40))

    def test_nothing_is_kept_outside_a_scope(self):
        assert modelspace._held is None
        _malmquist_walsh_rows([0.5] * 4, 63)
        assert modelspace._held is None
        with pytest.raises(ZeroDivisionError):
            with row_table():
                with row_table():
                    _malmquist_walsh_rows([0.5] * 4, 63)
                    assert len(modelspace._held) == 3
                assert modelspace._held == []  # the outer scope is back, as it was
                _malmquist_walsh_rows([0.5] * 4, 63)
                1 / 0
        assert modelspace._held is None


class TestModelMatrix:
    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_singleton_reproduces_toeplitz(self, lam, n):
        M = model_matrix(SpectrumSpec.single(lam, n))
        T = build_toeplitz(lam, n)
        assert np.max(np.abs(M - T)) <= 1e-15

    def test_matches_circle_quadrature(self):
        # <z e_j, e_i> by the trapezoidal rule on the circle values
        E = _circle_values(_THREE_POINT)
        reference = E.conj() @ (_Z * E).T / _NODES
        assert np.max(np.abs(model_matrix(_THREE_POINT) - reference)) < 1e-13

    def test_one_by_one_is_eigenvalue(self):
        M = model_matrix(SpectrumSpec.single(0.5, 1))
        assert abs(M[0, 0] - 0.5) < 1e-12

    @pytest.mark.parametrize("spec", [SpectrumSpec.single(0.5, 64),
                                      SpectrumSpec([(0.3, 2), (-0.7, 3), (0.6, 1), (0.1, 1),
                                                    (-0.2, 2), (0.9, 1)])])
    def test_closed_form_matches_the_rows(self, spec):
        # the compressed shift in closed form against <z e_j, e_i> read off
        # the long-double Taylor rows
        M = _compressed_shift([lam.real for lam in spec.expanded()])
        assert np.max(np.abs(M - model_matrix(spec))) <= 1e-14

    def test_two_point_spectrum_eigenvalues(self):
        M = model_matrix(SpectrumSpec([(0.3, 1), (0.6, 1)]))
        eig = sorted(np.linalg.eigvals(M).real)
        assert np.allclose(eig, [0.3, 0.6], atol=1e-8)


class TestMinimalPoly:
    def test_mismatched_eigenvalue_detected(self):
        T = build_toeplitz(0.5, 4)
        with pytest.raises(ConsistencyError):
            minimal_poly_check(T, 0.4)  # wrong diagonal claim

    def test_degree_two(self):
        deg, resid = minimal_poly_check(build_toeplitz(0.5, 2), 0.5)
        assert deg == 2 and resid == 0.0

    @pytest.mark.parametrize("lam,n", [(0.5, 6), (0.9, 3), (0.5, 32)])
    def test_degree_matches_dimension(self, lam, n):
        deg, resid = minimal_poly_check(build_toeplitz(lam, n), lam)
        assert deg == n
        assert resid <= 1e-8


def _det_times_inverse(lam, n):
    """det(T) T^{-1} in closed form.  T is (lambda + z)/(1 + lambda z) at the
    n x n lower shift, so det(T) T^{-1} is lambda^n (1 + lambda z)/(lambda + z)
    at the shift: lower-triangular Toeplitz with diagonal lambda^(n-1) and
    d-th subdiagonal (-1)^(d-1) (lambda^2 - 1) lambda^(n-1-d)."""
    out = lam ** (n - 1) * np.eye(n)
    for d in range(1, n):
        out += (-1) ** (d - 1) * (lam ** 2 - 1) * lam ** (n - 1 - d) * np.eye(n, k=-d)
    return out


class TestDetTimesInverse:
    """build_toeplitz against the closed form of det(T) T^{-1}."""

    def test_scalar(self):
        T = build_toeplitz(0.5, 1)
        assert np.allclose(np.linalg.det(T) * np.linalg.inv(T), [[1.0]], atol=1e-15)
        assert np.allclose(_det_times_inverse(0.5, 1), [[1.0]], atol=0)

    def test_two_by_two_hand_inverse(self):
        T = build_toeplitz(0.5, 2)
        hand = [[0.5, 0.0], [-0.75, 0.5]]
        assert np.allclose(np.linalg.det(T) * np.linalg.inv(T), hand, atol=1e-14)
        assert np.allclose(_det_times_inverse(0.5, 2), hand, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_defining_identity(self, n):
        T = build_toeplitz(0.5, n)
        resid = T @ _det_times_inverse(0.5, n) - 0.5 ** n * np.eye(n)
        # lambda = 1/2 is dyadic, so both factors are exact in double
        assert np.max(np.abs(resid)) <= 1e-13 * 0.5 ** n
