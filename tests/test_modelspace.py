import numpy as np
import pytest

from schaeffer.errors import ConsistencyError, DomainError
from schaeffer.modelspace import (
    MalmquistWalshBasis,
    build_toeplitz,
    minimal_poly_check,
    model_matrix,
)
from schaeffer.spectra import SpectrumSpec


class TestBuildToeplitz:
    def test_two_by_two(self):
        T = build_toeplitz(0.5, 2).entries
        assert np.allclose(T, [[0.5, 0.0], [0.75, 0.5]], atol=0)

    def test_third_row(self):
        T = build_toeplitz(0.5, 3).entries
        assert np.allclose(T[2], [-0.375, 0.75, 0.5], atol=0)

    def test_determinant_triangular(self):
        T = build_toeplitz(0.5, 4).entries
        assert np.prod(np.diag(T)) == 0.5 ** 4 == 0.0625

    def test_structure_exact(self):
        T = build_toeplitz(0.7, 8).entries
        assert np.all(np.triu(T, 1) == 0)
        for d in range(8):
            diag = np.diag(T, -d)
            assert np.all(diag == diag[0])

    def test_spectrum_is_diagonal(self):
        T = build_toeplitz(0.6, 6).entries
        eig = np.linalg.eigvals(T)
        assert np.allclose(eig, 0.6, atol=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_toeplitz(0.0, 3)
        with pytest.raises(DomainError):
            build_toeplitz(1.1, 3)


def _quad_inner(f, g, nodes=4096):
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return np.mean(f(z) * np.conj(g(z)))


def _basis(spec):
    return MalmquistWalshBasis(tuple(spec.expanded()))


class TestMalmquistWalsh:
    def test_single_point_formula(self):
        basis = _basis(SpectrumSpec.single(0.5, 1))
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        expect = np.sqrt(0.75) / (1 - 0.5 * z)
        assert np.max(np.abs(basis.evaluate(1, z) - expect)) < 1e-13

    def test_orthogonality_multiplicity_two(self):
        basis = _basis(SpectrumSpec.single(0.5, 2))
        ip = _quad_inner(lambda z: basis.evaluate(1, z), lambda z: basis.evaluate(2, z))
        assert abs(ip) < 1e-10

    def test_normalization_two_distinct_points(self):
        basis = _basis(SpectrumSpec([(0.3, 1), (0.6, 1)]))
        nrm = _quad_inner(lambda z: basis.evaluate(2, z), lambda z: basis.evaluate(2, z))
        assert abs(nrm - 1) < 1e-10

    def test_gram_identity(self):
        basis = _basis(SpectrumSpec([(0.2, 2), (0.5, 1), (-0.4, 1)]))
        z = np.exp(2j * np.pi * np.arange(4096) / 4096)
        E = np.vstack([basis.evaluate(j, z) for j in range(1, 5)])
        G = E @ E.conj().T / 4096
        assert np.max(np.abs(G - np.eye(4))) < 1e-10

    def test_boundary_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            model_matrix(SpectrumSpec.single(1.0, 1))


class TestModelMatrix:
    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_singleton_reproduces_toeplitz(self, lam, n):
        M = model_matrix(SpectrumSpec.single(lam, n))
        T = build_toeplitz(lam, n).entries
        assert np.max(np.abs(M - T)) < 1e-10

    def test_one_by_one_is_eigenvalue(self):
        M = model_matrix(SpectrumSpec.single(0.5, 1))
        assert abs(M[0, 0] - 0.5) < 1e-12

    def test_two_point_spectrum_eigenvalues(self):
        M = model_matrix(SpectrumSpec([(0.3, 1), (0.6, 1)]))
        eig = sorted(np.linalg.eigvals(M).real)
        assert np.allclose(eig, [0.3, 0.6], atol=1e-8)


class TestMinimalPoly:
    def test_mismatched_eigenvalue_detected(self):
        from schaeffer.modelspace import ToeplitzMatrix
        T = build_toeplitz(0.5, 4)
        broken = ToeplitzMatrix(T.entries, 0.4, 4)  # wrong diagonal claim
        with pytest.raises(ConsistencyError):
            minimal_poly_check(broken)

    def test_degree_two(self):
        deg, resid = minimal_poly_check(build_toeplitz(0.5, 2))
        assert deg == 2 and resid == 0.0

    @pytest.mark.parametrize("lam,n", [(0.5, 6), (0.9, 3), (0.5, 32)])
    def test_degree_matches_dimension(self, lam, n):
        deg, resid = minimal_poly_check(build_toeplitz(lam, n))
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
        T = build_toeplitz(0.5, 1).entries
        assert np.allclose(np.linalg.det(T) * np.linalg.inv(T), [[1.0]], atol=1e-15)
        assert np.allclose(_det_times_inverse(0.5, 1), [[1.0]], atol=0)

    def test_two_by_two_hand_inverse(self):
        T = build_toeplitz(0.5, 2).entries
        hand = [[0.5, 0.0], [-0.75, 0.5]]
        assert np.allclose(np.linalg.det(T) * np.linalg.inv(T), hand, atol=1e-14)
        assert np.allclose(_det_times_inverse(0.5, 2), hand, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_defining_identity(self, n):
        T = build_toeplitz(0.5, n)
        resid = T.entries @ _det_times_inverse(0.5, n) - 0.5 ** n * np.eye(n)
        # lambda = 1/2 is dyadic, so both factors are exact in double
        assert np.max(np.abs(resid)) <= 1e-13 * 0.5 ** n
