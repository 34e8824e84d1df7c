"""The explicit Toeplitz counterexample matrix and model-space utilities.

``build_toeplitz`` writes down the lower-triangular Toeplitz matrix with
diagonal lambda, first subdiagonal 1 - lambda^2 and d-th subdiagonal
(-conj(lambda))^(d-1) (1 - lambda^2); it is the compression of
multiplication-by-z to the model space spanned by the Malmquist-Walsh
basis of a singleton spectrum, which ``model_matrix`` reproduces by
circle-quadrature inner products for any finite spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .spectra import SpectrumSpec

GRAM_TOL = 1e-10
_MAX_QUAD_NODES = 1 << 16


@dataclass(frozen=True)
class ToeplitzMatrix:
    entries: np.ndarray
    lam: complex
    n: int

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))


def build_toeplitz(lam: complex, n: int) -> ToeplitzMatrix:
    """Lower-triangular Toeplitz counterexample of dimension n for eigenvalue
    lambda; det = lambda^n by triangularity."""
    lam = complex(lam)
    if lam == 0 or abs(lam) >= 1:
        raise DomainError("lambda must satisfy 0 < |lambda| < 1")
    if n < 1:
        raise DomainError("dimension n must be >= 1")
    T = np.zeros((n, n), dtype=complex)
    w = 1 - lam ** 2
    for d in range(n):
        if d == 0:
            value = lam
        elif d == 1:
            value = w
        else:
            value = (-np.conj(lam)) ** (d - 1) * w
        for i in range(n - d):
            T[i + d, i] = value
    return ToeplitzMatrix(T, lam, n)


@dataclass(frozen=True)
class MalmquistWalshBasis:
    """Orthonormal rational basis e_j built from ordered Blaschke prefixes:
    e_j(z) = sqrt(1-|lambda_j|^2)/(1 - conj(lambda_j) z) * prod_{i<j} b_{lambda_i}(z)."""

    lambdas: tuple

    def evaluate(self, j: int, z: np.ndarray) -> np.ndarray:
        """Values of e_j (1-based index) on the given points."""
        if not 1 <= j <= len(self.lambdas):
            raise DomainError("basis index out of range")
        lam_j = self.lambdas[j - 1]
        out = np.sqrt(1 - abs(lam_j) ** 2) / (1 - np.conj(lam_j) * z)
        for lam_i in self.lambdas[: j - 1]:
            out = out * (z - lam_i) / (1 - np.conj(lam_i) * z)
        return out


def model_matrix(spec: SpectrumSpec) -> np.ndarray:
    """Matrix of the multiplication-by-z compression in the Malmquist-Walsh
    basis: entries M[i, j] = <z e_{j+1}, e_{i+1}> by trapezoidal circle
    quadrature (spectrally accurate for these rational integrands), node
    count doubled until the Gram residual passes GRAM_TOL.  The basis is
    evaluated once per node count, for both the Gram test and M."""
    spec.require_interior()
    basis = MalmquistWalshBasis(tuple(spec.expanded()))
    m = len(basis.lambdas)
    nodes = 2048
    while True:
        z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        E = np.vstack([basis.evaluate(j, z) for j in range(1, m + 1)])
        if np.max(np.abs(E @ E.conj().T / nodes - np.eye(m))) < GRAM_TOL:
            return np.einsum("jk,ik->ij", z * E, E.conj()) / nodes
        nodes *= 2
        if nodes > _MAX_QUAD_NODES:
            raise ConsistencyError("Gram matrix did not reach identity; basis bug")


def minimal_poly_check(T: ToeplitzMatrix):
    """Verify (T - lambda I)^n = 0 while (T - lambda I)^(n-1) != 0.

    The vanishing power is detected by the relative drop
    ||N^p||_F <= 1e-8 ||N^(p-1)||_F ||N||_F, which one extra factor of a
    nonzero nilpotent matrix can never produce.  Returns (degree, residual)
    with residual the scaled drop at the detected degree.
    """
    N = T.entries - T.lam * np.eye(T.n)
    norm1 = float(np.linalg.norm(N))
    if norm1 == 0:
        return (1, 0.0)
    P = np.eye(T.n, dtype=complex)
    prev = math.sqrt(T.n)
    for p in range(1, T.n + 1):
        P = P @ N
        cur = float(np.linalg.norm(P))
        drop = cur / (prev * norm1)
        if drop <= 1e-8:
            if p < T.n:
                raise ConsistencyError(f"nilpotency index {p} below the matrix dimension {T.n}")
            return p, drop
        prev = cur
    raise ConsistencyError("(T - lambda I)^n does not vanish; construction bug")
