"""Finite spectra in the closed unit disk, with multiplicities.

A spectrum is the multiset of zeros of a monic polynomial m; the associated
finite Blaschke product B = prod_i b_{lambda_i}^{mult_i} has numerator m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class SpectrumSpec:
    """Multiset of eigenvalues: list of (lambda, multiplicity) pairs."""

    points: tuple

    def __init__(self, points):
        pts = []
        for lam, mult in points:
            lam = complex(lam)
            mult = int(mult)
            if not abs(lam) <= 1:  # a nan eigenvalue fails too
                raise DomainError(f"eigenvalue {lam} outside the closed unit disk")
            if mult < 1:
                raise DomainError("multiplicity must be a positive integer")
            pts.append((lam, mult))
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def single(cls, lam, mult=1) -> "SpectrumSpec":
        return cls([(lam, mult)])

    @property
    def degree(self) -> int:
        """Total degree |m| = sum of multiplicities."""
        return sum(m for _, m in self.points)

    @property
    def is_real(self) -> bool:
        return all(abs(l.imag) == 0 for l, _ in self.points)

    @property
    def is_strict_interior(self) -> bool:
        return all(abs(l) < 1 for l, _ in self.points)

    def expanded(self):
        """Eigenvalues listed with multiplicity, in declaration order."""
        return [lam for lam, mult in self.points for _ in range(mult)]

    def eigen_product(self) -> complex:
        p = 1.0 + 0j
        for lam, mult in self.points:
            p *= lam ** mult
        return p

    def require_nonzero(self):
        if any(l == 0 for l, _ in self.points):
            raise DomainError("spectrum contains 0; operation needs invertibility")

    def require_interior(self):
        if not self.is_strict_interior:
            raise DomainError("spectrum must lie strictly inside the unit disk")
