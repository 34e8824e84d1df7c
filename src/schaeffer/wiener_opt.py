"""Truncated Wiener-quotient-norm optimization.

phi(lambda_1, ..., lambda_n) is the least l1 coefficient norm above the
pinned constant term over analytic functions h with h(0) = prod lambda_i
and an m_i-fold zero at each lambda_i; truncating h to degree D turns it
into a small linear program whose value decreases monotonically to phi as
D grows.  The same machinery evaluates quotient norms of polynomial data
and the resolvent interpolation norm inf{||f||_W : f matches the jet data
of 1/(zeta - z) on the spectrum}.

Exact mode (real spectra) solves the split-variable LP with the extended
precision simplex; jet feasibility of the reported solution is then
re-verified at 60 significant digits and folded into the converged flag.
Complex data falls back to an ADMM basis-pursuit iteration, flagged
non-certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blaschke
from .errors import DomainError, ModeError
from .simplex import LD, min_l1_solution
from .spectra import SpectrumSpec

DEFAULT_REL_TOL = 1e-3
DEFAULT_DEGREE_CAP = 4096
_JET_RESIDUAL_TOL = 1e-8


@dataclass
class TruncatedL1Problem:
    """A truncated l1 interpolation program: minimize the l1 norm of a
    degree-``degree`` coefficient vector subject to the jet constraints
    ``rows @ a = rhs``.  Real data is solved exactly by the extended
    precision simplex; complex data by ADMM (non-certified)."""

    degree: int
    rows: np.ndarray
    rhs: np.ndarray

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.rows) and not np.iscomplexobj(self.rhs)

    def solve(self):
        """Returns (value, coefficients)."""
        if self.is_real:
            return min_l1_solution(self.rows, self.rhs)
        x, v, _ = admm_basis_pursuit(self.rows, self.rhs)
        return v, x


@dataclass
class PhiResult:
    value: float
    degree_used: int
    converged: bool
    lower_bound: float
    schaeffer_upper: float
    method: str = "lp-exact"

    def to_json_dict(self, spec: SpectrumSpec) -> dict:
        return {
            "n": spec.degree,
            "lambdas": [[l.real, l.imag] for l, _ in spec.points],
            "multiplicities": [m for _, m in spec.points],
            "phi_truncated": self.value,
            "degree": self.degree_used,
            "converged": self.converged,
            "lower_bound": self.lower_bound,
            "schaeffer_upper": self.schaeffer_upper,
        }


def _jet_rows(points, D: int, k_start: int) -> np.ndarray:
    """Rows of the scaled jet map a -> h^{(d)}(lambda)/d! over coefficients
    a_k, k = k_start..D, one row per (lambda_i, d < mult_i); real spectra.

    Entry (d; k) is binom(k, d) lambda^(k-d), built by a cumulative-ratio
    recurrence in extended precision.
    """
    rows = []
    for lam, mult in points:
        if lam.imag != 0:
            raise ModeError("jet rows in exact mode need real eigenvalues")
        lam_ld = LD(lam.real)
        for d in range(mult):
            row = np.zeros(D + 1, dtype=LD)
            if d <= D:
                ks = np.arange(d, D + 1)
                ratios = np.ones(ks.size, dtype=LD)
                # binom(k+1,d)/binom(k,d) * lambda = (k+1)/(k+1-d) * lambda
                ratios[1:] = (ks[1:].astype(LD) / (ks[1:] - d).astype(LD)) * lam_ld
                row[d:] = np.cumprod(ratios)
            rows.append(row)
    return np.vstack(rows)[:, k_start:]


def _jet_rows_complex(points, D: int, k_start: int) -> np.ndarray:
    rows = []
    for lam, mult in points:
        for d in range(mult):
            row = np.zeros(D + 1, dtype=complex)
            if d <= D:
                ks = np.arange(d, D + 1)
                ratios = np.ones(ks.size, dtype=complex)
                ratios[1:] = (ks[1:] / (ks[1:] - d)) * lam
                row[d:] = np.cumprod(ratios)
            rows.append(row)
    return np.vstack(rows)[:, k_start:]


def _to_mpf(x):
    """Exact mpf from a longdouble via a two-double split."""
    import mpmath as mp

    hi = float(x)
    lo = float(x - LD(hi))
    return mp.mpf(hi) + mp.mpf(lo)


def _verify_jets(coeffs, points, rhs_of, k_start: int) -> float:
    """Max scaled jet residual of a reported solution, at 60 digits.

    Rows with a nonzero target are measured relative to that target: the
    pinned constant term sits many orders below the coefficient scale, and
    a solution that merely drops it would otherwise look feasible.
    Homogeneous rows are measured against the cancellation scale.
    """
    import mpmath as mp

    worst = 0.0
    with mp.workdps(60):
        a = [_to_mpf(c) for c in coeffs]
        for lam, mult in points:
            lm = mp.mpf(lam.real)
            for d in range(mult):
                acc = mp.mpf(0)
                abssum = mp.mpf(0)
                term = mp.mpf(1)
                for k in range(d, len(a) + k_start):
                    if k >= k_start:
                        contrib = term * a[k - k_start]
                        acc += contrib
                        abssum += abs(contrib)
                    term = term * lm * (k + 1) / (k + 1 - d)
                rhs = mp.mpf(rhs_of(lam, d))
                # a zero jet must come from genuine cancellation among the
                # solution's own terms, not from comparing against the much
                # larger row scale
                denom = abs(rhs) if rhs != 0 else max(abssum, mp.mpf(1e-300))
                worst = max(worst, float(abs(acc - rhs) / denom))
    return worst


def _converging_lp(solve_at, D0: int, cap: int, rel_tol: float):
    """Double D until the value moves less than rel_tol (relatively).
    solve_at(D) returns (value, payload).  Returns (value, payload, D, flag)."""
    D = D0
    val, payload = solve_at(D)
    converged = False
    while 2 * D <= cap:
        D *= 2
        new_val, new_payload = solve_at(D)
        moved = abs(val - new_val)
        val, payload = new_val, new_payload
        if moved <= rel_tol * max(1.0, abs(val)):
            converged = True
            break
    return val, payload, D, converged


def phi_exact_truncated(
    spec: SpectrumSpec,
    D: int | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    cap: int = DEFAULT_DEGREE_CAP,
    method: str = "exact",
) -> PhiResult:
    """Truncated phi: min over degree-D polynomials h of sum_{k>=1} |a_k|
    subject to h(0) = prod lambda_i and an m_i-fold zero at each lambda_i.
    Upper bound on phi, nonincreasing in D."""
    spec.require_nonzero()
    spec.require_interior()
    if method == "exact" and not spec.is_real:
        raise ModeError("exact LP mode needs a real spectrum; use method='subgradient'")
    mm = spec.degree
    a0 = spec.eigen_product()
    D0 = D if D is not None else max(8 * mm, 64)
    if D0 < mm + 1:
        raise DomainError(f"degree D={D0} below |m|+1={mm + 1}")

    def rhs_template(dtype):
        rhs = np.zeros(mm, dtype=dtype)
        r = 0
        for lam, mult in spec.points:
            rhs[r] = -a0.real if dtype is LD else -a0
            r += mult
        return rhs

    if method == "exact":
        def solve_at(deg):
            prob = TruncatedL1Problem(deg, _jet_rows(spec.points, deg, k_start=1),
                                      rhs_template(LD))
            return prob.solve()

        val, coeffs, degree, conv = _converging_lp(solve_at, D0, cap, rel_tol)
        resid = _verify_jets(
            coeffs, spec.points,
            rhs_of=lambda lam, d: -float(a0.real) if d == 0 else 0.0,
            k_start=1,
        )
        converged = conv and resid <= _JET_RESIDUAL_TOL
        meth = "lp-exact"
    elif method == "subgradient":
        def solve_at(deg):
            rows = _jet_rows_complex(spec.points, deg, k_start=1)
            _, v, ok = admm_basis_pursuit(rows, rhs_template(complex))
            return v, ok

        val, _, degree, _ = _converging_lp(solve_at, D0, cap, rel_tol)
        converged = False  # iterative path is never certified
        meth = "subgradient"
    else:
        raise ModeError(f"unknown method {method!r}")

    return PhiResult(
        value=float(val),
        degree_used=degree,
        converged=converged,
        lower_bound=phi_lower_bound(spec),
        schaeffer_upper=schaeffer_upper(mm),
        method=meth,
    )


def admm_basis_pursuit(A, b, tol: float = 1e-5, maxiter: int = 20000, rho: float = 1.0):
    """min ||x||_1 s.t. A x = b over complex x (scaled ADMM with modulus
    soft-thresholding).  Returns (x, value, converged); every iterate x is
    feasible via the pseudo-inverse projection."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    Ap = np.linalg.pinv(A)
    q = Ap @ b
    n = A.shape[1]
    P = np.eye(n, dtype=complex) - Ap @ A
    x = q.copy()
    z = x.copy()
    u = np.zeros(n, dtype=complex)
    kappa = 1.0 / rho
    ok = False
    for _ in range(maxiter):
        x = P @ (z - u) + q
        w = x + u
        mags = np.maximum(np.abs(w), 1e-300)
        z_new = w * np.maximum(1 - kappa / mags, 0.0)
        du = np.max(np.abs(z_new - z))
        z = z_new
        u = u + x - z
        if np.max(np.abs(x - z)) < tol and du < tol:
            ok = True
            break
    return x, float(np.sum(np.abs(x))), ok


def quotient_norm(
    f: blaschke.CoefficientSeries,
    spec: SpectrumSpec,
    D: int | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    cap: int = DEFAULT_DEGREE_CAP,
) -> float:
    """Truncated quotient norm of f modulo the spectrum's polynomial:
    min ||g||_l1 over degree-D polynomials matching the jets of f at the
    eigenvalues (upper bound on the true quotient norm, nonincreasing in D)."""
    spec.require_interior()
    mm = spec.degree
    D0 = D if D is not None else max(8 * mm, 64)
    if D0 < mm:
        raise DomainError(f"degree D={D0} below |m|={mm}")
    real_data = spec.is_real and bool(np.all(f.coeffs.imag == 0))

    if real_data:
        def solve_at(deg):
            prob = TruncatedL1Problem(deg, _jet_rows(spec.points, deg, k_start=0),
                                      _jet_values(f, spec, dtype=LD))
            return prob.solve()
    else:
        def solve_at(deg):
            rows = _jet_rows_complex(spec.points, deg, k_start=0)
            rhs = _jet_values(f, spec, dtype=complex)
            _, v, ok = admm_basis_pursuit(rows, rhs)
            return v, ok

    val, _, _, _ = _converging_lp(solve_at, D0, cap, rel_tol)
    return float(val)


def _jet_values(f: blaschke.CoefficientSeries, spec: SpectrumSpec, dtype) -> np.ndarray:
    """Scaled jets f^{(d)}(lambda)/d! from the stored coefficients of f."""
    out = []
    c = f.coeffs
    for lam, mult in spec.points:
        for d in range(mult):
            ks = np.arange(d, c.size)
            if ks.size == 0:
                out.append(0.0)
                continue
            if dtype is LD:
                ratios = np.ones(ks.size, dtype=LD)
                ratios[1:] = (ks[1:].astype(LD) / (ks[1:] - d).astype(LD)) * LD(lam.real)
                out.append(float(np.cumprod(ratios) @ c[d:].real.astype(LD)))
            else:
                ratios = np.ones(ks.size, dtype=complex)
                ratios[1:] = (ks[1:] / (ks[1:] - d)) * lam
                out.append(complex(np.cumprod(ratios) @ c[d:]))
    return np.array(out, dtype=dtype)


def remark5_lift(spec: SpectrumSpec) -> blaschke.CoefficientSeries:
    """Polynomial lift of 1/z over the spectrum: a(z) = (m(0) - m(z))/(z m(0))
    matches 1/lambda_i (with multiplicity) and has degree |m| - 1."""
    spec.require_nonzero()
    m = spec.minimal_poly()
    a = -m[1:] / m[0]
    return blaschke.CoefficientSeries(a, blaschke.SeriesOrigin.GENERAL)


def phi_lower_bound(spec: SpectrumSpec) -> float:
    """Coefficient-norm lower bound for phi:
    max(0, 1/||(1-z^2) B||_linfA - prod |lambda_i|) with B the full
    Blaschke product of the spectrum."""
    spec.require_interior()
    if len(spec.points) == 1:
        lam, mult = spec.points[0]
        p = blaschke.MoebiusParam(lam, mult)
        series = blaschke.weighted_coeffs(p, blaschke.default_coeff_count(p))
        norm = blaschke.linf_A_norm(series)
    else:
        norm = _product_weighted_linf(spec)
    prod = abs(spec.eigen_product())
    return max(0.0, 1.0 / norm - prod)


def _product_weighted_linf(spec: SpectrumSpec) -> float:
    """sup |coefficients of (1-z^2) prod_i b_{lambda_i}^{mult_i}| by FFT."""
    mm = spec.degree
    rmax = max(abs(l) for l, _ in spec.points)
    alpha0 = (1 - rmax) / (1 + rmax)
    K = int(np.ceil(mm / alpha0)) + 8 * int(np.ceil(mm ** (1 / 3))) + 2
    c = blaschke.circle_fft(spec.points, K, K + 1)
    return blaschke.weight_series(blaschke.CoefficientSeries(c)).linf


def schaeffer_upper(n: int) -> float:
    """sqrt(e n), the classical determinant-inverse upper bound."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return math.sqrt(math.e * n)


def resolvent_interpolation_norm(
    spec: SpectrumSpec,
    zeta: complex,
    D: int | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    cap: int = DEFAULT_DEGREE_CAP,
) -> float:
    """Truncated inf{||f||_W : f matches the jets of 1/(zeta - z) on the
    spectrum}.  The d-th scaled jet of 1/(zeta - z) at lambda is
    (zeta - lambda)^-(d+1).  Scaled by |B(zeta)| in the harness to exhibit
    resolvent growth."""
    spec.require_interior()
    zeta = complex(zeta)
    if any(abs(zeta - l) < 1e-14 for l in spec.expanded()):
        raise DomainError("zeta coincides with an eigenvalue")
    mm = spec.degree
    D0 = D if D is not None else max(8 * mm, 64)
    if D0 < mm:
        raise DomainError(f"degree D={D0} below |m|={mm}")

    if spec.is_real and zeta.imag == 0:
        def solve_at(deg):
            rhs = np.array(
                [
                    (LD(zeta.real) - LD(lam.real)) ** (-LD(d + 1))
                    for lam, mult in spec.points
                    for d in range(mult)
                ],
                dtype=LD,
            )
            prob = TruncatedL1Problem(deg, _jet_rows(spec.points, deg, k_start=0), rhs)
            return prob.solve()
    else:
        def solve_at(deg):
            rows = _jet_rows_complex(spec.points, deg, k_start=0)
            rhs = np.array(
                [
                    (zeta - lam) ** (-(d + 1))
                    for lam, mult in spec.points
                    for d in range(mult)
                ],
                dtype=complex,
            )
            _, v, ok = admm_basis_pursuit(rows, rhs)
            return v, ok

    val, _, _, _ = _converging_lp(solve_at, D0, cap, rel_tol)
    return float(val)
