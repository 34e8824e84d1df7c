"""The compressed shift of the model space and its Malmquist-Walsh basis.

``_compressed_shift`` is the compression of multiplication-by-z to the
model space K_B of a real spectrum, in closed form; for a singleton
spectrum it is the paper's Toeplitz counterexample (``build_toeplitz``, a
plain float64 array, which ``minimal_poly_check`` reads with its lambda).
``_malmquist_walsh_rows`` generates the basis as Taylor rows, and inside a
``row_table`` scope slices them from the one table it holds;
``model_matrix`` reads the compression off them, and ``wiener_opt`` poses
its l1 programs with them and bounds their tails by the shift.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ConsistencyError, DomainError
from .simplex import LD
from .spectra import SpectrumSpec

GRAM_TOL = 1e-10
_held = None  # inside ``row_table``: [] or [mu, D, rows], the one table held


def _compressed_shift(mus) -> np.ndarray:
    """M[i, j] = <z e_j, e_i> for the Malmquist-Walsh basis e_0..e_{N-1} of
    the real expanded spectrum mu_0..mu_{N-1}, in closed form and float64:
    M[i, i] = mu_i and, for i > j, M[i, j] = sqrt(w_i w_j) prod_{j<l<i}
    (-mu_l) with w = (1 - mu)(1 + mu) (Takenaka 1925, Malmquist 1926; Garcia,
    Mashreghi & Ross, *Introduction to Model Spaces and their Operators*,
    CUP 2016).  An entry errs by at most (N + 4) u relative, u = 2^-53, the
    diagonal not at all, and equal mu_i give equal subdiagonals bit for bit
    (sqrt(fl(w^2)) = w)."""
    mu = np.asarray(mus, dtype=float)
    w = (1 - mu) * (1 + mu)
    i, j = np.indices((mu.size, mu.size))
    product = np.cumprod(np.where(i > j + 1, -mu[i - 1], 1.0), axis=0)
    return np.where(i > j, np.sqrt(w[:, None] * w) * product, np.diag(mu))


def build_toeplitz(lam: float, n: int) -> np.ndarray:
    """Lower-triangular Toeplitz counterexample of dimension n for a real
    eigenvalue lambda, as a float64 array: the compressed shift of the
    singleton spectrum, diagonal lambda and d-th subdiagonal
    (-lambda)^(d-1) (1 - lambda^2); det = lambda^n by triangularity.  A
    non-real lambda is a DomainError."""
    lam = complex(lam)
    if lam.imag != 0 or lam == 0 or abs(lam) >= 1 or n < 1:
        raise DomainError("need a real lambda with 0 < |lambda| < 1 and a dimension n >= 1")
    return _compressed_shift([lam.real] * n)


def _first_order_scan(r: np.ndarray, mu) -> np.ndarray:
    """c_k = mu c_{k-1} + r_k with c_{-1} = 0, i.e. the coefficients of
    r(z)/(1 - mu z), by a log-depth doubling scan (|mu| < 1)."""
    c = r.copy()
    shift, w = 1, mu
    while shift < c.size and w != 0:
        c[shift:] += w * c[:-shift]
        shift, w = 2 * shift, w * w
    return c


def _build_rows(mu: np.ndarray, D: int) -> np.ndarray:
    """The rows of ``_malmquist_walsh_rows`` for the long-double spectrum mu.

    First the prefixes p_j = prod_{i<j} b_{mu_i}, one ``_first_order_scan``
    each, as each needs the one before it; then every row's scan of
    p_j/(1 - mu_j z) at once, as one 2-D doubling scan.  A row whose
    w = mu_j^(2^s) is 0 gets no more updates, as its own scan would stop
    there, so each row keeps the bits of ``_first_order_scan``, signed zeros
    included.  Row j depends only on mu_0..mu_j, and entry k only on the
    entries below k, so the rows of (mu[:N'], D') are the leading block of
    those of (mu, D), bit for bit.
    """
    rows = np.empty((mu.size, D + 1), dtype=LD)
    prefix = np.zeros(D + 1, dtype=LD)  # prod_{i<j} b_{mu_i}
    prefix[0] = 1
    for j, m in enumerate(mu):
        rows[j] = prefix
        # prefix * b_mu: c_k = mu c_{k-1} + p_{k-1} - mu p_k
        shifted = -m * prefix
        shifted[1:] += prefix[:-1]
        prefix = _first_order_scan(shifted, m)
    shift, w = 1, mu
    while shift <= D:
        live = np.flatnonzero(w)
        if live.size == w.size:
            rows[:, shift:] += w[:, None] * rows[:, :-shift]
        elif live.size:
            rows[live, shift:] += w[live, None] * rows[live, :-shift]
        else:
            break
        shift, w = 2 * shift, w * w
    rows *= np.sqrt(1 - mu * mu)[:, None]
    return rows


@contextlib.contextmanager
def row_table():
    """A scope in which ``_malmquist_walsh_rows`` keeps the last table it
    built, and only that one, and serves every request it covers by slicing
    it; on exit, the scope held before it is back.  Outside every scope,
    nothing is kept.  The rows of a spectrum prefix and a lower degree are a
    bitwise block of the larger table (``_build_rows``), so a request gets
    the bits it would get outside the scope."""
    global _held
    outer, _held = _held, []
    try:
        yield
    finally:
        _held = outer


def _malmquist_walsh_rows(mus, D: int) -> np.ndarray:
    """Taylor coefficients 0..D of the Malmquist-Walsh basis of the model
    space K_B, one row per e_j(z) = sqrt(1-mu_j^2)/(1 - mu_j z) prod_{i<j}
    b_{mu_i}(z), for the real expanded spectrum mu_1..mu_N; long double.
    rows @ a holds the <h, e_j> of the polynomial h with coefficients a; the
    rows are O(1) and nearly orthonormal, unlike the jet rows.

    Inside ``row_table``, a request whose mus are a prefix of the held
    table's spectrum, bit for bit, and whose D is at most its degree gets a
    contiguous copy of the table's leading block; any other request builds
    its own table, which replaces the one held, and gets a copy of it.  The
    copies leave the held table as it is, whatever the caller does to them.
    """
    mu = np.array(mus, dtype=LD)
    if _held is None:
        return _build_rows(mu, D)
    if _held:
        held_mu, held_D, held_rows = _held
        prefix = held_mu[:mu.size]
        if (mu.size <= held_mu.size and D <= held_D and np.array_equal(prefix, mu)
                and np.array_equal(np.signbit(prefix), np.signbit(mu))):
            return held_rows[:mu.size, :D + 1].copy()
    _held[:] = [mu, D, _build_rows(mu, D)]
    return _held[2].copy()


def _row_error_bound(mus, D: int) -> np.ndarray:
    """Bound 3 (j+1) (L+2) eps kappa^(3/2) on ||delta_j||_2, the rounding
    error of row j of ``_malmquist_walsh_rows(mus, D)``: eps = 2u is the
    long-double epsilon, L = ceil(log2(D+1)) the doubling steps of a scan,
    kappa = 1/(1 - max|mu|).  Past 1e-6/kappa it is inf.

    In l2, with a = |mu_j|, x_s = a^(2^s): the exact prefix
    p_j = prod_{i<j} b_{mu_i} is inner, so truncating F p_j keeps at most
    ||F||_2, and a factor phi gains at most ||phi||_inf.  A scan applies
    prod_s (1 + w_s z^(2^s)) = 1/(1 - mu z) up to degree D, w_s = mu^(2^s)
    squared up with relative error |e_s| <= 2^s u.  The prefix step
    scan((z - mu) p~_j) passes the inherited Delta_j with gain 1 (b_mu is
    inner) and adds (1 + 2a) kappa u for forming (z - mu) p~_j,
    sum_s 2^s x_s u / sqrt(1 - x_s^2) <= 0.41 L kappa u for the e_s and
    2 sqrt(2) kappa u per step: ||Delta_{j+1}|| <= ||Delta_j|| + 3.3 (L+1)
    kappa u.  The row step sqrt(1 - mu^2) scan(p~_j) passes Delta_j with
    gain sqrt(2 kappa) and adds 2 kappa u for the e_s, (1 + sqrt 2) L u /
    sqrt(1 - a^2) for the steps and (2 + kappa/2) u for the scale.  So
    ||delta_j|| <= 4.6 (j+1)(L+2) kappa^(3/2) u to first order; 3 eps = 6u
    covers the second-order rest.  The bound holds for every rounding and
    sits ~1e3 above the measured error (3.7e-19 at lambda 0.5, n 64, D 400).
    """
    kappa = 1 / (1 - max(abs(mu) for mu in mus))
    bound = 3 * (D.bit_length() + 2) * np.finfo(LD).eps * kappa ** 1.5 * np.arange(1, len(mus) + 1)
    return np.where(bound * kappa <= 1e-6, bound, np.inf)


def model_matrix(spec: SpectrumSpec) -> np.ndarray:
    """Matrix of the multiplication-by-z compression in the Malmquist-Walsh
    basis of a real spectrum, M[i, j] = <z e_{j+1}, e_{i+1}>, from the rows
    R of ``_malmquist_walsh_rows`` at the least degree D whose l2 row tails,
    the rows of M^(D+1) from ``_compressed_shift`` (M^T is the backward
    shift), are all at most GRAM_TOL.  A Gram residual max|R R^T - I| not
    below GRAM_TOL is a ConsistencyError."""
    spec.require_interior()
    if not spec.is_real:
        raise DomainError("the Malmquist-Walsh rows need a real spectrum")
    mus = [lam.real for lam in spec.expanded()]
    shift, power, D = _compressed_shift(mus), np.eye(len(mus)), -1
    # the row l2 norms, as np.linalg.norm(power, axis=1) forms them
    while np.sqrt(np.add.reduce(power * power, axis=1)).max() > GRAM_TOL:
        power, D = power @ shift, D + 1
    R = _malmquist_walsh_rows(mus, D)
    if np.max(np.abs(R @ R.T - np.eye(len(mus)))) >= GRAM_TOL:
        raise ConsistencyError("Gram matrix did not reach identity; basis bug")
    return (R[:, 1:] @ R[:, :-1].T).astype(float)


def minimal_poly_check(T: np.ndarray, lam: float):
    """Verify (T - lambda I)^n = 0 while (T - lambda I)^(n-1) != 0, for the
    n x n array T.

    The vanishing power is detected by the relative drop
    ||N^p||_F <= 1e-8 ||N^(p-1)||_F ||N||_F, which one extra factor of a
    nonzero nilpotent matrix can never produce.  Returns (degree, residual)
    with residual the scaled drop at the detected degree.
    """
    n = T.shape[0]
    N = T - lam * np.eye(n)
    norm1 = float(np.linalg.norm(N))
    if norm1 == 0:
        return (1, 0.0)
    P, prev = np.eye(n), math.sqrt(n)
    for p in range(1, n + 1):
        P = P @ N
        cur = float(np.linalg.norm(P))
        drop = cur / (prev * norm1)
        if drop <= 1e-8:
            if p < n:
                raise ConsistencyError(f"nilpotency index {p} below the matrix dimension {n}")
            return p, drop
        prev = cur
    raise ConsistencyError("(T - lambda I)^n does not vanish; construction bug")
