"""Dense two-phase tableau simplex in extended precision.

The l1 interpolation programs solved here constrain a polynomial's inner
products with the Malmquist-Walsh basis of a model space; those rows are
O(1) and nearly orthonormal, but the data spans many orders of magnitude
and the optimal vertex must be exact, not merely within an interior-point
feasibility tolerance.  The LPs are therefore solved with an explicit
tableau in numpy longdouble, where basic solutions are exact up to the
64-bit significand.  Problem sizes stay tiny: at most a few dozen rows by a
few thousand columns.  Each solve also returns its dual, the certificate
that ``wiener_opt`` prices over the columns a program leaves out.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble

_RC_TOL = LD(1e-11)
_MAX_PIVOTS = 200_000


class SimplexError(RuntimeError):
    pass


def dense_simplex(A, b, c):
    """min c @ x  s.t.  A x = b, x >= 0.

    Returns (x, value, iterations, y) in long double, y the dual read off the
    artificial columns' phase-2 reduced costs: y @ A <= c, y @ b = value.
    Dantzig pricing with a largest-pivot
    tie-break on near-minimal ratios; falls back to Bland's rule when
    progress stalls, and gives up with ``SimplexError`` after _MAX_PIVOTS
    pivots.  In this package c >= 0 always, so phase 2 cannot be
    unbounded; columns without an acceptable pivot are blocked instead.
    """
    A = np.array(A, dtype=LD)
    b = np.array(b, dtype=LD)
    c = np.array(c, dtype=LD)
    m, n = A.shape
    sgn = np.where(b < 0, LD(-1), LD(1))
    A *= sgn[:, None]
    b *= sgn

    T = np.zeros((m + 1, n + m + 1), dtype=LD)
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m, dtype=LD)
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()

    total = 0

    def run(active_n):
        nonlocal total
        blocked = np.zeros(active_n, dtype=bool)
        it = 0
        while True:
            it += 1
            total += 1
            if total > _MAX_PIVOTS:
                raise SimplexError("iteration limit reached")
            red = T[m, :active_n]
            cand = np.where((red < -_RC_TOL) & ~blocked)[0]
            if cand.size == 0:
                stuck = np.where((red < LD(-1e-7)) & blocked)[0]
                if stuck.size:
                    blocked[stuck] = False
                    continue
                return
            j = cand[0] if it > 5000 else cand[np.argmin(red[cand])]
            col = T[:m, j]
            piv_tol = max(LD(1e-13), LD(1e-11) * np.max(np.abs(col)))
            pos = col > piv_tol
            if not np.any(pos):
                blocked[j] = True
                continue
            ratios = np.full(m, np.inf, dtype=LD)
            ratios[pos] = np.maximum(T[:m, -1][pos], LD(0)) / col[pos]
            rmin = ratios.min()
            near = np.where(ratios <= rmin + LD(1e-9) * rmin + LD(1e-18))[0]
            i = near[np.argmax(col[near])]
            T[i] /= T[i, j]
            fac = T[:, j].copy()
            fac[i] = 0
            T[:, :] -= np.outer(fac, T[i])
            T[:, j] = 0
            T[i, j] = 1
            basis[i] = j
            blocked[:] = False

    run(n + m)
    if T[m, -1] < -LD(1e-9) * max(LD(1), np.abs(b).sum()):
        raise SimplexError(f"infeasible: phase-1 objective {float(-T[m, -1]):.3e}")

    T[m, :] = 0
    T[m, :n] = c
    for i, bi in enumerate(basis):
        if bi < n and c[bi] != 0:
            T[m, :] -= c[bi] * T[i]
    run(n)

    x = np.zeros(n, dtype=LD)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i, -1]
    return x, c @ x, total, -T[m, n:n + m] * sgn


def min_l1_solution(rows: np.ndarray, rhs: np.ndarray):
    """min ||x||_1  s.t.  rows @ x = rhs  over real x, via the standard
    positive/negative split.  Rows are equilibrated to unit sup norm first.

    Returns (value, x, y) in long double; the dual y, equilibration undone,
    has |y @ rows| <= 1 and y @ rhs = value."""
    rows = np.array(rows, dtype=LD)
    rhs = np.array(rhs, dtype=LD)
    scale = np.max(np.abs(rows), axis=1)
    if np.any(scale == 0):
        raise SimplexError("zero constraint row")
    rows = rows / scale[:, None]
    rhs = rhs / scale
    nvar = rows.shape[1]
    A = np.hstack([rows, -rows])
    c = np.ones(2 * nvar, dtype=LD)
    xpm, val, _, y = dense_simplex(A, rhs, c)
    x = xpm[:nvar] - xpm[nvar:]
    # the tableau's objective row drifts by ~1e-9 over hundreds of pivots;
    # one refinement step on y @ rows[:, k] = sign(x_k) over the support
    on = rows[:, x != 0].T
    y += np.linalg.lstsq(on.astype(float), (np.sign(x[x != 0]) - on @ y).astype(float),
                         rcond=None)[0]
    return val, x, y / scale
