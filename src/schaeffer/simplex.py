"""Dense two-phase l1 simplex in extended precision.

The l1 interpolation programs solved here constrain a polynomial's inner
products with the Malmquist-Walsh basis of a model space; those rows are
O(1) and nearly orthonormal, but the data spans many orders of magnitude
and the optimal vertex must be exact, not merely within an interior-point
feasibility tolerance.  The programs are therefore solved with an explicit
tableau in numpy longdouble, where basic solutions are exact up to the
64-bit significand.

The tableau holds one column per coefficient, not the usual split
x = x+ - x- with a column each: a free coefficient enters the basis with
the sign of its better reduced cost, and the negated column is never
stored (Barrodale & Roberts, SIAM J. Numer. Anal. 1973).  Problem sizes
stay tiny: at most a few dozen rows by a few thousand columns.  Each solve
also returns its dual, the certificate that ``wiener_opt`` prices over the
columns a program leaves out.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble

_RC_TOL = LD(1e-11)
_MAX_PIVOTS = 200_000
_BLAND_AFTER = 5000  # pivots of one phase before both choices take the lowest index


class SimplexError(RuntimeError):
    pass


def dense_simplex(R, b):
    """min ||x||_1  s.t.  R x = b  over real x.

    Returns (x, value, pivots, y) in long double, y the dual read off the
    artificial columns' phase-2 reduced costs: |y @ R| <= 1, y @ b = value.

    The pivots are those of the textbook simplex on [R, -R] with x >= 0,
    columns indexed +R first, then -R, then the phase-1 artificials: Dantzig
    pricing with the smallest index on ties, and a largest-pivot tie-break
    on near-minimal ratios.  Past _BLAND_AFTER pivots of one phase, Bland's
    rule takes over: the lowest entering index, and the lowest basic index
    among the minimal ratios.  ``SimplexError`` after _MAX_PIVOTS pivots.
    Every cost is 1, so phase 2 cannot be unbounded; columns without an
    acceptable pivot are blocked until the next pivot instead, and a phase
    whose only improving columns are blocked has stalled: ``SimplexError``.
    """
    R = np.array(R, dtype=LD)
    b = np.array(b, dtype=LD)
    m, n = R.shape
    sgn = np.where(b < 0, LD(-1), LD(1))
    R *= sgn[:, None]
    b *= sgn

    # columns: R, the artificials, b; row m holds z, the reduced costs of +R
    T = np.zeros((m + 1, n + m + 1), dtype=LD)
    T[:m, :n] = R
    T[:m, n:n + m] = np.eye(m, dtype=LD)
    T[:m, -1] = b
    T[m, :n] = -R.sum(axis=0)
    T[m, -1] = -b.sum()
    # basic variable of each row in the signed index: +R_j is j, -R_j is n + j
    # and artificial k is 2n + k
    basis = np.arange(2 * n, 2 * n + m)

    work = np.empty_like(T)  # the rank-1 update, without a fresh array per pivot
    total = 0

    def run(phase):
        nonlocal total
        z = T[m, :n]
        width = 2 * n + m if phase == 1 else 2 * n
        blocked = np.zeros(width, dtype=bool)
        it = 0
        while True:
            it += 1
            total += 1
            if total > _MAX_PIVOTS:
                raise SimplexError("iteration limit reached")
            if phase == 1:
                red = np.concatenate([z, -z, T[m, n:n + m]])
            else:
                red = np.concatenate([1 + z, 1 - z])
            cand = np.where((red < -_RC_TOL) & ~blocked)[0]
            if cand.size == 0:
                stuck = np.count_nonzero((red < LD(-1e-7)) & blocked)
                if stuck:
                    raise SimplexError(f"stalled: {stuck} column(s) with reduced cost below "
                                       f"-1e-7 and no acceptable pivot")
                return
            bland = it > _BLAND_AFTER
            k = cand[0] if bland else cand[np.argmin(red[cand])]
            j = k if k < n else k - n  # tableau column: R_j, or an artificial
            s = LD(-1) if n <= k < 2 * n else LD(1)
            col = s * T[:m, j]
            piv_tol = max(LD(1e-13), LD(1e-11) * np.max(np.abs(col)))
            pos = col > piv_tol
            if not np.any(pos):
                blocked[k] = True
                continue
            ratios = np.full(m, np.inf, dtype=LD)
            ratios[pos] = np.maximum(T[:m, -1][pos], LD(0)) / col[pos]
            rmin = ratios.min()
            near = np.where(ratios <= rmin + LD(1e-9) * rmin + LD(1e-18))[0]
            i = near[np.argmin(basis[near])] if bland else near[np.argmax(col[near])]
            T[i] /= col[i]
            fac = s * T[:, j]
            fac[i] = 0
            if phase == 2:
                fac[m] = 1 + s * T[m, j]
            T[:, :] -= np.multiply.outer(fac, T[i], out=work)
            T[:, j] = 0
            T[i, j] = s
            if phase == 2:
                T[m, j] = -s  # the reduced cost 1 + s z_j of the basic column is 0
            basis[i] = k
            blocked[:] = False

    run(1)
    if T[m, -1] < -LD(1e-9) * max(LD(1), np.abs(b).sum()):
        raise SimplexError(f"infeasible: phase-1 objective {float(-T[m, -1]):.3e}")

    # phase 2: every basic coefficient costs 1 in its own sign, and the
    # tableau already holds the signed basis, so z is minus the sum of the
    # coefficient rows
    T[m, :] = 0
    for i in np.nonzero(basis < 2 * n)[0]:
        T[m, :] -= T[i]
    run(2)

    x = np.zeros(n, dtype=LD)
    value = LD(0)
    for i in np.argsort(basis):  # summed in the signed index order
        k = basis[i]
        if k < 2 * n:
            x[k % n] = T[i, -1] if k < n else -T[i, -1]
            value += T[i, -1]
    return x, value, total, -T[m, n:n + m] * sgn


def min_l1_solution(rows: np.ndarray, rhs: np.ndarray):
    """min ||x||_1  s.t.  rows @ x = rhs  over real x.  Rows are equilibrated
    to unit sup norm first.

    Returns (value, x, y) in long double; the dual y, equilibration undone,
    has |y @ rows| <= 1 and y @ rhs = value."""
    rows = np.array(rows, dtype=LD)
    rhs = np.array(rhs, dtype=LD)
    scale = np.max(np.abs(rows), axis=1)
    if np.any(scale == 0):
        raise SimplexError("zero constraint row")
    rows = rows / scale[:, None]
    rhs = rhs / scale
    x, val, _, y = dense_simplex(rows, rhs)
    # the tableau's objective row drifts by ~1e-9 over hundreds of pivots;
    # one refinement step on y @ rows[:, k] = sign(x_k) over the support
    on = rows[:, x != 0].T
    y += np.linalg.lstsq(on.astype(float), (np.sign(x[x != 0]) - on @ y).astype(float),
                         rcond=None)[0]
    return val, x, y / scale
