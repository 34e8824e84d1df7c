"""Dense two-phase l1 simplex: a double tableau, its vertex and dual in long double.

The l1 interpolation programs solved here constrain a polynomial's inner
products with the Malmquist-Walsh basis of a model space; those rows are
O(1) and nearly orthonormal, but the data spans many orders of magnitude
and the optimal vertex must be exact, not merely within an interior-point
feasibility tolerance.  A float64 tableau finds the optimal basis; the
vertex and its dual are then formed from that basis in numpy longdouble,
by one partial-pivoting LU of the basis matrix, so they are exact up to
the 64-bit significand however far the tableau has drifted.  This is the
scheme of Applegate, Cook, Dash & Espinoza (Oper. Res. Lett. 2007) and of
Gleixner, Steffy & Wolter (INFORMS J. Comput. 2016): find the basis in
fast arithmetic, recompute the basic solution in higher precision.  A
phase that stalls re-forms its tableau from the basis by a fresh float64
solve, which clears the tableau's drift.

The tableau holds one column per coefficient, not the usual split
x = x+ - x- with a column each: a free coefficient enters the basis with
the sign of its better reduced cost, and the negated column is never
stored (Barrodale & Roberts, SIAM J. Numer. Anal. 1973).  Phase 1 starts
from a crash basis, not from the artificials alone: a free column is
feasible in either sign, so any nonsingular choice of columns is a
feasible start, and one is picked by eliminating on each row's largest
entry (Bixby, ORSA J. Comput. 1992).  On these nearly orthonormal rows
every row gets a column and phase 1 does not run.  Problems stay small
and dense: one row per eigenvalue counted with multiplicity, a few hundred
at most, by at most a few thousand columns.  Each solve also
returns its dual, the certificate that ``wiener_opt`` prices over the
columns a program leaves out.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble

_RC_TOL = 1e-11
_FEAS_TOL = 1e-9  # largest basic artificial, relative to its row |b_i| + |R_i| @ |x|
_MAX_PIVOTS = 200_000  # pricing passes, pivots or not, of both phases together
_BLAND_AFTER = 5000  # pricing passes of one phase before both choices take the lowest index


class SimplexError(RuntimeError):
    pass


def _lu(B):
    """Partial-pivoting LU of the square long-double matrix B: (lu, perm)
    with B[perm] = L U, L unit lower triangular below the diagonal of lu
    and U on and above it."""
    lu = B.copy()
    perm = np.arange(len(lu))
    for k in range(len(lu)):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0:
            raise SimplexError("singular basis")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, k + 1:]
    return lu, perm


def _lu_solve(lu, perm, rhs):
    """X with B X = rhs (rhs one vector or one column per right-hand side)."""
    x = np.array(rhs, dtype=LD)[perm]
    for i in range(1, len(x)):
        x[i] -= lu[i, :i] @ x[:i]
    for i in reversed(range(len(x))):
        x[i] = (x[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
    return x


def _lu_solve_left(lu, perm, c):
    """y with y B = c: U^T L^T (y[perm]) = c, forward then back."""
    w = np.array(c, dtype=LD)
    for i in range(len(w)):
        w[i] = (w[i] - lu[:i, i] @ w[:i]) / lu[i, i]
    for i in reversed(range(len(w) - 1)):
        w[i] -= lu[i + 1:, i] @ w[i + 1:]
    y = np.empty_like(w)
    y[perm] = w
    return y


def _basis_matrix(R, basis, dtype):
    """The signed basis matrix: column i is +R_j for basis[i] = j, -R_j
    for n + j and e_k for the artificial 2n + k."""
    m, n = R.shape
    B = np.zeros((m, m), dtype=dtype)
    coef = np.nonzero(basis < 2 * n)[0]
    B[:, coef] = R[:, basis[coef] % n] * np.where(basis[coef] < n, LD(1), LD(-1))
    art = np.nonzero(basis >= 2 * n)[0]
    B[basis[art] - 2 * n, art] = 1
    return B


def _basis_lu(R, basis):
    """Long-double LU of the signed basis matrix."""
    return _lu(_basis_matrix(R, basis, LD))


def _vertex(R, b, basis, lu, perm):
    """The basic solution x_B = B^{-1} b and its coefficients x, in long
    double.  ``SimplexError`` when a basic artificial exceeds _FEAS_TOL of
    its own row: the vertex does not satisfy R x = b."""
    n = R.shape[1]
    xb = _lu_solve(lu, perm, b)
    x = np.zeros(n, dtype=LD)
    coef = basis < 2 * n
    x[basis[coef] % n] = np.where(basis[coef] < n, xb[coef], -xb[coef])
    rows = basis[~coef] - 2 * n
    miss = np.abs(xb[~coef])
    scale = np.abs(b[rows]) + np.abs(R[rows]) @ np.abs(x)
    if np.any(miss > _FEAS_TOL * scale):
        i = np.argmax(miss - _FEAS_TOL * scale)
        raise SimplexError(f"infeasible: row {rows[i]} missed by {float(miss[i]):.3e} "
                           f"against a scale of {float(scale[i]):.3e}")
    return xb, x


def _price(T, basis, phase):
    """Set the objective row of T to minus the sum of the cost rows: the
    basic artificials in phase 1, the basic coefficients in phase 2 (each
    costs 1 in the sign it is basic with, which its row already holds)."""
    m, n = len(basis), T.shape[1] - 1
    T[m] = 0
    for i in np.nonzero((basis < 2 * n) == (phase == 2))[0]:
        T[m] -= T[i]


def _tableau(R, b, basis, phase):
    """The float64 tableau B^{-1} [R, b] of the basis, by one fresh solve,
    under the phase's objective row (``_price``)."""
    m, n = R.shape
    T = np.empty((m + 1, n + 1))
    T[:m, :n], T[:m, n] = R, b
    T[:m] = np.linalg.solve(_basis_matrix(R, basis, float), T[:m])
    _price(T, basis, phase)
    return T


def _crash(R, b):
    """The start: (T, basis, sgn), the phase-1 ``_tableau`` of the program
    with row i of R x = b multiplied by sgn_i, and its signed basis.

    On a float64 copy of R, each row in turn eliminates on its largest
    remaining entry; a row left with no entry above _FEAS_TOL of its own
    sup norm depends on the rows before it, and keeps its artificial.  The
    chosen columns and the kept artificials form a nonsingular B
    (triangular after the elimination).  Each basic variable starts at the
    absolute value of its basic value: a chosen column, free, enters as
    +R_j or -R_j by that sign, and a kept artificial negates its row
    (sgn_i = -1), so the start is feasible and phase 1 has only the kept
    artificials to drive out (a crash basis: Bixby, ORSA J. Comput. 1992).
    An artificial is a basis index, 2n + i for row i, and has no tableau
    column.  With every artificial kept, B is I and this is the textbook
    start on the rows signed to b >= 0.
    """
    m, n = R.shape
    A = R.astype(float)
    size = _FEAS_TOL * np.max(np.abs(A), axis=1)
    basis = np.arange(2 * n, 2 * n + m)
    free = np.ones(n, dtype=bool)
    for i in range(m):
        j = int(np.argmax(np.abs(A[i]) * free))
        if not abs(A[i, j]) > size[i]:
            continue
        basis[i] = j
        free[j] = False
        A[i + 1:] -= A[i + 1:, j, None] / A[i, j] * A[i]
    T = _tableau(R, b, basis, 1)
    neg = T[:m, -1] < 0
    T[:m][neg] *= -1
    coef = basis < 2 * n
    basis[neg & coef] += n
    _price(T, basis, 1)  # the flip changed the cost rows
    return T, basis, np.where(neg & ~coef, -1, 1)


def _run(T, R, b, basis, phase, total):
    """Pivot the float64 tableau T = B^{-1} [R, b], under the phase's
    objective row, to the end of the phase, in place.  Only the cost of a
    coefficient column depends on the phase: 0 in phase 1, 1 in phase 2.
    Returns (passes, pivots): the pricing passes with ``total`` before it,
    which _MAX_PIVOTS limits, and the pivots this phase made."""
    m, n = R.shape
    c = 1.0 if phase == 2 else 0.0
    z = T[m, :n]
    red = np.empty(2 * n)
    blocked = np.zeros(red.size, dtype=bool)
    any_blocked = False
    work = np.empty_like(T)  # the rank-1 update, without a fresh array per pivot
    reformed = False  # since the last pivot
    it = pivots = 0
    while True:
        it += 1
        total += 1
        if total > _MAX_PIVOTS:
            raise SimplexError("iteration limit reached")
        np.add(c, z, out=red[:n])
        np.subtract(c, z, out=red[n:])
        # Dantzig: the least reduced cost, the smallest index on ties;
        # Bland: the smallest index below -_RC_TOL
        priced = np.where(blocked, np.inf, red) if any_blocked else red
        bland = it > _BLAND_AFTER
        k = int(np.argmax(priced < -_RC_TOL) if bland else np.argmin(priced))
        if not priced[k] < -_RC_TOL:
            stuck = np.count_nonzero((red < -1e-7) & blocked)
            if not stuck:
                return total, pivots
            if reformed:
                raise SimplexError(f"stalled: {stuck} column(s) with reduced cost below "
                                   f"-1e-7 and no acceptable pivot")
            # the blocked columns may owe their tiny pivots to the tableau's drift
            T[:] = _tableau(R, b, basis, phase)
            reformed = True
            blocked[:] = any_blocked = False
            continue
        j = k % n  # the tableau column of +R_j or -R_j
        s = -1.0 if k >= n else 1.0
        col = s * T[:m, j]
        cmax = float(col.max())
        tol = max(1e-13, 1e-11 * max(cmax, -float(col.min())))  # 1e-11 max|col|
        if not cmax > tol:
            blocked[k] = any_blocked = True
            continue
        pos = col > tol
        ratios = np.full(m, np.inf)
        ratios[pos] = np.maximum(T[:m, -1][pos], 0.0) / col[pos]
        rmin = ratios.min()
        near = np.nonzero(ratios <= rmin + 1e-9 * rmin + 1e-18)[0]
        if near.size == 1:
            i = near[0]
        else:
            i = near[np.argmin(basis[near])] if bland else near[np.argmax(col[near])]
        T[i] /= col[i]
        fac = s * T[:, j]
        fac[i] = 0
        fac[m] += c  # the entering column's reduced cost c + s z_j
        T -= np.einsum("i,j->ij", fac, T[i], out=work)  # faster than multiply.outer
        T[:, j] = 0
        T[i, j] = s
        T[m, j] = -s * c  # so that the basic column's reduced cost is 0
        basis[i] = k
        pivots += 1
        if any_blocked:
            blocked[:] = any_blocked = False
        reformed = False


def dense_simplex(R, b):
    """min ||x||_1  s.t.  R x = b  over real x.

    Returns (x, value, pivots, y) in long double, formed from the final
    basis B by one long-double LU: x_B = B^{-1} b, value the sum of x_B
    over the basic coefficients, and the dual y B = c_B with c_B 1 on each
    basic coefficient and 0 on each basic artificial, so |y @ R| <= 1 and
    y @ b = value.  A degenerate basic coefficient may come out with the
    sign opposite to the one its column entered with; x is taken as solved.

    The pivots, on the float64 tableau B^{-1} [R, b] of both phases, are
    those of the textbook simplex on [R, -R] with x >= 0, columns indexed
    +R first, then -R.  They start from the crash basis of ``_crash``,
    with the rows signed so that every basic variable starts nonnegative.
    Phase 1 runs only when the crash kept an artificial, and drives the
    kept ones out; an artificial has no column, so one that leaves never
    re-enters (the phase-1 optimum is the same), and one still basic at 0
    stays so, at cost 0, in phase 2.  Dantzig pricing with the smallest
    index on ties, and a largest-pivot tie-break on near-minimal ratios.
    Past _BLAND_AFTER pricing passes of one phase, Bland's rule takes
    over: the lowest entering index, and the lowest basic index among the
    minimal ratios.  ``SimplexError`` after _MAX_PIVOTS pricing passes.
    Every cost is 1, so phase 2 cannot be unbounded; columns without an
    acceptable pivot are blocked until the next pivot instead.  A phase
    whose only improving columns are blocked re-forms its tableau from the
    basis once (``_tableau``), and has stalled, ``SimplexError``, if that
    brings no pivot either.  Phase 1 and the final vertex are both
    feasible only if every basic artificial is within _FEAS_TOL of its own
    row's scale.  ``pivots`` counts the pivots of both phases: the crash
    itself, a pass that blocks a column and a pass that ends a phase make
    none.
    """
    R = np.array(R, dtype=LD)
    b = np.array(b, dtype=LD)
    n = R.shape[1]
    T, basis, sgn = _crash(R, b)
    R *= sgn[:, None]
    b *= sgn
    total = pivots = 0
    if np.any(basis >= 2 * n):
        total, pivots = _run(T, R, b, basis, 1, 0)
        _vertex(R, b, basis, *_basis_lu(R, basis))
    _price(T, basis, 2)
    total, phase2 = _run(T, R, b, basis, 2, total)

    lu, perm = _basis_lu(R, basis)
    xb, x = _vertex(R, b, basis, lu, perm)
    coef = basis < 2 * n
    value = LD(0)
    for i in np.argsort(basis):  # summed in the signed index order
        if coef[i]:
            value += xb[i]
    y = _lu_solve_left(lu, perm, coef.astype(LD))
    return x, value, pivots + phase2, y * sgn


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
    return val, x, y / scale
