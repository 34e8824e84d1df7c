"""Dense l1 simplex: a double tableau, its vertex and dual in long double.

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
fast arithmetic, recompute the basic solution in higher precision.  An
improving column with no acceptable pivot re-forms the tableau from the
basis by a fresh float64 solve and prices again.  Only drift leads there:
every cost is 1, so a freshly priced objective row is minus the column
sums, an improving column's positive entries exceed 1 plus the size of its
negative ones, and its largest entry clears the pivot tolerance, 1e-11 of
its largest magnitude, for any m below 1e11.

The tableau holds one column per coefficient, not the usual split
x = x+ - x- with a column each: a free coefficient enters the basis with
the sign of its better reduced cost, and the negated column is never
stored (Barrodale & Roberts, SIAM J. Numer. Anal. 1973).  The rows must
have full rank: a free column is feasible in either sign, so any
nonsingular choice of columns is a feasible start, and one is picked by
eliminating on each row's largest entry (a crash basis: Bixby, ORSA J.
Comput. 1992).  There is no phase 1 and no artificial variable; a row
with no usable entry left is a ``SimplexError``.  The Malmquist-Walsh
rows of ``wiener_opt`` have full rank in exact arithmetic once there are
at least as many columns as rows; near lambda = 1 they can still depend
on each other to the crash's tolerance, and that program is then an
error, not an unproven value.  Problems stay small and dense: one row per
eigenvalue counted with multiplicity, a few hundred at most, by at most
a few thousand columns.  Each solve also returns its dual, the
certificate that ``wiener_opt`` prices over the columns a program leaves
out.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble

_RC_TOL = 1e-11
_FEAS_TOL = 1e-9  # least crash pivot, relative to its row's sup norm
_MAX_PIVOTS = 200_000  # pricing passes, pivots or not
_BLAND_AFTER = 5000  # pricing passes before both choices take the lowest index


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
    """The signed basis matrix: column i is +R_j for basis[i] = j and -R_j
    for n + j."""
    n = R.shape[1]
    return (R[:, basis % n] * np.where(basis < n, LD(1), LD(-1))).astype(dtype)


def _basis_lu(R, basis):
    """Long-double LU of the signed basis matrix."""
    return _lu(_basis_matrix(R, basis, LD))


def _price(T):
    """Set the objective row of T to minus the sum of the other rows: each
    basic coefficient costs 1 in the sign it is basic with, which its row
    already holds."""
    m = len(T) - 1
    T[m] = 0
    for i in range(m):
        T[m] -= T[i]


def _tableau(R, b, basis):
    """The float64 tableau B^{-1} [R, b] of the basis, by one fresh solve,
    under the objective row of ``_price``."""
    m, n = R.shape
    T = np.empty((m + 1, n + 1))
    T[:m, :n], T[:m, n] = R, b
    T[:m] = np.linalg.solve(_basis_matrix(R, basis, float), T[:m])
    _price(T)
    return T


def _crash(R, b):
    """The start: (T, basis), the ``_tableau`` of a feasible signed basis.

    On a float64 copy of R, each row in turn eliminates on its largest
    remaining entry, so the chosen columns form a nonsingular B (triangular
    after the elimination).  A row left with no entry above _FEAS_TOL of
    its own sup norm depends on the rows before it: ``SimplexError``, before
    any pivot.  Each chosen column, free, enters as +R_j or -R_j by the sign
    of its basic value, so the start is feasible (a crash basis: Bixby,
    ORSA J. Comput. 1992).
    """
    m, n = R.shape
    A = R.astype(float)
    size = _FEAS_TOL * np.max(np.abs(A), axis=1)
    basis = np.empty(m, dtype=int)
    free = np.ones(n, dtype=bool)
    for i in range(m):
        j = int(np.argmax(np.abs(A[i]) * free))
        if not abs(A[i, j]) > size[i]:
            raise SimplexError(f"row {i} depends on the rows before it")
        basis[i] = j
        free[j] = False
        A[i + 1:] -= A[i + 1:, j, None] / A[i, j] * A[i]
    T = _tableau(R, b, basis)
    neg = T[:m, -1] < 0
    T[:m][neg] *= -1
    basis[neg] += n
    _price(T)  # the flip changed the rows it sums
    return T, basis


def _run(T, R, b, basis):
    """Pivot the float64 tableau T = B^{-1} [R, b], under its objective
    row, to the optimum, in place.  Returns (passes, pivots): the pricing
    passes, which _MAX_PIVOTS limits, and the pivots among them."""
    m, n = R.shape
    z = T[m, :n]
    red = np.empty(2 * n)
    work = np.empty_like(T)  # the rank-1 update, without a fresh array per pivot
    it = pivots = 0
    while True:
        it += 1
        if it > _MAX_PIVOTS:
            raise SimplexError("iteration limit reached")
        np.add(1.0, z, out=red[:n])
        np.subtract(1.0, z, out=red[n:])
        # Dantzig: the least reduced cost, the smallest index on ties;
        # Bland: the smallest index below -_RC_TOL
        bland = it > _BLAND_AFTER
        k = int(np.argmax(red < -_RC_TOL) if bland else np.argmin(red))
        if not red[k] < -_RC_TOL:
            return it, pivots
        j = k % n  # the tableau column of +R_j or -R_j
        s = -1.0 if k >= n else 1.0
        col = s * T[:m, j]
        cmax = float(col.max())
        tol = max(1e-13, 1e-11 * max(cmax, -float(col.min())))  # 1e-11 max|col|
        if not cmax > tol:  # only a drifted objective row prices this column
            T[:] = _tableau(R, b, basis)
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
        fac[m] += 1  # the entering column's reduced cost 1 + s z_j
        T -= np.einsum("i,j->ij", fac, T[i], out=work)  # faster than multiply.outer
        T[:, j] = 0
        T[i, j] = s
        T[m, j] = -s  # so that the basic column's reduced cost is 0
        basis[i] = k
        pivots += 1


def dense_simplex(R, b):
    """min ||x||_1  s.t.  R x = b  over real x, for R of full row rank.

    Returns (x, value, pivots, y) in long double, formed from the final
    basis B by one long-double LU: x_B = B^{-1} b, value the sum of x_B,
    and the dual y B = 1, so |y @ R| <= 1 and y @ b = value.  A degenerate
    basic coefficient may come out with the sign opposite to the one its
    column entered with; x is taken as solved.

    The pivots, on the float64 tableau B^{-1} [R, b], are those of the
    textbook simplex on [R, -R] with x >= 0, columns indexed +R first,
    then -R, from the crash basis of ``_crash``; a row that depends on the
    rows before it is a ``SimplexError`` there.  Dantzig pricing with the
    smallest index on ties, and a largest-pivot tie-break on near-minimal
    ratios.  Past _BLAND_AFTER pricing passes, Bland's rule takes over: the
    lowest entering index, and the lowest basic index among the minimal
    ratios.  ``SimplexError`` after _MAX_PIVOTS pricing passes.  Every cost
    is 1, so the program cannot be unbounded, and in a freshly priced
    tableau every improving column has an acceptable pivot; a column
    without one re-forms the tableau from the basis (``_tableau``) and
    prices again.  ``pivots`` counts the pivots: the crash itself, a
    re-formation and the pass that ends the run make none.
    """
    R = np.array(R, dtype=LD)
    b = np.array(b, dtype=LD)
    n = R.shape[1]
    T, basis = _crash(R, b)
    _, pivots = _run(T, R, b, basis)
    lu, perm = _basis_lu(R, basis)
    xb = _lu_solve(lu, perm, b)
    x = np.zeros(n, dtype=LD)
    x[basis % n] = np.where(basis < n, xb, -xb)
    value = sum(xb[np.argsort(basis)], LD(0))  # summed in the signed index order
    y = _lu_solve_left(lu, perm, np.ones(len(basis), dtype=LD))
    return x, value, pivots, y


def min_l1_solution(rows: np.ndarray, rhs: np.ndarray):
    """min ||x||_1  s.t.  rows @ x = rhs  over real x.  Rows are equilibrated
    to unit sup norm first; a zero row, or one that depends on the rows
    before it, is a ``SimplexError``.

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
