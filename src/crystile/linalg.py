"""Small exact linear algebra kernel, in two layers.

Rational: vectors are tuples of Q, matrices tuples of row tuples.  Integer:
hot paths scale rationals once to ints over a common denominator (integral,
integral_rows) and multiply ints (int_dot, int_mat_vec, int_mat_mul).  Every
elimination is one fraction-free routine on int rows, int_rref, which the
rational mat_rank, solve_linear, nullspace, mat_inv and mat_det (n > 3)
wrap; the Hermite and Smith forms (solve_mod_lattice) run on ints too.
"""

from __future__ import annotations

import math
from itertools import chain, product
from operator import mul

from .rational import Q, ZERO, ONE, rat

Vec = tuple
Mat = tuple


def vec(entries, n=None) -> Vec:
    v = tuple(rat(e) for e in entries)
    if n is not None and len(v) != n:  # zip below would truncate it
        raise ValueError(f"expected a {n}-vector, got {len(v)} entries")
    return v


def mat(rows) -> Mat:
    return tuple(tuple(rat(e) for e in row) for row in rows)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def identity_mat(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vdot(u: Vec, v: Vec):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_integral(q) -> bool:
    return Q(q).denominator == 1


def is_integral_mat(m: Mat) -> bool:
    return all(is_integral(a) for row in m for a in row)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_det(m: Mat):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    s, rows = integral_rows(m)
    pivots, d, sign = int_rref(list(rows), n)
    return Q(sign * d, s ** n) if len(pivots) == n else ZERO


def mat_inv(m: Mat) -> Mat:
    n = len(m)
    aug = list(integral_rows([(*row, *e) for row, e in zip(m, identity_mat(n))])[1])
    pivots, d, _ = int_rref(aug, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(tuple(Q(x, d) for x in row[n:]) for row in aug)


def solve_linear(m: Mat, b: Vec):
    """Solve m x = b exactly; None if inconsistent, a solution otherwise.

    For underdetermined consistent systems, free variables are set to 0.
    """
    ncols = len(m[0]) if m else 0
    aug = list(integral_rows([(*row, bi) for row, bi in zip(m, b)])[1])
    pivots, d, _ = int_rref(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        return None
    x = [ZERO] * ncols
    for i, col in enumerate(pivots):
        x[col] = Q(aug[i][ncols], d)
    return tuple(x)


def mat_rank(m: Mat) -> int:
    if not m:
        return 0
    return len(int_rref(list(integral_rows(m)[1]), len(m[0]))[0])


def nullspace(m: Mat) -> list:
    """Basis of {x : m x = 0}."""
    ncols = len(m[0]) if m else 0
    rows = list(integral_rows(m)[1])
    pivots, d, _ = int_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = Q(-rows[i][fc], d)
        basis.append(tuple(v))
    return basis


def gram_dot(gram: Mat, u: Vec, v: Vec):
    return vdot(u, mat_vec(gram, v))


def gram_norm2(gram: Mat, v: Vec):
    return gram_dot(gram, v, v)


# --- the integer layer ----------------------------------------------------

def integral(values, d=None):
    """(d, ints) for a sequence of exact rationals (Q or int): each value
    times d, as a Python int, where d is their least common denominator or,
    when given, a multiple of it."""
    if d is None:
        d = math.lcm(*(q.denominator for q in values))
    return d, tuple(q.numerator * (d // q.denominator) for q in values)


def integral_rows(rows, d=None):
    """integral of the entries of a sequence of rows of one length, as rows."""
    d, flat = integral([q for row in rows for q in row], d)
    return d, tuple(zip(*[iter(flat)] * (len(rows[0]) if rows else 1)))


def int_dot(u, v):
    # ints stay ints here; vdot starts its sum from a Q zero
    return sum(map(mul, u, v))


def int_mat_vec(m, v):
    return tuple([sum(map(mul, row, v)) for row in m])


def int_mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


def int_rref(rows: list, ncols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968; Cohen 1993, 2.2)
    of the list of int rows `rows`, in place, pivoting in the first ncols
    columns and carrying the rest.  A pivot p in row r sets row_i <- (p row_i
    - row_i[col] row_r) / prev, exactly, for every other row, prev the pivot
    before (1 at first): each pivot row ends with the last pivot d in its
    column, and rows / d is the reduced form.  Returns (pivot columns, d,
    sign of the row swaps); for rows s M of a square M of full rank,
    det M = sign d / s^n."""
    pivots, d, sign = [], 1, 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top, p = rows[r], rows[r][col]
        rows[:] = [top if i == r else [(p * x - row[col] * y) // d for x, y in zip(row, top)]
                   for i, row in enumerate(rows)]
        d = p
        pivots.append(col)
    return pivots, d, sign


def _reduced(den, rows):
    """(den / g, rows / g) for int rows over den > 0 and g = gcd(den, entries):
    what integral_rows gives for the values rows / den."""
    g = math.gcd(den, *chain.from_iterable(rows))
    return den // g, tuple(rows) if g == 1 else tuple(tuple(c // g for c in p) for p in rows)


def hermite_column_basis(int_cols: list) -> list:
    """Column-style Hermite form of the lattice spanned by integer columns.

    Returns a list of r linearly independent integer columns generating the
    same lattice, in a canonical (lower-triangular-ish) form.
    """
    if not int_cols:
        return []
    n = len(int_cols[0])
    cols = [list(c) for c in int_cols]
    basis = []
    row = 0
    while row < n and cols:
        live = [c for c in cols if any(x != 0 for x in c[row:])]
        work = [c for c in live if c[row] != 0]
        rest = [c for c in live if c[row] == 0]
        if not work:
            cols = rest
            row += 1
            continue
        # gcd-reduce the pivot row entries across columns
        while len(work) > 1:
            work.sort(key=lambda c: abs(c[row]))
            a = work[0]
            changed = []
            for c in work[1:]:
                q = c[row] // a[row]
                newc = [x - q * y for x, y in zip(c, a)]
                if newc[row] != 0:
                    changed.append(newc)
                elif any(x != 0 for x in newc[row:]):
                    rest.append(newc)
            work = [a] + changed
        piv = work[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        # reduce prior basis columns against the new pivot
        for b in basis:
            q = b[row] // piv[row]
            if q:
                for i in range(n):
                    b[i] -= q * piv[i]
        basis.append(piv)
        cols = rest
        row += 1
    return [tuple(c) for c in basis]


def _smith(a, carry):
    """Diagonalize the integral matrix a by unimodular row and column
    operations, applying each row operation to the rows of carry too.

    Returns (D, carry, V) as int lists: D = U a V is diagonal and the
    returned carry is U carry, for the U that the row operations form.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    A = [[int(x) for x in row] for row in a]
    U = [list(row) for row in carry]
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, f):
        A[dst] = [x + f * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + f * y for x, y in zip(U[dst], U[src])]

    def addmul_col(dst, src, f):
        for row in A:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    t = 0
    while t < min(nrows, ncols):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if A[i][j] != 0:
                    if piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    addmul_row(i, t, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    addmul_col(j, t, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    # divisibility chain is irrelevant for congruence solving; skip it
    return A, U, V


def solve_mod_lattice(a_stack: Mat, e, eb):
    """One solution x of  a_stack @ x = b (mod Z^rows), or None, for the
    right-hand side b = eb / e (int e > 0, int vector eb), as the int pair
    (L, X) of x = X / L, L > 0.

    a_stack must have integer entries.  The Smith form runs on ints and
    carries eb through its row operations, so U eb comes out without U
    being formed: row i says D_ii y_i = (U eb)_i / e (mod Z), solvable iff e
    divides (U eb)_i where D_ii = 0.  With y_i = (U eb)_i / (D_ii e) over
    the common denominator L, X = V L y.  No Q is formed.
    """
    nrows = len(a_stack)
    ncols = len(a_stack[0]) if nrows else 0
    if nrows == 0:
        return 1, (0,) * ncols
    D, c, V = _smith(a_stack, [[x] for x in eb])
    diag = [D[i][i] * e for i in range(min(nrows, ncols)) if D[i][i] != 0]
    if any(ci % e for (ci,) in c[len(diag):]):
        return None
    lcd = math.lcm(*diag)
    y = [ci * (lcd // di) for (ci,), di in zip(c, diag)]
    return lcd, tuple(int_dot(row, y) for row in V)


def enumerate_box(bounds) -> product:
    """Iterate integer points of the closed box given by (lo, hi) pairs."""
    ranges = [range(lo, hi + 1) for lo, hi in bounds]
    return product(*ranges)
