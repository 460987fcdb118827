import math

import pytest
from hypothesis import given, settings, strategies as st

from crystile.groups import PRESET_NAMES, preset
from crystile.isometry import Frame, int_gram
from crystile.rational import (
    Q,
    frac_part,
    isqrt_ceil_ratio,
    rat,
    rat_json,
    rat_str,
    sqrt_float,
)
from crystile.linalg import (
    _smith,
    hermite_column_basis,
    identity_mat,
    int_dot,
    int_mat_mul,
    int_mat_vec,
    int_rref,
    integral,
    integral_rows,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_vec,
    nullspace,
    solve_linear,
    solve_mod_lattice,
    transpose,
    vec,
)

from conftest import is_integral_vec, old_rref

rationals = st.builds(Q, st.integers(-500, 500), st.integers(1, 60))


def test_rat_parsing():
    assert rat("3/4") == Q(3, 4)
    assert rat("-5") == -5
    assert rat(7) == 7
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_str_roundtrip():
    assert rat_str(Q(6, 4)) == "3/2"
    assert rat_str(Q(5)) == "5"
    assert rat_json(Q(5)) == 5
    assert rat_json(Q(1, 3)) == "1/3"


@given(rationals)
def test_isqrt_bounds(q):
    q = abs(q)
    hi = isqrt_ceil_ratio(q.numerator, q.denominator)
    assert hi * hi >= q and (hi == 0 or (hi - 1) ** 2 < q)


@given(rationals)
def test_frac_part_range(q):
    f = frac_part(q)
    assert 0 <= f < 1
    assert (q - f).denominator == 1


def test_sqrt_float():
    assert abs(sqrt_float(Q(2)) - 2 ** 0.5) < 1e-12


def test_solve_and_inverse():
    a = mat([[2, 1], [1, 3]])
    x = solve_linear(a, vec([5, 10]))
    assert mat_vec(a, x) == vec([5, 10])
    assert mat_mul(a, mat_inv(a)) == identity_mat(2)


def test_rank_nullspace():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert mat_rank(a) == 2
    ker = nullspace(a)
    assert len(ker) == 1
    assert all(x == 0 for x in mat_vec(a, ker[0]))


def test_smith_normal_form_diagonalizes():
    a = mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    d, u, v = (tuple(map(tuple, m)) for m in _smith(a, identity_mat(3)))
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    for i in range(3):
        for j in range(3):
            if i != j:
                assert d[i][j] == 0


def test_solve_mod_lattice_simple():
    # 2x = 1/2 (mod 1) has solution x = 1/4
    a = mat([[2]])
    sol = solve_mod_lattice(a, 2, (1,))
    assert sol is not None
    (d, (x,)) = sol
    assert is_integral_vec((2 * Q(x, d) - Q(1, 2),))


def test_solve_mod_lattice_infeasible():
    # 0 * x = 1/2 (mod 1) is infeasible
    a = mat([[0]])
    assert solve_mod_lattice(a, 2, (1,)) is None


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=5))
def test_hermite_preserves_lattice_membership(cols):
    cols = [c for c in cols if any(c)]
    if not cols:
        return
    basis = hermite_column_basis(cols)
    # every original generator is an integer combination of the basis
    for c in cols:
        coords = solve_linear(transpose(tuple(vec(b) for b in basis)), vec(c))
        assert coords is not None
        assert is_integral_vec(coords)


# --- differential oracle: the separate elimination loops that linalg's one
# Gauss-Jordan routine replaced, kept verbatim as references, and that
# routine on Fractions (conftest.old_rref), the reference of int_rref -------

ZERO, ONE = Q(0), Q(1)


def _ref_mat_det(m):
    n = len(m)
    rows = [list(r) for r in m]
    det = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = ONE / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f != 0:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def _ref_mat_inv(m):
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _ref_solve_linear(m, b):
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    aug = [list(row) + [bi] for row, bi in zip(m, b)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [ZERO] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return tuple(x)


def _ref_mat_rank(m):
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    rows = [list(r) for r in m]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return r


def _ref_nullspace(m):
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rows = [list(r) for r in m]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return basis


# small numerators make zero entries, dependent rows and singular matrices common
entries = st.builds(Q, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def rational_matrices(draw, square=False):
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # force a dependent row: a combination of two other rows
        i = draw(st.integers(0, nrows - 1))
        others = st.sampled_from(rows[:i] + rows[i + 1:])
        u, w, a, b = draw(others), draw(others), draw(entries), draw(entries)
        rows[i] = [a * x + b * y for x, y in zip(u, w)]
    return tuple(tuple(r) for r in rows)


def _inv_or_singular(inv, m):
    try:
        return inv(m)
    except ValueError:
        return "singular"


@given(rational_matrices(), st.data())
def test_eliminations_match_reference_loops(m, data):
    b = tuple(data.draw(st.lists(entries, min_size=len(m), max_size=len(m))))
    assert mat_rank(m) == _ref_mat_rank(m)
    assert nullspace(m) == _ref_nullspace(m)
    assert solve_linear(m, b) == _ref_solve_linear(m, b)


@given(rational_matrices(square=True))
def test_square_eliminations_match_reference_loops(m):
    # sizes 4 and 5 take mat_det's elimination branch
    assert mat_det(m) == _ref_mat_det(m)
    assert _inv_or_singular(mat_inv, m) == _inv_or_singular(_ref_mat_inv, m)


# --- the integer layer ------------------------------------------------------

@given(st.lists(rationals | st.integers(-50, 50), max_size=6), st.integers(1, 6))
def test_integral_round_trips_over_the_least_or_a_given_denominator(values, k):
    d, ints = integral(values)
    assert all(type(x) is int for x in ints)
    assert [Q(x, d) for x in ints] == values
    # d / p for a prime p of d would leave a value non-integral iff p does
    # not divide every scaled value: d is least iff gcd(d, ints) == 1
    assert d > 0 and math.gcd(d, *ints) == 1
    assert integral(values, k * d) == (k * d, tuple(k * x for x in ints))


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=4)))
def test_integral_rows_scale_the_entries_as_one_list(rows):
    d, ints = integral_rows(rows)
    assert (d, sum(ints, ())) == integral([x for row in rows for x in row])
    assert [len(row) for row in ints] == [len(row) for row in rows]


int_entries = st.integers(-10**6, 10**6)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_int_products_match_the_rational_ones(r, n, c, data):
    a = data.draw(st.lists(st.lists(int_entries, min_size=n, max_size=n), min_size=r, max_size=r))
    b = data.draw(st.lists(st.lists(int_entries, min_size=c, max_size=c), min_size=n, max_size=n))
    v = data.draw(st.lists(int_entries, min_size=n, max_size=n))
    got = int_mat_mul(a, b), int_mat_vec(a, v), int_dot(a[0], v)
    assert got == (mat_mul(mat(a), mat(b)), mat_vec(mat(a), vec(v)), mat_vec(mat(a), vec(v))[0])
    assert all(type(x) is int for x in sum(got[0], ()) + got[1] + (got[2],))


def _check_int_gram(frame):
    e, eg = int_gram(frame)
    assert eg == tuple(tuple(e * x for x in row) for row in frame.gram)
    assert all(type(x) is int for row in eg for x in row)
    assert math.gcd(e, *(x for row in eg for x in row)) == 1
    assert int_gram(frame) is int_gram(frame)


def test_int_gram_of_every_preset_frame():
    for name in PRESET_NAMES:
        _check_int_gram(preset(name).frame)


@given(st.integers(1, 3), st.data())
def test_int_gram_of_random_positive_definite_grams(n, data):
    # G = L L^T for a lower-triangular L with a positive diagonal
    low = [[data.draw(rationals) if j < i else abs(data.draw(rationals)) + Q(1, 7) if j == i else 0
            for j in range(n)] for i in range(n)]
    gram = mat_mul(mat(low), transpose(mat(low)))
    _check_int_gram(Frame(n, gram))


@given(rational_matrices(), st.data())
@settings(max_examples=250)
def test_int_rref_matches_the_fraction_rref(m, data):
    # the columns past ncols are carried along, as right-hand sides are
    ncols = data.draw(st.integers(0, len(m[0])))
    rows = [list(r) for r in m]
    pivots, det = old_rref(rows, ncols)
    s, aug = integral_rows(m)
    aug = list(aug)
    found, d, sign = int_rref(aug, ncols)
    assert found == pivots
    # aug / d is the reduced form of s m: the pivot rows of m's, s times the rest
    r = len(pivots)
    assert [[Q(x, d) for x in row] for row in aug] == rows[:r] + [[s * x for x in row] for row in rows[r:]]
    assert Q(sign * d, s ** len(pivots)) == det
