"""Differential oracle for the one Gram-orthogonality rule and the closed-form d_O.

old_check_isometry is the Fraction test Isometry ran before the int rule
(L^T G_t L == G_s, then det L = +-1 on one frame), old_lattice_isometries
the Fraction column search, old_iso_distance the metric through decompose
and the float operator_norm, and old_lattice_covering_sq the covering radius
read off the P1 cell's vertices, all verbatim.  The new code must accept
exactly the linear parts the old test accepts, return the same lattice
isometries in the same order, agree on d_O within 1e-12 (bitwise when the
linear parts are equal) and give the same covering radii.

Frames: Z^1, Z^2, hexagonal, Z^3, [[2,1],[1,2]], [[1,1,0],[1,2,1],[0,1,2]]
and primitive bcc.  Rotations are rational_rotation_2d and rational_givens
conjugated by a rational basis B with B^T B = G where one exists (Z^n, the
non-diagonal 3D frame, bcc); hexagonal and [[2,1],[1,2]] have det G = 3/4
and 3, not rational squares, so they have no rational B, and there, as in
every frame, rotations also come from Cayley transforms (1 - S)^-1 (1 + S)
of S = G^-1 K, K antisymmetric.  A G-reflection in a lattice vector makes
rotoreflections.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from crystile.groups import (
    PRESET_NAMES,
    conjugacy_search,
    lattice_isometries,
    lattice_vectors_with_norm,
    preset,
    validate_group,
)
from crystile.isometry import (
    Frame,
    Isometry,
    IsometryError,
    decompose,
    hexagonal_frame,
    identity_iso,
    inverse,
    iso_distance,
    operator_norm,
    rational_givens,
    rational_rotation_2d,
    standard_frame,
)
from crystile.linalg import (
    gram_dot,
    gram_norm2,
    identity_mat,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    transpose,
    vsub,
    zero_vec,
)
from crystile.rational import ONE, Q, ZERO
from crystile.tiling import _lattice_covering_sq

NONDIAG_BASIS = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
BCC_BASIS = tuple(tuple(Q(x, 2) for x in row) for row in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)))


def _gram(basis):
    b = mat(basis)
    return mat_mul(transpose(b), b)


FRAMES = {
    "Z1": (standard_frame(1), ((1,),)),
    "Z2": (standard_frame(2), ((1, 0), (0, 1))),
    "hex": (hexagonal_frame(), None),
    "Z3": (standard_frame(3), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    "g2-nondiag": (Frame(2, ((2, 1), (1, 2))), None),
    "g3-nondiag": (Frame(3, _gram(NONDIAG_BASIS)), NONDIAG_BASIS),
    "bcc": (Frame(3, _gram(BCC_BASIS)), BCC_BASIS),
}


# --- the old code, verbatim -------------------------------------------------

def old_check_isometry(frame, linear, target):
    """Isometry.__post_init__'s Gram test before the int rule, verbatim."""
    pulled = mat_mul(transpose(linear), mat_mul(target.gram, linear))
    if pulled != frame.gram:
        raise IsometryError("linear part is not Gram-orthogonal")
    if frame == target:
        d = mat_det(linear)
        if d != 1 and d != -1:
            raise IsometryError("determinant must be +-1")


def old_lattice_isometries(source, target) -> list:
    n = source.dim
    if target.dim != n:
        return []
    if mat_det(source.gram) != mat_det(target.gram):
        return []
    col_candidates = []
    for i in range(n):
        cands = lattice_vectors_with_norm(target, source.gram[i][i])
        ei = tuple(ONE if j == i else ZERO for j in range(n))
        cands.sort(key=lambda u: (u != ei, u))
        col_candidates.append(cands)
    results = []

    def extend(cols):
        i = len(cols)
        if i == n:
            u = transpose(tuple(cols))
            d = mat_det(u)
            if d == 1 or d == -1:
                results.append(u)
            return
        for cand in col_candidates[i]:
            ok = True
            for j, prev in enumerate(cols):
                if gram_dot(target.gram, cand, prev) != source.gram[i][j]:
                    ok = False
                    break
            if ok:
                extend(cols + [cand])

    extend([])
    return results


def old_iso_distance(origin, a, b) -> float:
    if a.frame != b.frame or a.target != b.target or a.frame != a.target:
        raise IsometryError("metric requires endomorphisms of one frame")
    da = decompose(a, origin)
    db = decompose(b, origin)
    trans = a.frame.norm(vsub(da.trans_part, db.trans_part))
    if da.ortho_part == db.ortho_part:
        return trans
    return trans + operator_norm(a.frame, mat_sub(da.ortho_part, db.ortho_part))


def old_lattice_covering_sq(frame):
    from crystile.groups import span_seitz
    from crystile.voronoi import cell_with_certificate

    p1 = span_seitz(frame, [])
    cell, _ = cell_with_certificate(p1, zero_vec(frame.dim))
    return max(gram_norm2(frame.gram, v) for v in cell.vertices)


# --- Gram-orthogonal matrices -------------------------------------------------

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 9))
nonzero = rationals.filter(lambda q: q != 0)


@st.composite
def cayley(draw, frame):
    """(1 - S)^-1 (1 + S) for S = G^-1 K, K antisymmetric: Gram-orthogonal."""
    n = frame.dim
    upper = {(i, j): draw(rationals) for i in range(n) for j in range(i + 1, n)}
    k = tuple(tuple(upper[i, j] if i < j else -upper[j, i] if j < i else ZERO
                    for j in range(n)) for i in range(n))
    s = mat_mul(mat_inv(frame.gram), k)
    one = identity_mat(n)
    return mat_mul(mat_inv(mat_sub(one, s)), tuple(tuple(a + b for a, b in zip(r1, r2))
                                                   for r1, r2 in zip(one, s)))


@st.composite
def conjugated_rotation(draw, n, basis):
    """B^-1 R B for a rational rotation R (rational_rotation_2d or a product
    of rational_givens): Gram-orthogonal for G = B^T B."""
    if n == 2:
        r = rational_rotation_2d(draw(rationals))
    else:
        r = identity_mat(n)
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.permutations(range(n)))[:2]
            r = mat_mul(r, rational_givens(n, i, j, draw(rationals)))
    b = mat(basis)
    return mat_mul(mat_inv(b), mat_mul(r, b))


def reflection(frame, v):
    """x |-> x - 2 (v.Gx / v.Gv) v, the G-reflection in the hyperplane G-orthogonal to v."""
    n = frame.dim
    gv = mat_vec(frame.gram, v)
    vv = gram_norm2(frame.gram, v)
    return tuple(tuple((ONE if i == j else ZERO) - 2 * v[i] * gv[j] / vv for j in range(n))
                 for i in range(n))


@st.composite
def gram_orthogonal(draw, name):
    """A Gram-orthogonal rational matrix of the named frame: a lattice
    isometry (-1 among them), a conjugated rotation or a Cayley transform,
    perhaps times a reflection in a lattice vector."""
    frame, basis = FRAMES[name]
    n = frame.dim
    kinds = ["lattice", "cayley"] + (["conjugated"] if basis is not None and n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "lattice":
        return draw(st.sampled_from(_lattice_isometries(name)))
    m = draw(cayley(frame)) if kind == "cayley" else draw(conjugated_rotation(n, basis))
    if draw(st.booleans()):
        v = tuple(Q(x) for x in draw(st.tuples(*[st.integers(-2, 2)] * n)))
        if any(v):
            m = mat_mul(m, reflection(frame, v))
    return m


@lru_cache(maxsize=None)
def _lattice_isometries(name):
    frame = FRAMES[name][0]
    return lattice_isometries(frame, frame)


def shears(n):
    """The det-1 shears 1 + k E_ij, i != j, k = +-1, +-2."""
    return [tuple(tuple(ONE if a == b else Q(k) if (a, b) == (i, j) else ZERO for b in range(n))
                  for a in range(n))
            for i in range(n) for j in range(n) if i != j for k in (-2, -1, 1, 2)]


def _verdicts(frame, linear, target=None):
    target = frame if target is None else target
    try:
        old_check_isometry(frame, mat(linear), target)
        old = True
    except IsometryError:
        old = False
    try:
        Isometry(frame, linear, zero_vec(frame.dim), target=target)
        new = True
    except IsometryError:
        new = False
    return old, new


# --- the rule -----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FRAMES)), st.data())
def test_rule_matches_old_on_gram_orthogonal_maps(name, data):
    frame = FRAMES[name][0]
    m = data.draw(gram_orthogonal(name))
    assert _verdicts(frame, m) == (True, True)
    # the same matrix with one entry changed
    n = frame.dim
    i, j, r = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)), data.draw(nonzero)
    bent = tuple(tuple(x + r if (a, b) == (i, j) else x for b, x in enumerate(row))
                 for a, row in enumerate(m))
    old, new = _verdicts(frame, bent)
    assert old == new


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_rule_matches_old_on_preset_point_parts(name):
    g = preset(name)
    for m in g.point_parts():
        assert _verdicts(g.frame, m) == (True, True)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_rule_matches_old_on_shears(name):
    frame = FRAMES[name][0]
    for m in shears(frame.dim):
        assert _verdicts(frame, m) == (False, False)


def _conjugated(g, u):
    """g in the basis u of its lattice: frame U^T G U, Seitz pairs (U^-1 M U, U^-1 v)."""
    u = mat(u)
    uinv = mat_inv(u)
    frame = Frame(g.dim, mat_mul(transpose(u), mat_mul(g.frame.gram, u)))
    return validate_group(frame, [(mat_mul(uinv, mat_mul(m, u)), mat_vec(uinv, v))
                                  for m, v in g.reps])


CROSS_FRAME = [
    ("p4g", ((2, 1), (1, 1))),
    ("p6m", ((1, 1), (0, 1))),
    ("cmm", ((1, 1), (0, 1))),
    ("P222", NONDIAG_BASIS),
]


@pytest.mark.parametrize("name, u", CROSS_FRAME)
def test_rule_matches_old_on_cross_frame_maps(name, u):
    g1 = preset(name)
    g2 = _conjugated(g1, u)
    assert g2.frame != g1.frame
    for a, b in ((g1, g2), (g2, g1)):
        gamma = conjugacy_search(a, b)
        assert gamma is not None
        assert _verdicts(a.frame, gamma.linear, b.frame) == (True, True)
        assert _verdicts(b.frame, inverse(gamma).linear, a.frame) == (True, True)
        n = a.dim
        for i in range(n):
            bent = tuple(tuple(x + (i == c) for c, x in enumerate(row)) if r == i else row
                         for r, row in enumerate(gamma.linear))
            assert _verdicts(a.frame, bent, b.frame) == (False, False)


def test_rule_matches_old_on_basis_changes():
    # x |-> B x maps bcc coordinates to Cartesian ones, over k = 2 and E = 4 against E = 1
    for name in ("bcc", "g3-nondiag"):
        frame, basis = FRAMES[name]
        z3 = FRAMES["Z3"][0]
        b = mat(basis)
        assert _verdicts(frame, b, z3) == (True, True)
        assert _verdicts(z3, mat_inv(b), frame) == (True, True)
        assert _verdicts(frame, mat_mul(b, b), z3) == (False, False)


def test_det1_shear_is_rejected(frame2):
    with pytest.raises(IsometryError):
        Isometry(frame2, ((1, 1), (0, 1)), (0, 0))


def test_gram_orthogonal_det_minus_one_is_accepted(hexframe):
    # the mirror swapping the two hexagonal basis vectors
    iso = Isometry(hexframe, ((0, 1), (1, 0)), (Q(1, 3), 0))
    assert mat_det(iso.linear) == -1


def test_ragged_linear_part_is_rejected(frame2):
    with pytest.raises(IsometryError):
        Isometry(frame2, ((1, 0), (0, 1, 0)), (0, 0))


# --- lattice_isometries ----------------------------------------------------------

@pytest.mark.parametrize("source", sorted(FRAMES))
@pytest.mark.parametrize("target", sorted(FRAMES))
def test_lattice_isometries_match_old(source, target):
    s, t = FRAMES[source][0], FRAMES[target][0]
    assert lattice_isometries(s, t) == old_lattice_isometries(s, t)


# --- d_O -------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FRAMES)), st.data())
def test_iso_distance_matches_old(name, data):
    frame = FRAMES[name][0]
    n = frame.dim
    vecs = st.tuples(*[rationals] * n)
    neg = tuple(tuple(-x for x in row) for row in identity_mat(n))
    linears = st.one_of(gram_orthogonal(name), st.just(neg), st.just(identity_mat(n)))
    a = Isometry(frame, data.draw(linears), data.draw(vecs))
    b = Isometry(frame, data.draw(st.one_of(linears, st.just(a.linear))), data.draw(vecs))
    o = data.draw(vecs)
    new, old = iso_distance(o, a, b), old_iso_distance(o, a, b)
    if a.linear == b.linear:
        assert new == old
    else:
        assert abs(new - old) <= 1e-12 * max(1.0, old)


def test_iso_distance_closed_form_examples(frame2, frame3):
    neg = Isometry(frame3, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)), (0, 0, 0))
    assert iso_distance((0, 0, 0), neg, identity_iso(frame3)) == 2.0
    quarter = Isometry(frame2, ((0, -1), (1, 0)), (0, 0))
    assert iso_distance((0, 0), quarter, identity_iso(frame2)) == math.sqrt(2)


def test_iso_distance_refuses_4d():
    frame = standard_frame(4)
    with pytest.raises(IsometryError):
        iso_distance((0, 0, 0, 0), identity_iso(frame), identity_iso(frame))


# --- the covering radius ------------------------------------------------------------

@pytest.mark.parametrize("name, expected", [
    ("Z1", Q(1, 4)), ("Z2", Q(1, 2)), ("hex", Q(1, 3)), ("Z3", Q(3, 4)), ("bcc", Q(5, 16)),
])
def test_lattice_covering_sq_matches_old(name, expected):
    frame = FRAMES[name][0]
    assert _lattice_covering_sq(frame) == old_lattice_covering_sq(frame) == expected
