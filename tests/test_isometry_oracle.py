"""Differential oracle for the one Gram-orthogonality rule and the closed-form d_O.

old_check_isometry is the Fraction test Isometry ran before the int rule
(L^T G_t L == G_s, then det L = +-1 on one frame), old_lattice_isometries
the Fraction column search (with old_lattice_vectors_with_norm, the
candidate list it read from the package), old_iso_distance and old_iso_size the closed
d_O before iso_terms (the reference test_size_cap_oracle.py imports too),
and old_lattice_covering_sq the covering radius read off the P1 cell's
vertices, all verbatim.  The new code must accept exactly the linear parts
the old test accepts, return the same lattice isometries in the same order,
agree on d_O bitwise, and within 1e-12 with its definition through
decompose and the float operator_norm (exactly when the linear parts are
equal), and give the same covering radii.

Frames: Z^1, Z^2, hexagonal, Z^3, [[2,1],[1,2]], [[1,1,0],[1,2,1],[0,1,2]]
and primitive bcc.  Rotations are rational_rotation_2d and rational_givens
conjugated by a rational basis B with B^T B = G where one exists (Z^n, the
non-diagonal 3D frame, bcc); hexagonal and [[2,1],[1,2]] have det G = 3/4
and 3, not rational squares, so they have no rational B, and there, as in
every frame, rotations also come from Cayley transforms (1 - S)^-1 (1 + S)
of S = G^-1 K, K antisymmetric.  A G-reflection in a lattice vector makes
rotoreflections.

old_compose, old_inverse, old_iso_terms and old_normalizes_lattice are the
Fraction isometry arithmetic before it ran on the int forms (the inverse by
elimination, d_O's q through A^-1 B, the lattice test through mat_inv),
verbatim apart from their names.  On isometries of every frame, the Seitz
reps of every preset with rational shifts and the cross-frame maps that
conjugacy search and the automorphism embeddings give mld_check, the int
compose and inverse must give the same linear, translation and _ints (and
so the same isometry and hash), iso_terms the same (p, q), and each refusal
must be the same.  The lattice test answers the same on every endomorphism;
a map between two frames normalizes no lattice, and the new test says so.

compose, inverse, congruent, default_candidates, CrystalGroup.element and
conjugacy_search build isometries from ints without the public
constructor's Gram check (Isometry._of_ints).  Their outputs must still pass
it: on the drawn isometries above, the prototile pairs and distance
candidates of the seed-0 constructions, every preset rep and the
conjugacy maps between presets.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from crystile.groups import (
    PRESET_NAMES,
    conjugacy_search,
    lattice_isometries,
    lattice_points_in_ball,
    preset,
    validate_group,
)
from crystile.isometry import (
    Frame,
    Isometry,
    IsometryError,
    compose,
    decompose,
    hexagonal_frame,
    identity_iso,
    int_gram,
    inverse,
    iso_distance,
    is_gram_orthogonal,
    iso_terms,
    operator_norm,
    standard_frame,
    translation_iso,
)
from crystile.linalg import (
    gram_dot,
    gram_norm2,
    identity_mat,
    int_dot,
    int_mat_vec,
    is_integral_mat,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    transpose,
    vadd,
    vdot,
    vec,
    vsub,
    zero_vec,
)
from crystile.rational import ONE, Q, ZERO, rat, sqrt_float
from crystile.tiling import (
    _lattice_covering_sq,
    _normalizes_lattice,
    automorphism_group_with_embedding,
    default_candidates,
    mld_check,
    periodic_tiling,
    prototiles,
    transform_tiling,
)
from crystile.polytope import ConvexPolytope, congruent

from conftest import (random_rational_isometry, rational_givens, rational_rotation_2d,
                      seed0_construction)

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


def old_lattice_vectors_with_norm(frame: Frame, value) -> list:
    """Integer vectors with exact Gram norm^2 == value, sorted: the int ball
    points k with k.(EG)k == E value (isometry.int_gram), as Q tuples."""
    value = rat(value)
    e, eg = int_gram(frame)
    ev = e * value
    ball = lattice_points_in_ball(frame, zero_vec(frame.dim), value)
    return sorted(vec(k) for k in ball if int_dot(k, int_mat_vec(eg, k)) == ev)


def old_lattice_isometries(source, target) -> list:
    n = source.dim
    if target.dim != n:
        return []
    if mat_det(source.gram) != mat_det(target.gram):
        return []
    col_candidates = []
    for i in range(n):
        cands = old_lattice_vectors_with_norm(target, source.gram[i][i])
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


def old_iso_distance(origin, a: Isometry, b: Isometry) -> float:
    """d_O(a, b) = |a(O) - b(O)|_G + ||A - B||_op = sqrt(p) + sqrt(q), n <= 3:
    C = A^-1 B is orthogonal and ||A - B|| = ||1 - C||, so q = n - tr C when
    det C = 1 (2 - 2 cos t for a turn by t), and 4 when det C = -1 (eigenvalue -1)."""
    if a.frame != b.frame or a.target != b.target or a.frame != a.target:
        raise IsometryError("metric requires endomorphisms of one frame")
    n, o = a.frame.dim, vec(origin)
    if n > 3 or len(o) != n:
        raise IsometryError("the metric needs n <= 3 and an origin of the frame's dimension")
    trans = a.frame.norm(vsub(a(o), b(o)))
    if a.linear == b.linear:
        return trans
    if mat_det(a.linear) != mat_det(b.linear):
        return trans + 2.0
    tr = sum(vdot(row, col) for row, col in zip(mat_inv(a.linear), zip(*b.linear)))
    return trans + sqrt_float(n - tr)


def old_iso_size(origin, a: Isometry) -> float:
    """d_O(a, identity)."""
    return old_iso_distance(origin, a, identity_iso(a.frame))


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
    got = iso_distance(o, a, b)
    assert got.hex() == old_iso_distance(o, a, b).hex()
    # the definition, through decompose and the float operator norm
    da, db = decompose(a, o), decompose(b, o)
    want = frame.norm(vsub(da.trans_part, db.trans_part))
    if da.ortho_part != db.ortho_part:
        want += operator_norm(frame, mat_sub(da.ortho_part, db.ortho_part))
    assert got == want if a.linear == b.linear else abs(got - want) <= 1e-12 * max(1.0, want)


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


# --- the int isometry arithmetic against the Fraction one ----------------------------

def old_compose(a: Isometry, b: Isometry) -> Isometry:
    """a after b.  Frames must chain: b maps into a's source frame."""
    if b.target != a.frame:
        raise IsometryError("frame mismatch in composition")
    return Isometry(
        b.frame,
        mat_mul(a.linear, b.linear),
        vadd(mat_vec(a.linear, b.translation), a.translation),
        target=a.target,
    )


def old_inverse(a: Isometry) -> Isometry:
    linv = mat_inv(a.linear)
    return Isometry(a.target, linv, tuple(-x for x in mat_vec(linv, a.translation)), target=a.frame)


def old_iso_terms(origin, a: Isometry, b: Isometry = None):
    """Exact (p, q) with d_O(a, b) = sqrt(p) + sqrt(q), n <= 3, b by default the
    identity: p = |a(O) - b(O)|^2_G, and C = A^-1 B is orthogonal with ||A - B|| =
    ||1 - C||, so q = n - tr C if det C = 1 (2 - 2 cos t for a turn by t), else 4."""
    if a.frame != a.target or b is not None and (a.frame != b.frame or a.target != b.target):
        raise IsometryError("metric requires endomorphisms of one frame")
    n, o = a.frame.dim, vec(origin)
    if n > 3 or len(o) != n:
        raise IsometryError("the metric needs n <= 3 and an origin of the frame's dimension")
    b_o, b_lin = (o, identity_mat(n)) if b is None else (b(o), b.linear)
    p = a.frame.norm2(vsub(a(o), b_o))
    if a.linear == b_lin:
        return p, ZERO
    if mat_det(a.linear) != mat_det(b_lin):
        return p, Q(4)
    return p, n - sum(vdot(row, col) for row, col in zip(mat_inv(a.linear), zip(*b_lin)))


def old_normalizes_lattice(iso: Isometry) -> bool:
    return is_integral_mat(iso.linear) and is_integral_mat(mat_inv(iso.linear))


def outcome(f, *args):
    """f(*args), or the IsometryError it raised, as a comparable value."""
    try:
        return f(*args)
    except IsometryError as exc:
        return IsometryError, str(exc)


def assert_same_isometry(new, old):
    if isinstance(old, tuple):  # both refused, with the same message
        assert new == old
        return
    assert (new.frame, new.target) == (old.frame, old.target)
    assert new.linear == old.linear and new.translation == old.translation
    assert all(type(x) is Fraction for row in (*new.linear, new.translation) for x in row)
    assert new._ints == old._ints and new == old and hash(new) == hash(old)


def assert_same_arithmetic(a, b, origin):
    """compose, inverse, iso_terms (both forms) and the lattice test agree
    with the Fraction code on a, b and the origin."""
    assert_same_isometry(outcome(compose, a, b), outcome(old_compose, a, b))
    assert_same_isometry(outcome(compose, b, a), outcome(old_compose, b, a))
    for iso in (a, b):
        inv = inverse(iso)
        assert_same_isometry(inv, old_inverse(iso))
        assert_same_isometry(compose(inv, iso), old_compose(old_inverse(iso), iso))
        if iso.frame == iso.target:
            assert _normalizes_lattice(iso) == old_normalizes_lattice(iso)
        else:
            assert not _normalizes_lattice(iso)
    for args in ((origin, a), (origin, b), (origin, a, b), (origin, b, a)):
        assert outcome(iso_terms, *args) == outcome(old_iso_terms, *args)


def _shifted(frame, linear, rng, span=6):
    return Isometry(frame, linear, tuple(Q(rng.randint(-span, span), rng.randint(1, span))
                                         for _ in range(frame.dim)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FRAMES)), st.data())
def test_int_arithmetic_matches_old_on_gram_orthogonal_maps(name, data):
    frame = FRAMES[name][0]
    n = frame.dim
    neg = tuple(tuple(-x for x in row) for row in identity_mat(n))
    linears = st.one_of(gram_orthogonal(name), st.just(neg), st.just(identity_mat(n)))
    vecs = st.tuples(*[rationals] * n)
    a = Isometry(frame, data.draw(linears), data.draw(vecs))
    b = Isometry(frame, data.draw(st.one_of(linears, st.just(a.linear))), data.draw(vecs))
    assert_same_arithmetic(a, b, data.draw(vecs))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["Z2", "hex", "Z3"]), st.integers(0, 10**9))
def test_int_arithmetic_matches_old_on_random_rational_isometries(name, seed):
    # random_rational_isometry's Givens products are orthogonal for Z^n; the
    # hexagonal frame takes its lattice isometries with random shifts
    rng = random.Random(seed)
    frame = FRAMES[name][0]
    if name == "hex":
        a, b = (_shifted(frame, rng.choice(_lattice_isometries(name)), rng) for _ in "ab")
    else:
        a, b = (random_rational_isometry(rng, frame) for _ in "ab")
    origin = tuple(Q(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(frame.dim))
    assert_same_arithmetic(a, b, origin)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_int_arithmetic_matches_old_on_preset_reps(name):
    g = preset(name)
    rng = random.Random(name)
    isos = [_shifted(g.frame, m, rng) for m, _ in g.reps]
    isos += [Isometry(g.frame, m, v) for m, v in g.reps]
    origin = tuple(Q(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(g.dim))
    for a in isos:
        assert_same_arithmetic(a, rng.choice(isos), origin)


def _half_scale():
    """Z^2 cut into four half-size squares: its translations form the denser
    lattice (Z/2)^2, so its automorphism group lives in another frame."""
    f2 = standard_frame(2)
    h = Q(1, 2)
    return periodic_tiling(f2, [ConvexPolytope(f2, [(a, b), (a + h, b), (a, b + h), (a + h, b + h)])
                                for a in (0, h) for b in (0, h)])


def _cross_frame_maps():
    """The maps between two frames that mld_check composes: conjugacy_search's
    gamma between a preset and its conjugate in another basis (both ways),
    and the embedding of the half-scale tiling's denser lattice."""
    maps = []
    for name, u in CROSS_FRAME:
        g1 = preset(name)
        g2 = _conjugated(g1, u)
        maps += [conjugacy_search(g1, g2), conjugacy_search(g2, g1)]
    maps.append(automorphism_group_with_embedding(_half_scale())[1])
    return maps


def test_int_arithmetic_matches_old_on_cross_frame_maps():
    rng = random.Random(5)
    maps = _cross_frame_maps()
    assert all(m.frame != m.target for m in maps)
    for gamma in maps:
        origin = tuple(Q(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(gamma.frame.dim))
        back = inverse(gamma)
        # the chains mld_check builds, and each map against its inverse
        one = identity_iso(gamma.target)
        assert_same_arithmetic(gamma, back, origin)
        assert_same_isometry(compose(one, gamma), old_compose(one, gamma))
        assert_same_isometry(compose(gamma, compose(back, one)),
                             old_compose(gamma, old_compose(old_inverse(gamma), one)))


def test_mld_check_gamma_matches_old_arithmetic(monkeypatch):
    # mld_check of the half-scale tiling against itself composes the dense
    # embedding, the conjugacy search's map and the embedding's inverse
    from crystile import tiling as tiling_mod

    half = _half_scale()
    new = mld_check(half, half)
    monkeypatch.setattr(tiling_mod, "compose", old_compose)
    monkeypatch.setattr(tiling_mod, "inverse", old_inverse)
    assert_same_isometry(new, mld_check(half, half))


# --- the Gram rule on the producers that do not check it --------------------------

def assert_gram_orthogonal(iso):
    """iso's int form passes the rule the public constructor checks."""
    m, a, _ = iso._ints
    assert is_gram_orthogonal(m, a, int_gram(iso.frame), int_gram(iso.target))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FRAMES)), st.data())
def test_compose_and_inverse_keep_the_gram_rule(name, data):
    frame = FRAMES[name][0]
    vecs = st.tuples(*[rationals] * frame.dim)
    a, b = (Isometry(frame, data.draw(gram_orthogonal(name)), data.draw(vecs)) for _ in "ab")
    for iso in (compose(a, b), compose(b, a), inverse(a), inverse(compose(a, b))):
        assert_gram_orthogonal(iso)


def test_group_elements_and_conjugacy_maps_keep_the_gram_rule():
    groups = [preset(name) for name in PRESET_NAMES]
    for g in groups:
        for m in g.point_parts():
            assert_gram_orthogonal(g.element(m))
    maps = _cross_frame_maps() + [conjugacy_search(g, g) for g in groups]
    for gamma in maps:
        assert_gram_orthogonal(gamma)
        assert_gram_orthogonal(inverse(gamma))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_congruences_and_distance_candidates_keep_the_gram_rule(name):
    t = seed0_construction(name)
    for members in prototiles(t):
        for i in members:
            assert_gram_orthogonal(congruent(t.cell_tiles[members[0]], t.cell_tiles[i]))
    shift = translation_iso(t.frame, (Q(1, 3), Q(1, 7), Q(1, 5))[:t.dim])
    pairs = default_candidates(t, transform_tiling(t, shift), (0,) * t.dim)
    assert len(pairs) > 1
    for phi, psi in pairs:
        assert_gram_orthogonal(phi)
        assert_gram_orthogonal(psi)
