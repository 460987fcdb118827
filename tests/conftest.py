import math
import random
import sys
from functools import cmp_to_key, lru_cache
from itertools import combinations, product

import pytest

from crystile.construction import construct_tiling
from crystile.groups import (
    MAX_GROUP_ORDER,
    CrystalGroup,
    GroupValidationError,
    _int_seitz_translation,
    preset,
)
from crystile.rational import ONE, Q, ZERO, frac_part, isqrt_ceil_ratio, rat
from crystile.linalg import (
    int_mat_mul,
    Mat,
    Vec,
    identity_mat,
    int_mat_vec,
    integral,
    integral_rows,
    is_integral,
    is_integral_mat,
    mat,
    mat_mul,
    mat_vec,
    transpose,
    vdot,
    vec,
    vsub,
    zero_vec,
)
from crystile.isometry import (
    Frame,
    Isometry,
    hexagonal_frame,
    int_gram,
    is_gram_orthogonal,
    standard_frame,
)
from crystile.polytope import (
    ConvexPolytope,
    HalfSpace,
    InteriorOverlapError,
    _fan,
    faces,
    meet_face_to_face,
    volume,
)
from crystile.tiling import PeriodicTiling, periodic_tiling


def isqrt_ceil(q) -> int:
    """Smallest integer m >= 0 with m*m >= q, for an int or Q q >= 0: the
    rational form of isqrt_ceil_ratio that the reference code reads."""
    return isqrt_ceil_ratio(q.numerator, q.denominator)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps the function module.name for the test,
    wherever a loaded crystile module binds it (under any name), and returns
    a list that gets the name appended on every call; pass calls= to share
    one list between several wrapped functions.  A class, such as the
    rational type Q that isinstance tests also read, is wrapped in module
    only."""

    def wrap(module, name, calls=None):
        calls = [] if calls is None else calls
        real = getattr(module, name)
        counted = lambda *a, **k: calls.append(name) or real(*a, **k)
        if isinstance(real, type):
            monkeypatch.setattr(module, name, counted)
            return calls
        for mod in [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "crystile"]:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
        return calls

    return wrap


@lru_cache(maxsize=None)
def seed0_construction(name):
    """construct_tiling(preset(name), 0), built once per test session."""
    return construct_tiling(preset(name), 0)


@pytest.fixture(scope="session")
def frame2():
    return standard_frame(2)


@pytest.fixture(scope="session")
def frame3():
    return standard_frame(3)


@pytest.fixture(scope="session")
def hexframe():
    return hexagonal_frame()


@pytest.fixture(scope="session")
def square_tiling(frame2):
    sq = ConvexPolytope(frame2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    return periodic_tiling(frame2, [sq])


@pytest.fixture(scope="session")
def rhomb_tiling(frame2):
    rh = ConvexPolytope(frame2, [(0, 0), (1, 0), (2, 1), (1, 1)])
    return periodic_tiling(frame2, [rh])


@pytest.fixture(scope="session")
def half_scale_tiling(frame2):
    h = Q(1, 2)
    tiles = [
        ConvexPolytope(frame2, [(a, b), (a + h, b), (a, b + h), (a + h, b + h)])
        for a in (0, h)
        for b in (0, h)
    ]
    return periodic_tiling(frame2, tiles)


def is_integral_vec(u: Vec) -> bool:
    return all(is_integral(a) for a in u)


def fan_simplices(poly: ConvexPolytope):
    """The simplices of the pulling triangulation polytope._fan, as polytopes."""
    return [ConvexPolytope(poly.frame, [poly.vertices[i] for i in s]) for s in _fan(poly)]


def rational_rotation_2d(t) -> Mat:
    """Rational point on SO(2) from the tangent-half-angle parameter t."""
    return rational_givens(2, 0, 1, t)


def rational_givens(n: int, i: int, j: int, t) -> Mat:
    r = [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
    t = rat(t)
    d = 1 + t * t
    c = (1 - t * t) / d
    s = 2 * t / d
    r[i][i] = c
    r[j][j] = c
    r[i][j] = -s
    r[j][i] = s
    return tuple(tuple(row) for row in r)


def random_rational_orthogonal(rng: random.Random, n: int):
    """Exact rational orthogonal matrix (standard frame) from Givens factors."""
    m = identity_mat(n)
    for _ in range(rng.randint(1, 3)):
        if n == 2:
            i, j = 0, 1
        else:
            i, j = rng.sample(range(n), 2)
        t = Q(rng.randint(-12, 12), rng.randint(1, 12))
        m = mat_mul(m, rational_givens(n, i, j, t))
    if rng.random() < 0.5:
        refl = [[Q(1) if a == b else Q(0) for b in range(n)] for a in range(n)]
        refl[0][0] = Q(-1)
        m = mat_mul(m, tuple(tuple(r) for r in refl))
    return m


def random_rational_isometry(rng: random.Random, frame: Frame, span: int = 6) -> Isometry:
    lin = random_rational_orthogonal(rng, frame.dim)
    trans = tuple(
        Q(rng.randint(-span, span), rng.randint(1, span)) for _ in range(frame.dim)
    )
    return Isometry(frame, lin, trans)


def random_rational_point(rng: random.Random, n: int, span: int = 6):
    return tuple(Q(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n))


# linalg's Gauss-Jordan routine on Fractions and the wrappers and polytope
# helpers that ran on it before the int elimination kernel (linalg.int_rref),
# verbatim but for the old_ prefix: the reference of int_rref, of the int hull
# and congruent (test_polytope_oracle.py) and of the helpers below, so that no
# reference calls the code it checks
def old_rref(rows: list, ncols: int):
    """Gauss-Jordan elimination of `rows` (lists, changed in place) to reduced
    row echelon form, searching the first ncols columns for pivots; further
    columns (right-hand sides, an identity block) are carried along.

    Returns (pivot columns, det), where det is the product of the pivots
    times the sign of the row swaps: the determinant when the matrix is
    square and of full rank.
    """
    nrows = len(rows)
    pivots = []
    det = ONE
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        det *= rows[r][col]
        inv = ONE / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots, det


def old_mat_inv(m: Mat) -> Mat:
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    if len(old_rref(aug, n)[0]) != n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in aug)


def old_solve_linear(m: Mat, b: Vec):
    """Solve m x = b exactly; None if inconsistent, a solution otherwise.

    For underdetermined consistent systems, free variables are set to 0.
    """
    ncols = len(m[0]) if m else 0
    aug = [list(row) + [bi] for row, bi in zip(m, b)]
    pivots, _ = old_rref(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        return None
    x = [ZERO] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return tuple(x)


def old_mat_rank(m: Mat) -> int:
    if not m:
        return 0
    return len(old_rref([list(r) for r in m], len(m[0]))[0])


def old_nullspace(m: Mat) -> list:
    """Basis of {x : m x = 0}."""
    ncols = len(m[0]) if m else 0
    rows = [list(r) for r in m]
    pivots, _ = old_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return basis


def old_affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    return old_mat_rank(tuple(vsub(p, p0) for p in points[1:]))


def old_centroid(points):
    return tuple(sum(c, ZERO) / len(points) for c in zip(*points))


def old_independent_points(pts, rank):
    """Indices of pts[0] and of each later point whose direction from it is
    independent of the directions before, until rank directions are found
    (fewer when the points span less)."""
    p0 = pts[0]
    dirs, out = [], [0]
    for i in range(1, len(pts)):
        if len(dirs) == rank:
            break
        d = vsub(pts[i], p0)
        if old_mat_rank(tuple(dirs + [d])) > len(dirs):
            dirs.append(d)
            out.append(i)
    return out


# the halfspace key the kernel once deduplicated facets by, verbatim: the key
# every facet set below is compared with
def _halfspace_key(h: HalfSpace):
    """(covector, offset) scaled so the first nonzero entry is +-1: equal
    for halfspaces that are the same set."""
    scale = ONE / abs(next(x for x in h.covector if x != 0))
    return tuple(x * scale for x in h.covector), h.offset * scale


def facet_key_set(halfspaces):
    """Halfspaces as a set, each scaled so its first nonzero covector entry is +-1."""
    return frozenset(map(_halfspace_key, halfspaces))


def from_vertices(frame, vertices, facets, tight=None):
    """The polytope on exact, distinct, sorted Q vertices, as is, with its
    stored facet pairs (or None) and tight sets: its vertices scaled to the
    reduced int rows the kernel stores.  The one place the reference code
    below and in the oracles hands Q vertices to the kernel."""
    return ConvexPolytope._from_rows(frame, *integral_rows(vertices), facets, tight)


def with_halfspaces(frame, vertices, halfspaces, tight=None):
    """from_vertices with the facets given as HalfSpaces (or None), stored
    as the kernel stores them: the one place the reference code below and
    in the oracles hands HalfSpaces to the kernel."""
    facets = None if halfspaces is None else tuple(
        integral(h.covector + (h.offset,)) for h in halfspaces)
    return from_vertices(frame, vertices, facets, tight)


def halfspaces(poly):
    """poly's facets as HalfSpaces, None for a lower-dimensional poly: what
    the reference code read from poly._facets when the kernel stored them so."""
    return None if poly._facets is None else poly.facets()


# the nullspace covector the kernel's cones once used, verbatim: the
# reference of the int cone planes and of _supporting_halfspaces below
def _coordinate_normal(points):
    """Coordinate functional vanishing on the affine hull of n points (rank n-1)."""
    p0 = points[0]
    rows = tuple(vsub(p, p0) for p in points[1:])
    ker = old_nullspace(rows)
    if len(ker) != 1:
        return None
    return ker[0]


# construction._cone as it was when it ran in Fraction, verbatim but for its
# name and the conftest helper it builds through: the reference of the cones
def old_cone(fpoly: ConvexPolytope, h: HalfSpace, apex) -> ConvexPolytope:
    """conv(fpoly + apex) with its facets: the base facet h, then the plane
    through the apex and each ridge of fpoly (a ring edge in space, an
    endpoint in the plane), facing a vertex of fpoly off that ridge; on the
    line, the plane -a.x >= -a.apex through the apex."""
    facets = [h]
    if fpoly.dim == 0:
        a = tuple(-x for x in h.covector)
        facets.append(HalfSpace(a, vdot(a, apex)))
    else:
        for ridge in faces(fpoly, fpoly.dim - 1):
            a = _coordinate_normal([apex, *ridge.vertices])
            c = vdot(a, apex)
            q = next(v for v in fpoly.vertices if v not in ridge.vertices)
            if vdot(a, q) < c:
                a, c = tuple(-x for x in a), -c
            facets.append(HalfSpace(a, c))
    return with_halfspaces(fpoly.frame, tuple(sorted((*fpoly.vertices, apex))), tuple(facets))


# the supporting-plane pass the kernel's hull once ran, verbatim: the reference
# of recovered_facets
def _supporting_halfspaces(n: int, pts):
    """All supporting hyperplanes of conv(pts) in R^n spanned by point subsets.

    Brute force over n-subsets; used only on vertex data from outside.
    """
    found = {}
    for sub in combinations(pts, n):
        if old_affine_rank(sub) != n - 1:
            continue
        f = _coordinate_normal(sub)
        if f is None:
            continue
        c = vdot(f, sub[0])
        vals = [vdot(f, p) for p in pts]
        if all(v >= c for v in vals):
            pass
        elif all(v <= c for v in vals):
            f = tuple(-x for x in f)
            c = -c
        else:
            continue
        h = HalfSpace(f, c)
        found.setdefault(_halfspace_key(h), h)
    return list(found.values())


# the exact angular sort that ordered a polygon's ring before rings were
# walked along edges, and the plane coordinates it sorted in space, verbatim:
# the reference of the walked rings
def _angular_cmp(a, b):
    # exact CCW comparison of nonzero direction vectors (2 components)
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _sort_ccw(points, center):
    dirs = [(vsub(p, center), p) for p in points]
    dirs.sort(key=cmp_to_key(lambda x, y: _angular_cmp(x[0], y[0])))
    return [p for _, p in dirs]


def _independent_directions(pts, rank):
    return [vsub(pts[i], pts[0]) for i in old_independent_points(pts, rank)[1:]]


def _affine_coords(p, p0, basis):
    cols = transpose(tuple(basis))
    return old_solve_linear(cols, vsub(p, p0))


def _plane_coords(pts):
    """Affine coordinates of coplanar points in space, from the first point
    along the first two independent directions."""
    basis = _independent_directions(pts, 2)
    return [_affine_coords(p, pts[0], basis) for p in pts]


def old_ring(poly):
    """The ring of a polygon by angle about its centroid: CCW in the plane,
    and in space CCW in the plane coordinates of _plane_coords."""
    pts = poly.vertices
    coords = pts if poly.frame.dim == 2 else _plane_coords(pts)
    back = dict(zip(coords, pts))
    return tuple(back[c] for c in _sort_ccw(coords, old_centroid(coords)))


def same_cycle(a, b):
    """True when the sequences a and b are one cycle, up to rotation and
    reversal."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b) or set(a) != set(b):
        return False
    doubled = b + b
    return any(doubled[i:i + len(a)] in (a, a[::-1]) for i in range(len(b)))


def recovered_facets(frame, poly):
    """The facets of a full-dimensional polytope recovered from its vertices
    alone, as the polytope kernel once did on first use: the reference that
    every carried facet set is compared against."""
    n = frame.dim
    pts = poly.vertices
    if n == 1:
        lo, hi = pts[0][0], pts[-1][0]
        return (HalfSpace((ONE,), lo), HalfSpace((-ONE,), -hi))
    if n == 2:
        cyc = old_ring(poly)
        out = []
        c = old_centroid(pts)
        for i, u in enumerate(cyc):
            w = cyc[(i + 1) % len(cyc)]
            d = vsub(w, u)
            f = (-d[1], d[0])
            cv = f[0] * u[0] + f[1] * u[1]
            if f[0] * c[0] + f[1] * c[1] < cv:
                f = (-f[0], -f[1])
                cv = -cv
            out.append(HalfSpace(f, cv))
        return tuple(out)
    return tuple(_supporting_halfspaces(n, pts))


def bare(frame, points, facets=None):
    """The polytope whose vertices are exactly the given points, not hulled.
    A full-dimensional one carries the given facets, or recovered_facets
    when none are given."""
    pts = tuple(sorted(set(map(vec, points))))
    if facets is None and old_affine_rank(pts) == frame.dim:
        facets = recovered_facets(frame, from_vertices(frame, pts, None))
    return with_halfspaces(frame, pts, facets)


# the pairwise neighbour scan that once explained a rejected tiling, verbatim
# but for its public name: the reference whose verdicts validate_tiling's
# facet matching must reproduce
PAIRWISE_MAX_OFFSETS = 2048  # neighbor offsets a rejection's pairwise scan may visit


def pairwise_problems(tiling: PeriodicTiling) -> list:
    """Full-dimensionality, unit covolume, and pairwise face classification
    of neighbors (meet_face_to_face); explains why a tiling is rejected.

    Neighbor offsets are derived from bounding boxes, which covers at
    least the 3x3(x3) block and also catches wide tiles whose neighbors
    sit further out.  When the boxes give more than PAIRWISE_MAX_OFFSETS
    offsets in all, the scan is skipped and one problem names the count,
    so a long thin tile cannot make the explanation run unboundedly long.
    """
    problems = []
    n = tiling.frame.dim
    total = ZERO
    for t in tiling.cell_tiles:
        if t.dim != n:
            problems.append("tile is not full-dimensional")
            return problems
        total += volume(t)
    if total != 1:
        problems.append(f"cell volumes sum to {total}, expected 1")
    tiles = tiling.cell_tiles
    offsets = sum(math.prod(map(len, _offset_ranges(t, s)))
                  for i, t in enumerate(tiles) for s in tiles[i:])
    if offsets > PAIRWISE_MAX_OFFSETS:
        problems.append(
            f"pairwise scan skipped: its {offsets} neighbor offsets exceed "
            f"PAIRWISE_MAX_OFFSETS = {PAIRWISE_MAX_OFFSETS}"
        )
        return problems
    for i, t in enumerate(tiling.cell_tiles):
        for j in range(i, len(tiling.cell_tiles)):
            s = tiling.cell_tiles[j]
            for k in product(*_offset_ranges(t, s)):
                if i == j:
                    nz = next((c for c in k if c != 0), 0)
                    if nz <= 0:
                        continue  # skip self and one of each +-k pair
                shifted = s.translate(tuple(Q(c) for c in k))
                if _quick_separated(t, shifted):
                    continue
                try:
                    res = meet_face_to_face(t, shifted)
                except InteriorOverlapError:
                    problems.append(f"tiles {i} and {j}+{k} have overlapping interiors")
                    continue
                if res.kind == "violation":
                    problems.append(
                        f"tiles {i} and {j}+{k} meet in a non-face: {res.witness}"
                    )
    return problems


def _offset_ranges(a: ConvexPolytope, b: ConvexPolytope) -> list:
    """Per axis, the integer offsets k at which b + k can meet a, from
    their bounding boxes."""
    return [
        range(math.ceil(lo1 - hi2), math.floor(hi1 - lo2) + 1)
        for (lo1, hi1), (lo2, hi2) in zip(a.bounding_box(), b.bounding_box())
    ]


def _quick_separated(a: ConvexPolytope, b: ConvexPolytope) -> bool:
    """True when some facet of one tile strictly separates the other."""
    for p, q in ((a, b), (b, a)):
        for h in p.facets():
            if all(vdot(h.covector, v) < h.offset for v in q.vertices):
                return True
    return False


# validate_group and span_seitz before span_seitz returned its closure and
# validate_group closed its greedy generators with _int_closure: the
# point-part product table, its _generated walk, span_seitz re-checking its
# closure through validate_group, and the closure that refused a clash of
# translations only through that check, verbatim but for the table_ prefix,
# with groups._canon_seitz, which they read and groups no longer keeps
# since its Seitz pairs are ints; the reference of tests/test_group_oracle.py
def _canon_seitz(m: Mat, v: Vec):
    """Seitz pair with an int point part (m must be integral) and the
    translation reduced to [0,1)^n."""
    return (tuple(tuple(int(x) for x in row) for row in m), tuple(frac_part(x) for x in v))


def table_validate_group(frame: Frame, seitz_pairs, name: str = None) -> CrystalGroup:
    """Canonicalize and check a group description; raises GroupValidationError.

    The checks run in this order, each on ints, and a failing stage raises
    with its violations before the next one runs:

    1. per rep: the shape, an integer point part M, and Gram-orthogonality
       M^T (E G) M == E G on the frame's int_gram, by the rule Isometry uses
       (isometry.is_gram_orthogonal); det M = +-1 follows, as det G != 0;
    2. the identity is present and no point part occurs twice;
    3. the point parts are closed under products, over all pairs of int
       matrices.  A failure is reported alone ("missing point part"): the
       translations of a set that is not a group have nothing to check;
    4. closure modulo the lattice.  Generators are taken greedily, each rep
       whose point part the ones before it do not generate, so there are
       at most log2 |P| of them; d is the lcm of their translation
       denominators.  Every element of the group is a word in them, so in a
       valid group every translation is in (1/d) Z^n, and a rep whose
       denominator does not divide d fails closure at once.  Otherwise the
       products (M_A t_B + t_A) mod d, for every rep A and every generator
       B, are compared with t_AB on int translations t = d v, stopping at
       the first mismatch: |P| |gens| products.  They suffice, by induction
       on the length of a word B' g in the generators: t_{AB'g} ==
       M_A M_B' t_g + t_{AB'} == M_A (M_B' t_g + t_B') + t_A == M_A t_{B'g}
       + t_A (mod d), and the identity's translation is 0 by stage 2.

    The full-rank lattice condition holds by the basis convention and the
    frame's positive-definiteness check.  The reps keep their translations
    as rationals in [0,1)^n.
    """
    n = frame.dim
    g = int_gram(frame)
    violations = []
    canon = []
    for idx, (m, v) in enumerate(seitz_pairs):
        m = mat(m)
        v = vec(v)
        if len(m) != n or any(len(r) != n for r in m) or len(v) != n:
            violations.append(f"rep {idx}: shape mismatch")
            continue
        if not is_integral_mat(m):
            violations.append(f"rep {idx}: non-integer point part")
            continue
        m, v = _canon_seitz(m, v)
        if not is_gram_orthogonal(1, m, g, g):
            violations.append(f"rep {idx}: point part is not Gram-orthogonal (M^T G M != G)")
            continue
        canon.append((m, v))
    if violations:
        raise GroupValidationError(violations)

    ident = _canon_seitz(identity_mat(n), zero_vec(n))
    if ident not in canon:
        if any(m == ident[0] for m, _ in canon):
            violations.append("pure translation outside the lattice (identity rep has nonzero part)")
        else:
            canon.append(ident)
    seen = {}
    for m, v in canon:
        if m in seen and seen[m] != v:
            violations.append("duplicate point parts with different translations")
        seen[m] = v
    if violations:
        raise GroupValidationError(violations)

    reps = tuple(sorted(set(canon)))
    # table[i][j] indexes the point part M_i M_j, whose columns are M_i
    # applied to those of M_j: each M_i maps the few distinct columns once
    cols = [tuple(zip(*m)) for m, _ in reps]
    index = {c: i for i, c in enumerate(cols)}
    distinct = set().union(*cols)
    table = []
    for m, _ in reps:
        image = {c: int_mat_vec(m, c) for c in distinct}
        table.append([index.get(tuple(map(image.__getitem__, c))) for c in cols])
    if any(None in row for row in table):
        raise GroupValidationError(["closure failure: missing point part for a product"])

    one = reps.index(ident)
    gens, generated = [], {one}
    for i in range(len(reps)):
        if i not in generated:
            gens.append(i)
            generated = _table_generated(table, one, gens)
    differs = ["closure failure: product translation differs mod lattice"]
    d = integral([x for i in gens for x in reps[i][1]])[0]
    if any(d % x.denominator for _, v in reps for x in v):
        raise GroupValidationError(differs)
    ts = [integral(v, d)[1] for _, v in reps]
    for (m1, _), t1, row in zip(reps, ts, table):
        for j in gens:
            if _int_seitz_translation(m1, t1, ts[j], d) != ts[row[j]]:
                raise GroupValidationError(differs)
    return CrystalGroup(frame=frame, reps=reps, name=name)


def _table_generated(table, ident, gens) -> set:
    """The indices of the subgroup that the indices gens generate, in a
    group whose product table of indices is table."""
    out = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = table[a][g]
                if c not in out:
                    out.add(c)
                    new.append(c)
        frontier = new
    return out


def table_int_closure(n, d, gens) -> set:
    """The int Seitz pairs (M, t), t = d v mod d, that the int pairs gens
    over the denominator d generate mod the lattice, the identity included.

    Each round multiplies the newest elements on the right by the
    generators (_int_seitz_translation).  Elements of a finite point group
    have finite order mod the lattice, so these words already form the
    group; any other input grows past MAX_GROUP_ORDER."""
    frontier = [(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), (0,) * n)]
    elems = set(frontier)
    while frontier:
        new = []
        for m1, t1 in frontier:
            for m2, t2 in gens:
                prod = (int_mat_mul(m1, m2), _int_seitz_translation(m1, t1, t2, d))
                if prod not in elems:
                    elems.add(prod)
                    new.append(prod)
        if len(elems) > MAX_GROUP_ORDER:
            raise GroupValidationError(["generator closure exceeded bound (non-crystallographic input?)"])
        frontier = new
    return elems


def table_span_seitz(frame: Frame, generators, name: str = None) -> CrystalGroup:
    """Close a generator list under multiplication mod the lattice
    (_int_closure).  The words are int Seitz pairs over the common
    denominator d of the generators' translations, which every product
    keeps.
    """
    gens = [(mat(m), vec(v)) for m, v in generators]
    if not all(is_integral_mat(m) for m, _ in gens):
        raise GroupValidationError(["generator with a non-integer point part"])
    gens = [_canon_seitz(m, v) for m, v in gens]
    d = integral([x for _, v in gens for x in v])[0]
    elems = table_int_closure(frame.dim, d, [(m, integral(v, d)[1]) for m, v in gens])
    return table_validate_group(frame, sorted((m, tuple(Q(x, d) for x in t)) for m, t in elems), name=name)


# solve_mod_lattice on Fractions before its int rewrite, with its Smith normal
# form, verbatim but for the old_ prefix: the reference of
# tests/test_group_oracle.py
def old_smith_normal_form(a: Mat):
    """U A V = D over the integers, U and V unimodular, D diagonal.

    Input entries must be integral rationals.  Returns (U, D, V) as
    rational matrices with integer entries.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    A = [[int(x) for x in row] for row in a]
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
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
    toQ = lambda M: tuple(tuple(Q(x) for x in row) for row in M)
    return toQ(U), toQ(A), toQ(V)


def old_solve_mod_lattice(a_stack: Mat, b_stack: Vec):
    """One rational solution x of  a_stack @ x = b_stack (mod Z^rows), or None.

    a_stack must have integer entries; b_stack may be rational.
    """
    nrows = len(a_stack)
    ncols = len(a_stack[0]) if nrows else 0
    if nrows == 0:
        return zero_vec(ncols)
    U, D, V = old_smith_normal_form(a_stack)
    c = mat_vec(U, b_stack)
    y = [ZERO] * ncols
    for i in range(nrows):
        d = D[i][i] if i < ncols else ZERO
        if d != 0:
            y[i] = c[i] / d
        elif not is_integral(c[i]):
            return None
    x = mat_vec(V, tuple(y))
    return x
