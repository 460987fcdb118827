"""Differential oracle for the cached squared Gram distances.

old_sq_distance_point (with old_polygon_proj_sq_distance and old_cross) is
the point distance that formed every Gram product afresh on each call, and
old_lattice_points_in_ball the ball query that filtered each box point by
a Fraction Gram norm.  They are kept verbatim (apart from their names) and
compared for exact equality with the integer-scaled distance and the
integer ball test: distances (each an exact Q, also the zero inside a
tile) from random and boundary points to every cell tile of four seed-0
constructions, to a square shifted as the metric benchmark shifts it and
to a parallelepiped in a bcc frame, and ball lists, in order, in frames
with rational Gram entries.

old_tiles_near is the patch query that took each cell tile's centroid and
radius in Fractions on every call and compared each distance with r2 as a
Fraction; it is kept verbatim (apart from its name, and its distance call
forming the Q from the int pair) and compared with the query that reads
them once per tile and compares int pairs: the yielded (d2, tile, k)
streams must be equal, in order, on every preset's seed-0 construction and
Voronoi tiling.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from crystile.groups import PRESET_NAMES, generic_point, lattice_points_in_ball, preset
from crystile.isometry import Frame, _inv_gram_diag, hexagonal_frame, standard_frame
from crystile.linalg import (
    enumerate_box,
    gram_norm2,
    integral,
    mat_vec,
    solve_linear,
    vadd,
    vdot,
    vec,
    vsub,
)
from crystile.polytope import (
    ConvexPolytope,
    _centroid_ball,
    _ring_edges,
    _sq_distance,
    faces,
    sq_distance_point,
)
from crystile.rational import Q, ZERO, rat
from crystile.tiling import _tiles_near
from crystile.voronoi import voronoi_tiling

from conftest import bare, isqrt_ceil, old_centroid, old_ring, seed0_construction


# --- the code that formed every Gram product per call -----------------------------

def old_sq_distance_point(poly: ConvexPolytope, x):
    """Exact squared Gram distance from a point to the polytope."""
    x = vec(x)
    g = poly.frame.gram
    if poly.dim == poly.frame.dim and poly.contains(x):
        return ZERO
    best = min(gram_norm2(g, vsub(x, v)) for v in poly.vertices)
    edges = faces(poly, 1) if poly.dim >= 2 else [poly] if poly.dim == 1 else []
    for e in edges:
        u, w = e.vertices
        d = vsub(w, u)
        gd = mat_vec(g, d)
        t = vdot(gd, vsub(x, u)) / vdot(gd, d)
        if 0 < t < 1:
            proj = vadd(u, tuple(t * c for c in d))
            best = min(best, gram_norm2(g, vsub(x, proj)))
    if poly.frame.dim == 3 and poly.dim >= 2:
        # x is nearest to a point inside a facet only from beyond that
        # facet's plane, so facets whose halfspace holds x are skipped
        polygons = [poly] if poly.dim == 2 else [
            f for h, f in zip(poly.facets(), faces(poly, 2)) if vdot(h.covector, x) < h.offset
        ]
        for f in polygons:
            val = old_polygon_proj_sq_distance(f, x, g)
            if val is not None:
                best = min(best, val)
    return best


def old_polygon_proj_sq_distance(f: ConvexPolytope, x, g):
    """Squared distance from x to its Gram projection onto the plane of the
    polygon f (in space), or None when the projection falls outside f.

    The ring is convex, so the projection lies in f iff it is on the inner
    side of every ring edge: the coordinate cross product of the edge and
    the projection has a nonnegative component along the ring normal."""
    ring = old_ring(f)
    o = ring[0]
    e1, e2 = vsub(ring[1], o), vsub(ring[2], o)
    xo = vsub(x, o)
    a1, a2 = mat_vec(g, e1), mat_vec(g, e2)
    rows = ((vdot(a1, e1), vdot(a1, e2)), (vdot(a2, e1), vdot(a2, e2)))
    s, t = solve_linear(rows, (vdot(a1, xo), vdot(a2, xo)))
    proj = tuple(oc + s * a + t * b for oc, a, b in zip(o, e1, e2))
    normal = old_cross(e1, e2)
    for a, b in _ring_edges(ring):
        if vdot(old_cross(vsub(b, a), vsub(proj, a)), normal) < 0:
            return None
    return gram_norm2(g, vsub(x, proj))


def old_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def old_lattice_points_in_ball(frame: Frame, center, r2) -> list:
    """All k in Z^n with ||k - center||_G^2 <= r2, by exact box enumeration.

    The box bound |w_i| <= sqrt(r2 * (G^-1)_ii) on the ellipsoid is exact,
    so the enumeration provably covers the ball.
    """
    r2 = rat(r2)
    if r2 < 0:
        return []
    diag = _inv_gram_diag(frame)
    bounds = []
    for ci, gii in zip(center, diag):
        w = isqrt_ceil(r2 * gii)
        bounds.append((math.floor(ci) - w, math.ceil(ci) + w))
    out = []
    for k in enumerate_box(bounds):
        kv = tuple(Q(x) for x in k)
        if gram_norm2(frame.gram, vsub(kv, center)) <= r2:
            out.append(kv)
    return out


# --- strategies -------------------------------------------------------------------

def rationals(lo, hi, max_den=7):
    return st.builds(lambda n, d: Q(n, d), st.integers(lo * max_den, hi * max_den),
                     st.integers(1, max_den))


def points(dim, lo=-2, hi=3):
    return st.tuples(*[rationals(lo, hi)] * dim)


# --- distances to the tiles of seed-0 constructions and two hand-made tiles -------------

BCC = Frame(3, tuple(tuple(Q(3 if i == j else -1, 4) for j in range(3)) for i in range(3)))


def shifted_square():
    # the unit square after two shifts of the kind the metric benchmark
    # chains, with coordinate denominators 37, 50 and 53
    square = ConvexPolytope(standard_frame(2), [(0, 0), (1, 0), (0, 1), (1, 1)])
    return square.translate((Q(7, 50), Q(-3, 37))).translate((Q(2, 53), Q(9, 50)))


def bcc_parallelepiped():
    # parallelogram facets in the non-diagonal bcc frame with vertex
    # denominators 7, 11 and 13, so the polygon test runs on scaled data
    o = (Q(1, 7), Q(-2, 11), Q(3, 13))
    edges = [(Q(18, 7), Q(2, 11), ZERO), (Q(-2, 7), Q(26, 11), Q(4, 13)),
             (Q(4, 7), Q(-2, 11), Q(30, 13))]
    pts = [o]
    for e in edges:
        pts += [vadd(p, e) for p in pts]
    return ConvexPolytope(BCC, pts)


DISTANCE_CASES = ("p6m", "p4g", "P222", "Pm-3m", "shifted square", "bcc parallelepiped")


def case_tiles(case):
    if case == "shifted square":
        return (shifted_square(),)
    if case == "bcc parallelepiped":
        return (bcc_parallelepiped(),)
    return seed0_construction(case).cell_tiles


def assert_same_distance(poly, x):
    d2 = sq_distance_point(poly, x)
    assert d2 == old_sq_distance_point(poly, x)
    assert type(d2) is Q


@pytest.mark.parametrize("case", DISTANCE_CASES)
def test_cached_distance_matches_gram_products(case):
    tiles = case_tiles(case)
    dim = tiles[0].frame.dim

    @given(points(dim))
    @settings(max_examples=40 if dim == 2 or len(tiles) == 1 else 8, deadline=None)
    def check(x):
        for t in tiles:
            assert_same_distance(t, x)

    check()


@pytest.mark.parametrize("case", DISTANCE_CASES)
def test_cached_distance_matches_on_the_boundary(case):
    # vertices, edge midpoints and points just beyond them sit where the
    # edge and facet tests change sides; the vertex centroid is inside
    tiles = case_tiles(case)[:6]
    for t in tiles:
        for e in faces(t, 1):
            u, w = e.vertices
            mid = tuple((a + b) / 2 for a, b in zip(u, w))
            for x in (u, mid, tuple(2 * c for c in mid), vsub(tuple(3 * c for c in u), w)):
                for s in tiles:
                    assert_same_distance(s, x)
        inside = old_centroid(t.vertices)
        for s in tiles:
            assert_same_distance(s, inside)
        assert sq_distance_point(t, inside) == ZERO


def test_cached_distance_of_lower_dimensional_polytopes(frame2, frame3):
    # a point, a segment and a polygon in space have no facets to test
    polys = [ConvexPolytope(frame2, [(0, 0)]),
             bare(frame2, [(0, 0), (Q(3, 2), 1)]),
             ConvexPolytope(frame3, [(0, 0, 0), (1, 0, 0), (0, 1, 1)])]

    @given(points(3, -3, 3))
    @settings(max_examples=60, deadline=None)
    def check(x):
        for p in polys:
            assert_same_distance(p, x[:p.frame.dim])

    check()


# --- lattice balls ----------------------------------------------------------------------

BALL_FRAMES = {
    # in 1D the ball is one interval of the only axis, with no box walked
    "Z1": standard_frame(1),
    "1D 7/3": Frame(1, ((Q(7, 3),),)),
    "Z2": standard_frame(2),
    "Z3": standard_frame(3),
    "hexagonal": hexagonal_frame(),
    "bcc": BCC,
}


@pytest.mark.parametrize("name", BALL_FRAMES)
def test_integer_ball_test_matches_fraction_filter(name):
    frame = BALL_FRAMES[name]

    @given(points(frame.dim, -3, 3), rationals(-1, 6, 11))
    @settings(max_examples=120 if frame.dim == 2 else 40, deadline=None)
    def check(center, r2):
        assert lattice_points_in_ball(frame, center, r2) == old_lattice_points_in_ball(frame, center, r2)

    check()


@pytest.mark.parametrize("name", ["1D 7/3", "hexagonal", "bcc"])
def test_integer_ball_test_matches_fraction_filter_at_large_denominators(name):
    # the interval ends are isqrt bounds of products of ten-digit numbers
    frame = BALL_FRAMES[name]
    den = st.integers(10**9, 10**10)

    @given(st.tuples(*[st.builds(Q, st.integers(-3 * 10**9, 3 * 10**9), den)] * frame.dim),
           st.builds(Q, st.integers(0, 5 * 10**9), den))
    @settings(max_examples=40, deadline=None)
    def check(center, r2):
        assert lattice_points_in_ball(frame, center, r2) == old_lattice_points_in_ball(frame, center, r2)

    check()


@pytest.mark.parametrize("name", BALL_FRAMES)
def test_integer_ball_test_keeps_the_sphere(name):
    # lattice points exactly on the sphere are kept, as the Fraction test kept them
    frame = BALL_FRAMES[name]
    center = tuple(Q(1, 3) for _ in range(frame.dim))
    span = 2 if frame.dim == 2 else 1
    for k in enumerate_box([(-span, span)] * frame.dim):
        r2 = gram_norm2(frame.gram, vsub(vec(k), center))
        ball = lattice_points_in_ball(frame, center, r2)
        assert vec(k) in ball
        assert ball == old_lattice_points_in_ball(frame, center, r2)


# --- patch queries ------------------------------------------------------------------------

def q_sq_distance(t, e, xs):
    return Q(*_sq_distance(t, e, xs))


def q_tiles_near(tiling, center, r2):
    """_tiles_near about a rational centre within a rational r2, its
    distances as Q."""
    r2 = Q(r2)
    near = _tiles_near(tiling, integral(vec(center)), (r2.numerator, r2.denominator))
    return [(Q(*d2), t, k) for d2, t, k in near]


def old_tiles_near(tiling, center, r2):
    """Yield (squared distance, cell tile t, lattice vector k) for each tile
    t + k within r2 of center.  t lies within rho of its vertex centroid q,
    so only k within r + rho of center - q qualify; the ball query takes an
    exact bound >= (r + rho)^2, as r rho <= (r2 + rho2)/2, isqrt_ceil(r2 rho2).
    The ball query yields k as int tuples, and each test point c - k goes to
    the int body of sq_distance_point as e c - e k over the centre's least
    common denominator e."""
    e, ec = integral(center)
    for t in tiling.cell_tiles:
        q = old_centroid(t.vertices)
        rho2 = max(gram_norm2(tiling.frame.gram, vsub(v, q)) for v in t.vertices)
        bound = r2 + rho2 + 2 * min((r2 + rho2) / 2, isqrt_ceil(r2 * rho2))
        for k in lattice_points_in_ball(tiling.frame, vsub(center, q), bound):
            # dist(t + k, c) = dist(t, c - k): test the cell tile, whose caches persist
            d2 = q_sq_distance(t, e, tuple(c - e * ki for c, ki in zip(ec, k)))
            if d2 <= r2:
                yield d2, t, k


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_patch_query_matches_fraction_centroids(name):
    # r2 = 0 keeps the tiles that hold the centre, as the witness search
    # asks first; the int pairs are the Fraction distances
    g = preset(name)
    tilings = (seed0_construction(name), voronoi_tiling(g, generic_point(g, 0)))
    for tiling in tilings:
        for t in tiling.cell_tiles:
            w, s, rho2 = _centroid_ball(t)
            q = old_centroid(t.vertices)
            assert tuple(Q(c, w) for c in s) == q
            assert rho2 == max(gram_norm2(t.frame.gram, vsub(v, q)) for v in t.vertices)
    radii = [ZERO, Q(1, 7), Q(1), Q(2)] if g.dim == 2 else [ZERO, Q(1, 9), Q(1, 2)]

    @given(points(g.dim, -2, 2))
    @settings(max_examples=6 if g.dim == 2 else 2, deadline=None)
    def check(center):
        for tiling in tilings:
            for r2 in radii:
                assert q_tiles_near(tiling, center, r2) == list(old_tiles_near(tiling, center, r2))

    check()
