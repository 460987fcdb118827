"""Differential oracle for the cached polytope boundary and the vertex hull.

old_faces is the boundary code that derived a polytope's faces and edges
afresh on every call, old_hull the hull read off the polar that clip
built, and old_congruent congruent on Fractions.  They are kept
verbatim (apart from their names) and compared for exact equality with
the cached, double description and int versions: faces, volumes
(old_volume), pulling triangulations (old_fan, both in test_motion_oracle.py), point distances
(old_sq_distance_point, test_distance_oracle.py) and walked rings
(old_ring, conftest.py) on the cell tiles of real tilings; patches, at the
centres and radii the translate-first patch loop ran on, against
assert_same_patch (test_delone_patch_oracle.py); and hulls on small
rational point clouds, many-vertex convex chains and large degenerate
inputs.  On the same inputs, the facets every polytope carries are compared
with recovered_facets (conftest.py), the recovery from vertices that the
kernel no longer has.
"""

import random
import re
from functools import lru_cache
from itertools import combinations, permutations, product
from math import lcm
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from crystile.construction import construct_tiling
from crystile.groups import PRESET_NAMES, WALLPAPER_NAMES, generic_point, preset
from crystile.linalg import (
    _reduced,
    gram_norm2,
    int_dot,
    int_rref,
    integral_rows,
    mat_mul,
    mat_vec,
    transpose,
    vadd,
    vdot,
    vec,
    vsub,
)
from crystile.isometry import Isometry, embedding, standard_frame
from crystile.polytope import (
    ConvexPolytope,
    HalfSpace,
    PolytopeError,
    _clip,
    _cross,
    _fan,
    _hull,
    _independent_points,
    _reduced_facet,
    _tight_sets,
    _walk,
    clip,
    congruent,
    faces,
    sq_distance_point,
    volume,
)
from crystile.rational import Q
from crystile.svg import _cell_range, _fmt, _linear, tiling_svg
from crystile import tiling as tiling_mod
from crystile.tiling import patch
from crystile.voronoi import voronoi_cell, voronoi_tiling

from conftest import (
    bare,
    facet_key_set,
    fan_simplices,
    old_affine_rank,
    old_centroid,
    old_halfspace_intersection,
    old_independent_points,
    old_mat_inv,
    old_mat_rank,
    old_ring,
    random_rational_orthogonal,
    random_rational_point,
    recovered_facets,
    same_cycle,
    seed0_construction,
)
from test_delone_patch_oracle import assert_same_patch
from test_distance_oracle import old_sq_distance_point
from test_motion_oracle import old_fan, old_volume


# --- the uncached boundary code ------------------------------------------------

def old_faces(poly: ConvexPolytope, m: int):
    n = poly.dim
    if m == 0:
        return [bare(poly.frame, [p]) for p in poly.vertices]
    if m == n - 1:
        out = []
        for h in poly.facets():
            on = [p for p in poly.vertices if vdot(h.covector, p) == h.offset]
            out.append(bare(poly.frame, on))
        return out
    # n == 3, m == 1: edges via common active facets of rank 2
    return _edges_3d(poly)


def _edges_3d(poly: ConvexPolytope):
    hs = poly.facets()
    active = []
    for p in poly.vertices:
        active.append({i for i, h in enumerate(hs) if vdot(h.covector, p) == h.offset})
    out = []
    for (i, u), (j, w) in combinations(enumerate(poly.vertices), 2):
        common = active[i] & active[j]
        if len(common) < 2:
            continue
        if old_mat_rank(tuple(hs[k].covector for k in common)) == 2:
            out.append(bare(poly.frame, [u, w]))
    return out


# --- the hull through the polar, and congruence on Fractions -----------------------

def old_hull(frame, den, rows):
    """ConvexPolytope._set's arguments after the frame for conv(rows / den),
    the int rows sorted and distinct, den > 0: the reduced vertex rows (den,
    rows), facets (None below rank frame.dim), then the tight sets or, for a
    polygon in space, the ring.

    Sorted collinear points run along their line, so the ends are the first
    and last (on the line, the facets x >= lo and -x >= -hi).  Otherwise the
    hull is read off its polar (Ziegler, Lectures on Polytopes, 2.3), which
    clip builds.  In coordinates x of the affine hull of rank r (the points,
    or for a planar set in space the two coordinates left after dropping one
    whose axis crosses the plane), let c be the centroid of r + 1 affinely
    independent points: c is interior, and each point p gives the dual
    halfspace (x_p - c).y <= 1, which holds y = 0 inside.  Those of the
    r + 1 points bound a simplex; clipping it by each other point's
    halfspace gives the polar.  The points whose halfspaces are its facets
    are the vertices, and in full dimension each of its vertices y is the
    facet (x - c).y <= 1, that is -y.x >= -1 - y.c.  Incidences reverse (p
    is on facet y iff y is on p's polar facet), and a polygon's edges are
    the pairs of polar facets through each polar vertex.  All on ints, over
    W = (r + 1) den, where c = S / W for the sum S of the base rows."""
    n = frame.dim
    base = _independent_points(rows, n)
    rank = len(base) - 1
    if rank <= 1 and rank < n:
        return (*_reduced(den, [rows[0], rows[-1]] if rank else rows), None)
    if rank == 1:
        return (*_reduced(den, [rows[0], rows[-1]]),
                (_reduced_facet(den, (den, rows[0][0])), _reduced_facet(den, (-den, -rows[-1][0]))))
    coords = rows
    if rank < n:
        normal = _cross(*(tuple(map(sub, rows[i], rows[0])) for i in base[1:]))
        k = next(i for i, a in enumerate(normal) if a != 0)
        coords = [p[:k] + p[k + 1:] for p in rows]
    w = (rank + 1) * den
    c = tuple(map(sum, zip(*(coords[i] for i in base))))
    # the row X gives Y.y >= -W for Y = S - (r + 1) X; a point at c gives none
    ys = [tuple(ci - (rank + 1) * xi for ci, xi in zip(c, x)) for x in coords]
    dual = [_reduced_facet(w, (*y, -w)) if any(y) else None for y in ys]
    # [M | I] -> [d I | N] for the rows M = (Y, W) of the base points: column
    # j of N, over its last entry, is corner j, on the planes of all but the j-th
    aug = [(*ys[i], w, *(int(k == j) for j in range(rank + 1))) for k, i in enumerate(base)]
    int_rref(aug, rank + 1)
    cols = list(zip(*(row[rank + 1:] for row in aug)))
    u = lcm(*(col[-1] for col in cols))
    corners = sorted(tuple(u // col[-1] * z for z in col[:-1]) for col in cols)
    polar = ConvexPolytope._from_rows(frame if rank == n else standard_frame(rank),
                                      *_reduced(u, corners), tuple(dual[i] for i in base))
    for i, h in enumerate(dual):
        if h is not None and i not in base:
            polar = _clip(polar, h)
    # polar facet j is the dual halfspace of the hull vertex rows[vertex_of[j]]
    vertex_of = [dual.index(h) for h in polar._facets]
    polar_tight = _tight_sets(polar)
    order = sorted(range(len(vertex_of)), key=vertex_of.__getitem__)
    vertices = _reduced(den, [rows[vertex_of[j]] for j in order])
    if rank < n:
        return (*vertices, None, None, _walk([order.index(j) for j in t] for t in polar_tight))
    # the polar vertex y = Z / U gives the facet (-W Z, -U W - Z.S) / (U W)
    uw = polar._den * w
    return (*vertices,
            tuple(_reduced_facet(uw, (*(-w * x for x in z), -uw - int_dot(z, c))) for z in polar._rows),
            tuple(frozenset(k for k, t in enumerate(polar_tight) if j in t) for j in order))


def old_congruent(p: ConvexPolytope, q: ConvexPolytope):
    """An exact isometry with phi(p) == q (as vertex sets), or None.

    Matches squared-distance signatures first, then solves for the affine
    map from an affinely independent anchor tuple and verifies exactly.
    """
    if p.frame != q.frame:
        raise PolytopeError("congruence requires a common frame")
    if len(p.vertices) != len(q.vertices) or p.dim != q.dim:
        return None
    n = p.frame.dim
    if p.dim != n:
        raise PolytopeError("congruence implemented for full-dimensional polytopes")
    g = p.frame.gram

    def profile(pts):
        return sorted(
            sorted(gram_norm2(g, vsub(a, b)) for b in pts) for a in pts
        )

    if profile(p.vertices) != profile(q.vertices):
        return None

    anchors = [p.vertices[i] for i in old_independent_points(p.vertices, n)]
    a0 = anchors[0]
    acols = transpose(tuple(vsub(a, a0) for a in anchors[1:]))
    ainv = old_mat_inv(acols)
    dists = [[gram_norm2(g, vsub(a, b)) for b in anchors] for a in anchors]

    def tuple_candidates(i, chosen):
        if i == len(anchors):
            yield chosen
            return
        for b in q.vertices:
            if all(gram_norm2(g, vsub(b, chosen[j])) == dists[i][j] for j in range(i)):
                yield from tuple_candidates(i + 1, chosen + [b])

    qset = set(q.vertices)
    for image in tuple_candidates(0, []):
        b0 = image[0]
        bcols = transpose(tuple(vsub(b, b0) for b in image[1:]))
        lin = mat_mul(bcols, ainv)
        trans = vsub(b0, mat_vec(lin, a0))
        # matching every squared distance of n + 1 independent anchors makes lin Gram-orthogonal
        iso = Isometry(p.frame, lin, trans)
        if {iso(v) for v in p.vertices} == qset:
            return iso
    return None


def check_hull(frame, points):
    """The hull of the points is old_hull's: the vertex rows, the facets in
    order and scale, and the tight sets or the ring."""
    den, rows = integral_rows(sorted(set(map(vec, points))))
    assert _hull(frame, den, rows) == old_hull(frame, den, rows)


@pytest.mark.parametrize("name", ["P222", "p4g", "p6m"])
def test_congruent_matches_the_fraction_congruent(name):
    # every pair of cell tiles, a tile with itself included
    tiles = seed0_construction(name).cell_tiles
    found = 0
    for i, p in enumerate(tiles):
        for q in tiles[i:]:
            iso = congruent(p, q)
            assert iso == old_congruent(p, q)
            found += iso is not None
    assert len(tiles) < found < len(tiles) * (len(tiles) + 1) // 2


@st.composite
def clouds(draw, n):
    """Rational points o + sum_i c_i d_i for k <= n random directions d_i (so
    often coplanar or collinear), then centroids of 1 to 3 of them
    (duplicates, edge and face midpoints, interior points)."""
    ints = st.integers(-3, 3)
    k = draw(st.integers(1, n))
    origin = draw(st.tuples(*[ints] * n))
    dirs = draw(st.lists(st.tuples(*[ints] * n).filter(any), min_size=k, max_size=k))
    pts = []
    for c in draw(st.lists(st.tuples(*[ints] * k), min_size=k + 1, max_size=7)):
        pts.append(tuple(o + sum(ci * d[i] for ci, d in zip(c, dirs)) for i, o in enumerate(origin)))
    for _ in range(draw(st.integers(0, 4))):
        sub = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
        pts.append(tuple(Q(sum(xs), len(sub)) for xs in zip(*sub)))
    return sorted(set(vec(p) for p in pts))


def _in_space(a, b):
    # the plane point (a, b) on a tilted rational plane in space
    return (1 + a, a + b, 2 * b - 1)


_CIRCLE = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
           for t in (Q(i, 4) for i in range(-5, 5))]
_POLYGON = [(0, 0), (3, 0), (4, 2), (2, 4), (0, 3)]

# large, degenerate vertex input: many points on each facet, and points on
# edges, on facets and inside
LARGE_CLOUDS = {
    "prism-20": [(x, y, z) for x, y in _CIRCLE for z in (0, 1)],
    "grid-27": list(product(range(3), repeat=3)),
    "polygon-in-space": [_in_space(a, b) for a, b in _POLYGON + [
        (Q(3, 2), 0), (Q(7, 2), 1), (3, 3), (1, 1), (2, 2), (Q(1, 2), Q(3, 2))]],
}


@pytest.mark.parametrize("case,vertices", [
    ("prism-20", 20), ("grid-27", 8), ("polygon-in-space", 5)])
def test_hull_of_large_degenerate_input(case, vertices):
    frame = standard_frame(3)
    pts = sorted(set(map(vec, LARGE_CLOUDS[case])))
    poly = ConvexPolytope(frame, pts)
    assert len(poly.vertices) == vertices
    check_hull(frame, pts)
    check_facet_invariant(poly)


@st.composite
def chains(draw, case):
    """Up to 40 rational points in convex position, each a vertex of their
    hull: on a parabola, on a parabola in a tilted plane in space, or a grid
    on a paraboloid (whose lower facets hold four cocircular grid points,
    and each side facet a whole row of the grid); then up to three
    centroids of two or three of them (edge and interior points)."""
    den = draw(st.integers(1, 12))
    coords = st.integers(-40, 40)
    if case == "paraboloid":
        xs, ys = (draw(st.lists(coords, min_size=2, max_size=6, unique=True)) for _ in range(2))
        pts = [(Q(a, den), Q(b, den), Q(a * a + b * b, den * den)) for a in xs for b in ys]
    else:
        pts = [(Q(a, den), Q(a * a, den * den))
               for a in draw(st.lists(coords, min_size=3, max_size=40, unique=True))]
        if case == "plane-in-space":
            pts = [_in_space(*p) for p in pts]
    vertices = len(pts)
    for _ in range(draw(st.integers(0, 3))):
        some = draw(st.lists(st.sampled_from(pts[:vertices]), min_size=2, max_size=3, unique=True))
        pts.append(tuple(Q(sum(xs), len(some)) for xs in zip(*some)))
    return pts, vertices


@pytest.mark.parametrize("case", ["parabola", "paraboloid", "plane-in-space"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_hull_of_many_vertex_chains(case, data):
    pts, vertices = data.draw(chains(case))
    frame = standard_frame(len(pts[0]))
    check_hull(frame, pts)
    assert len(ConvexPolytope(frame, pts).vertices) == vertices


# --- facets exactly on full-dimensional polytopes --------------------------------

def check_facet_invariant(poly):
    """_facets is None exactly when poly is lower-dimensional; otherwise the
    carried facets are the recovered ones, each plane once."""
    if old_affine_rank(poly.vertices) < poly.frame.dim:
        assert poly._facets is None
        with pytest.raises(PolytopeError):
            poly.facets()
        return
    assert poly._facets is not None
    carried = facet_key_set(poly.facets())
    assert len(carried) == len(poly.facets())
    assert carried == facet_key_set(recovered_facets(poly.frame, poly))


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_facets_carried_exactly_when_full_dimensional(n, data):
    # vertex input (collinear and coplanar clouds included) and every
    # polytope derived from it carry facets iff they are full-dimensional
    frame = standard_frame(n)
    pts = data.draw(clouds(n))
    check_hull(frame, pts)
    poly = ConvexPolytope(frame, pts)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    lin = ((Q(-1),),) if n == 1 else random_rational_orthogonal(rng, n)
    derived = [poly, poly.translate(random_rational_point(rng, n)),
               poly.transform(Isometry(frame, lin, random_rational_point(rng, n)))]
    derived += [f for m in range(poly.dim) for f in faces(poly, m)]
    if poly.dim == n:
        facets = list(poly.facets())
        a = data.draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
        derived += [clip(poly, HalfSpace(a, vdot(a, old_centroid(poly.vertices)))),
                    old_halfspace_intersection(frame, facets),
                    # a facet taken from both sides: the facet itself
                    old_halfspace_intersection(frame, facets + [HalfSpace(
                        tuple(-x for x in facets[0].covector), -facets[0].offset)])]
        derived += fan_simplices(poly)
    for p in derived:
        check_facet_invariant(p)


# --- cases ---------------------------------------------------------------------

CASES = list(WALLPAPER_NAMES) + ["P1", "P222"]


@lru_cache(maxsize=None)
def case_tilings(case):
    """(tilings, loose polytopes) of one case."""
    g = preset(case)
    if case == "P1":
        return [construct_tiling(g, 0)], []
    if case == "P222":
        return [], [voronoi_cell(g, generic_point(g, 0))]
    return [voronoi_tiling(g, generic_point(g, 0)), construct_tiling(g, 0)], []


def fresh(poly):
    # a copy with empty caches, so each side derives its own boundary
    return bare(poly.frame, poly.vertices)


def keys(polys):
    return [p.vertices for p in polys]


@pytest.mark.parametrize("case", CASES)
def test_boundary_matches_uncached_code(case):
    tilings, loose = case_tilings(case)
    polys = [t for tiling in tilings for t in tiling.cell_tiles] + loose
    rng = random.Random(CASES.index(case))
    for poly in polys:
        old, new = fresh(poly), fresh(poly)
        n = poly.dim
        for m in range(n):
            assert keys(faces(new, m)) == keys(old_faces(old, m))
        assert volume(new) == old_volume(old)
        assert [tuple(new.vertices[i] for i in s) for s in _fan(new)] == old_fan(old)
        points = [random_rational_point(rng, n, span=3) for _ in range(4 if n == 3 else 8)]
        points += list(poly.vertices[:2]) + [old_centroid(poly.vertices)]
        for x in points:
            assert sq_distance_point(new, x) == old_sq_distance_point(old, x)
        if n == 3:
            for m in (1, 2):
                for f in faces(new, m):
                    for x in points[:3]:
                        assert sq_distance_point(fresh(f), x) == old_sq_distance_point(fresh(f), x)


@pytest.mark.parametrize("case", [c for c in CASES if c != "P222"])
def test_patch_matches_translate_first_loop(case):
    # the centres and radii, r2 = 16 among them, that the translate-first
    # patch loop was compared on: the patch and the ball query against
    # their references in test_delone_patch_oracle.py and test_distance_oracle.py
    tilings, _ = case_tilings(case)
    rng = random.Random(100 + CASES.index(case))
    for tiling in tilings:
        center = random_rational_point(rng, tiling.dim, span=3)
        radii = (Q(1, 8), Q(1)) if tiling.dim == 3 else (Q(1, 1 << 20), Q(1), Q(16))
        for r2 in radii:
            assert_same_patch(tiling, center, r2)


def test_patch_work_grows_with_the_radius(count_calls):
    # the padded box of the translate-first loop tested 675 translates at
    # both radii; the lattice-ball query tests fewer, and fewer still at the
    # smaller radius.  Each test is one call of sq_distance_point's int body.
    calls = count_calls(tiling_mod, "_sq_distance")
    (p1,), _ = case_tilings("P1")
    center = (Q(1, 3), Q(-2, 5), Q(1, 7))
    counts = []
    for r2 in (Q(1, 8), Q(1)):
        calls.clear()
        patch(p1, center, r2)
        counts.append(len(calls))
    assert counts[0] < counts[1] < 675


# --- rings walked along edges, and the hull's incidences ----------------------------

def check_rings(poly):
    """The rings of poly (a polygon) or of its facets (a 3-polytope) are the
    angular-sort rings up to rotation and reversal; in space, so is the ring
    of a copy that has to hull itself."""
    polygons = [poly] if poly.dim == 2 else faces(poly, 2)
    for f in polygons:
        assert same_cycle(f.cyclic_vertices(), old_ring(f))
        if f.frame.dim == 3:
            assert same_cycle(fresh(f).cyclic_vertices(), old_ring(f))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_rings_match_the_angular_sort(name):
    # the construction's tiles and the Voronoi cells (in the plane the cone
    # tiles are triangles); each tile's vertices hull as on Fractions too
    g = preset(name)
    for tiling in (seed0_construction(name), voronoi_tiling(g, generic_point(g, 0))):
        for t in tiling.cell_tiles:
            check_rings(t)
            check_hull(t.frame, t.vertices)


@pytest.mark.parametrize("case", ["plane", "space", "plane-in-space"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_rings_and_hull_incidences_on_clouds(case, data):
    pts = data.draw(clouds(3 if case == "space" else 2))
    if case == "plane-in-space":
        pts = [vec(_in_space(*p)) for p in pts]
    frame = standard_frame(len(pts[0]))
    check_hull(frame, pts)
    poly = ConvexPolytope(frame, pts)
    if poly.dim == frame.dim:
        # the hull carries its tight sets, read off the point sets of its facets
        assert poly._tight == tuple(
            frozenset(k for k, h in enumerate(poly.facets()) if vdot(h.covector, v) == h.offset)
            for v in poly.vertices)
    if poly.dim >= 2:
        check_rings(poly)


@pytest.mark.parametrize("n", [2, 3])
def test_congruent_matches_the_fraction_congruent_on_hulls(n):
    # small integer hulls against themselves, their images under a symmetry
    # of the cube or a rational rotation (Givens factors, maybe a reflection)
    # and the hull before: unlike the tiles above, such hulls often have a
    # first candidate map that fails
    frame = standard_frame(n)
    rng = random.Random(n)
    cube = [tuple(tuple(s * int(perm[i] == j) for j in range(n)) for i, s in enumerate(signs))
            for perm in permutations(range(n)) for signs in product((1, -1), repeat=n)]
    before = []
    while len(before) < 100:
        p = ConvexPolytope(frame, {tuple(rng.randint(-2, 2) for _ in range(n))
                                   for _ in range(rng.randint(n + 1, n + 4))})
        if p.dim < n:
            continue
        lin = rng.choice(cube) if rng.random() < 0.5 else random_rational_orthogonal(rng, n)
        image = p.transform(Isometry(frame, lin, random_rational_point(rng, n, span=2)))
        for q in (p, image, *before[-1:]):
            assert congruent(p, q) == old_congruent(p, q)
        before.append(p)


@pytest.mark.parametrize("name", WALLPAPER_NAMES)
def test_svg_paths_walk_tile_edges(name):
    # each path visits the vertices of one tile translate once, along its
    # edges; the Voronoi cells are polygons, the construction's tiles triangles
    (tiling, _), _ = case_tilings(name)
    window = (0, 0, 1, 1)
    (lo0, lo1), (hi0, hi1) = _cell_range(tiling.frame, window)
    cartesian = _linear(embedding(tiling.frame))
    outlines = {}
    for t in tiling.cell_tiles:
        index = {p: i for i, p in enumerate(t.vertices)}
        edges = [[index[p] for p in e.vertices] for e in faces(t, 1)]
        for k in product(range(lo0, hi0 + 1), range(lo1, hi1 + 1)):
            pts = ["%s,%s" % tuple(map(_fmt, cartesian(*map(float, vadd(p, k)))))
                   for p in t.vertices]
            outlines[frozenset(pts)] = {frozenset((pts[i], pts[j])) for i, j in edges}
    paths = re.findall(r' d="M (.*?) Z"', tiling_svg(tiling, window))
    assert paths
    for d in paths:
        ring = d.split(" L ")
        assert len(set(ring)) == len(ring)
        assert set(map(frozenset, zip(ring, ring[1:] + ring[:1]))) == outlines[frozenset(ring)]
