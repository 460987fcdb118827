"""Differential oracle for the cached polytope boundary and the vertex hull.

The functions below are the boundary code that derived a polytope's faces,
edges, facet rings (by angle, old_ring in conftest.py) and point distances
afresh on every call, the pulling triangulation from those faces, the patch
loop that translated every candidate tile before testing it, and the hull
that tested each point against the hull of all the others.  They are kept
verbatim (apart from their names) and compared for exact equality with the
cached versions on the cell tiles and patches of real tilings, and with the
hull through the polar on small rational point clouds and large degenerate
inputs.  On the same inputs, the facets every polytope carries are compared
with recovered_facets (conftest.py), the recovery from vertices that the
kernel no longer has.
"""

import math
import random
import re
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from crystile.construction import construct_tiling
from crystile.groups import PRESET_NAMES, WALLPAPER_NAMES, generic_point, preset
from crystile.linalg import (
    gram_dot,
    gram_norm2,
    mat_det,
    mat_inv,
    mat_rank,
    solve_linear,
    vadd,
    vdot,
    vec,
    vsub,
)
from crystile.isometry import Isometry, standard_frame, to_cartesian
from crystile.polytope import (
    ConvexPolytope,
    HalfSpace,
    PolytopeError,
    _affine_rank,
    _centroid,
    clip,
    faces,
    halfspace_intersection,
    simplex_decomposition,
    sq_distance_point,
    volume,
)
from crystile.rational import Q, ZERO, isqrt_ceil, rat
from crystile.svg import _cell_range, _fmt, tiling_svg
from crystile import tiling as tiling_mod
from crystile.tiling import Patch, patch
from crystile.voronoi import voronoi_cell, voronoi_tiling

from conftest import (
    _affine_coords,
    _independent_directions,
    _sort_ccw,
    _supporting_halfspaces,
    bare,
    facet_key_set,
    old_ring,
    random_rational_orthogonal,
    random_rational_point,
    recovered_facets,
    same_cycle,
    seed0_construction,
)


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
        if mat_rank(tuple(hs[k].covector for k in common)) == 2:
            out.append(bare(poly.frame, [u, w]))
    return out


def old_volume(poly: ConvexPolytope):
    n = poly.frame.dim
    if n == 2:
        cyc = old_ring(poly)
        acc = ZERO
        for i, u in enumerate(cyc):
            w = cyc[(i + 1) % len(cyc)]
            acc += u[0] * w[1] - u[1] * w[0]
        return abs(acc) / 2
    # n == 3: cone facet triangulations over a base vertex
    base = poly.vertices[0]
    acc = ZERO
    for fpoly in old_faces(poly, 2):
        ring = _facet_cycle_3d(fpoly)
        for i in range(1, len(ring) - 1):
            e1 = vsub(ring[0], base)
            e2 = vsub(ring[i], base)
            e3 = vsub(ring[i + 1], base)
            acc += abs(mat_det((e1, e2, e3)))
    return acc / 6


def _facet_cycle_3d(fpoly: ConvexPolytope):
    pts = fpoly.vertices
    if len(pts) == 3:
        return list(pts)
    p0 = pts[0]
    basis = _independent_directions(pts, 2)
    coords = [_affine_coords(p, p0, basis) for p in pts]
    c = _centroid(coords)
    order = _sort_ccw(coords, c)
    back = {tuple(cc): p for cc, p in zip(coords, pts)}
    return [back[tuple(cc)] for cc in order]


def pulling_fan(poly: ConvexPolytope):
    """The pulling triangulation from the brute-force incidences: a cone from
    the first vertex over each facet not through it, the facet pulled in turn
    at its own first vertex (in space, over its edges not through that)."""
    n = poly.frame.dim
    base = poly.vertices[0]
    edges = _edges_3d(poly) if n == 3 else []
    parts = []
    for fpoly in old_faces(poly, n - 1):
        if base in fpoly.vertices:
            continue
        if n == 2:
            parts.append(bare(poly.frame, [base, *fpoly.vertices]))
            continue
        f = fpoly.vertices[0]
        for e in edges:
            if set(e.vertices) <= set(fpoly.vertices) and f not in e.vertices:
                parts.append(bare(poly.frame, [base, f, *e.vertices]))
    return parts


def old_sq_distance_point(poly: ConvexPolytope, x):
    x = vec(x)
    g = poly.frame.gram
    if poly.dim == poly.frame.dim and poly.contains(x):
        return ZERO
    best = min(gram_norm2(g, vsub(x, v)) for v in poly.vertices)
    # edges
    edge_list = []
    if poly.dim >= 1:
        if poly.frame.dim == 2 and poly.dim == 2:
            cyc = old_ring(poly)
            edge_list = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
        elif poly.dim == 1:
            edge_list = [(poly.vertices[0], poly.vertices[-1])]
        elif poly.dim == 2:
            ring = _facet_cycle_3d(poly)
            edge_list = [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        else:
            edge_list = [(e.vertices[0], e.vertices[1]) for e in old_faces(poly, 1)]
    for u, w in edge_list:
        d = vsub(w, u)
        den = gram_norm2(g, d)
        t = gram_dot(g, vsub(x, u), d) / den
        if 0 < t < 1:
            proj = vadd(u, tuple(t * c for c in d))
            best = min(best, gram_norm2(g, vsub(x, proj)))
    if poly.frame.dim == 3 and poly.dim >= 2:
        fps = old_faces(poly, 2) if poly.dim == 3 else [poly]
        for fp in fps:
            val = _facet_proj_sq_distance(fp, x, g)
            if val is not None:
                best = min(best, val)
    return best


def _facet_proj_sq_distance(fpoly: ConvexPolytope, x, g):
    pts = fpoly.vertices
    p0 = pts[0]
    basis = _independent_directions(pts, 2)
    rows = tuple(tuple(gram_dot(g, bi, bj) for bj in basis) for bi in basis)
    rhs = tuple(gram_dot(g, bi, vsub(x, p0)) for bi in basis)
    st = solve_linear(rows, rhs)
    if st is None:
        return None
    proj = vadd(p0, vadd(tuple(st[0] * c for c in basis[0]), tuple(st[1] * c for c in basis[1])))
    coords = [_affine_coords(p, p0, basis) for p in pts]
    pc = (st[0], st[1])
    c2 = _centroid(coords)
    ring = _sort_ccw(coords, c2)
    m = len(ring)
    for i in range(m):
        a, b = ring[i], ring[(i + 1) % m]
        cross = (b[0] - a[0]) * (pc[1] - a[1]) - (b[1] - a[1]) * (pc[0] - a[0])
        if cross < 0:
            return None
    return gram_norm2(g, vsub(x, proj))


def old_patch(tiling, center, r2) -> Patch:
    center = vec(center)
    r2 = rat(r2)
    ginv = mat_inv(tiling.frame.gram)
    out = []
    for t in tiling.cell_tiles:
        box = t.bounding_box()
        ranges = []
        for i, (lo, hi) in enumerate(box):
            w = isqrt_ceil(r2 * ginv[i][i])
            ranges.append(range(math.floor(center[i] - hi) - w, math.ceil(center[i] - lo) + w + 1))
        for k in product(*ranges):
            cand = t.translate(tuple(Q(c) for c in k))
            if old_sq_distance_point(cand, center) <= r2:
                out.append(cand)
    out.sort(key=lambda t: t.vertices)
    return Patch(tiles=tuple(out), center=center, sq_radius=r2)


# --- the hull by per-point exclusion -------------------------------------------

def old_extreme_points(frame, pts):
    """Minimal generating subset of a point list (exact)."""
    if len(pts) <= 2:
        return pts if len(pts) < 2 or pts[0] != pts[1] else pts[:1]
    rank = _affine_rank(pts)
    if frame.dim == 2 and rank == 2:
        return sorted(old_hull_2d(pts))
    if rank == 1:
        # keep the two ends of the segment
        p0 = pts[0]
        d = next(vsub(p, p0) for p in pts if p != p0)
        i = next(i for i, x in enumerate(d) if x != 0)
        span = sorted(pts, key=lambda p: (p[i] - p0[i]) / d[i])
        ends = {span[0], span[-1]}
        return sorted(ends)
    # general exact redundancy elimination: p is a vertex iff it is not in
    # the hull of the remaining points
    keep = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not old_in_hull(frame.dim, p, others):
            keep.append(p)
    return keep


def old_hull_2d(pts):
    pts = sorted(pts)

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def old_in_hull(n: int, p, pts) -> bool:
    rank = _affine_rank(pts)
    if rank < _affine_rank(list(pts) + [p]):
        return False
    if rank == 0:
        return p == pts[0]
    if rank == n:
        return all(vdot(h.covector, p) >= h.offset for h in _supporting_halfspaces(n, pts))
    # lower-dimensional hull: restrict to affine coordinates and recurse
    p0 = pts[0]
    basis = _independent_directions(pts, rank)
    coords = [_affine_coords(q, p0, basis) for q in pts]
    pc = _affine_coords(p, p0, basis)
    if pc is None or any(c is None for c in coords):
        return False
    return old_in_hull(rank, pc, coords)


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


@given(clouds(2))
@settings(max_examples=150, deadline=None)
def test_hull_matches_per_point_exclusion_2d(pts):
    frame = standard_frame(2)
    assert ConvexPolytope(frame, pts).vertices == tuple(old_extreme_points(frame, pts))


@given(clouds(3))
@settings(max_examples=80, deadline=None)
def test_hull_matches_per_point_exclusion_3d(pts):
    frame = standard_frame(3)
    assert ConvexPolytope(frame, pts).vertices == tuple(old_extreme_points(frame, pts))


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
    assert poly.vertices == tuple(old_extreme_points(frame, pts))
    check_facet_invariant(poly)


# --- facets exactly on full-dimensional polytopes --------------------------------

def check_facet_invariant(poly):
    """_facets is None exactly when poly is lower-dimensional; otherwise the
    carried facets are the recovered ones, each plane once."""
    if _affine_rank(poly.vertices) < poly.frame.dim:
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
    poly = ConvexPolytope(frame, data.draw(clouds(n)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    lin = ((Q(-1),),) if n == 1 else random_rational_orthogonal(rng, n)
    derived = [poly, poly.translate(random_rational_point(rng, n)),
               poly.transform(Isometry(frame, lin, random_rational_point(rng, n)))]
    derived += [f for m in range(poly.dim) for f in faces(poly, m)]
    if poly.dim == n:
        facets = list(poly.facets())
        a = data.draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
        derived += [clip(poly, HalfSpace(a, vdot(a, _centroid(poly.vertices)))),
                    halfspace_intersection(frame, facets),
                    # a facet taken from both sides: the facet itself
                    halfspace_intersection(frame, facets + [HalfSpace(
                        tuple(-x for x in facets[0].covector), -facets[0].offset)])]
        derived += simplex_decomposition(poly)
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
        assert keys(simplex_decomposition(new)) == keys(pulling_fan(old))
        points = [random_rational_point(rng, n, span=3) for _ in range(4 if n == 3 else 8)]
        points += list(poly.vertices[:2]) + [_centroid(poly.vertices)]
        for x in points:
            assert sq_distance_point(new, x) == old_sq_distance_point(old, x)
        if n == 3:
            for m in (1, 2):
                for f in faces(new, m):
                    for x in points[:3]:
                        assert sq_distance_point(fresh(f), x) == old_sq_distance_point(fresh(f), x)


@pytest.mark.parametrize("case", [c for c in CASES if c != "P222"])
def test_patch_matches_translate_first_loop(case):
    tilings, _ = case_tilings(case)
    rng = random.Random(100 + CASES.index(case))
    for tiling in tilings:
        center = random_rational_point(rng, tiling.dim, span=3)
        radii = (Q(1, 8), Q(1)) if tiling.dim == 3 else (Q(1, 1 << 20), Q(1), Q(16))
        for r2 in radii:
            assert patch(tiling, center, r2) == old_patch(tiling, center, r2)


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
    # the construction's tiles, and in the plane the Voronoi cells too (its
    # cone tiles there are triangles)
    tilings = [seed0_construction(name)]
    if name in WALLPAPER_NAMES:
        tilings.append(case_tilings(name)[0][0])
    for tiling in tilings:
        for t in tiling.cell_tiles:
            check_rings(t)


@pytest.mark.parametrize("case", ["plane", "space", "plane-in-space"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_rings_and_hull_incidences_on_clouds(case, data):
    pts = data.draw(clouds(3 if case == "space" else 2))
    if case == "plane-in-space":
        pts = [vec(_in_space(*p)) for p in pts]
    frame = standard_frame(len(pts[0]))
    poly = ConvexPolytope(frame, pts)
    if poly.dim == frame.dim:
        # the hull carries its tight sets, read off the polar
        assert poly._tight == tuple(
            frozenset(k for k, h in enumerate(poly.facets()) if vdot(h.covector, v) == h.offset)
            for v in poly.vertices)
    if poly.dim >= 2:
        check_rings(poly)


@pytest.mark.parametrize("name", WALLPAPER_NAMES)
def test_svg_paths_walk_tile_edges(name):
    # each path visits the vertices of one tile translate once, along its
    # edges; the Voronoi cells are polygons, the construction's tiles triangles
    (tiling, _), _ = case_tilings(name)
    window = (0, 0, 1, 1)
    (lo0, lo1), (hi0, hi1) = _cell_range(tiling.frame, window)
    outlines = {}
    for t in tiling.cell_tiles:
        index = {p: i for i, p in enumerate(t.vertices)}
        edges = [[index[p] for p in e.vertices] for e in faces(t, 1)]
        for k in product(range(lo0, hi0 + 1), range(lo1, hi1 + 1)):
            pts = ["%s,%s" % tuple(map(_fmt, to_cartesian(tiling.frame, vadd(p, k))))
                   for p in t.vertices]
            outlines[frozenset(pts)] = {frozenset((pts[i], pts[j])) for i, j in edges}
    paths = re.findall(r' d="M (.*?) Z"', tiling_svg(tiling, window))
    assert paths
    for d in paths:
        ring = d.split(" L ")
        assert len(set(ring)) == len(ring)
        assert set(map(frozenset, zip(ring, ring[1:] + ring[:1]))) == outlines[frozenset(ring)]
