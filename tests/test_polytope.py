import math
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystile import linalg as linalg_mod, polytope as polytope_mod
from crystile.rational import Q
from crystile.linalg import gram_norm2, vdot, vsub
from crystile.construction import _cone
from crystile.isometry import Isometry, inverse, standard_frame
from crystile.groups import orbit_in_ball, preset, stabilizer
from crystile.polytope import (
    ConvexPolytope,
    HalfSpace,
    InteriorOverlapError,
    PolytopeError,
    _cross,
    clip,
    congruent,
    faces,
    halfspace_intersection,
    meet_face_to_face,
    sq_distance_point,
    volume,
)
from crystile.serialize import tiling_from_json, tiling_to_json
from crystile.tiling import patch, prototiles
from crystile.voronoi import delone_params, voronoi_cell, voronoi_tiling

from conftest import (facet_key_set, fan_simplices, old_centroid, random_rational_isometry,
                      random_rational_point, recovered_facets, seed0_construction)


@pytest.fixture
def unit_square(frame2):
    return ConvexPolytope(frame2, [(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def rhomb(frame2):
    return ConvexPolytope(frame2, [(0, 0), (1, 0), (2, 1), (1, 1)])


def simplex_cell_halfspaces(frame2):
    # bisector system from the n-simplex site configuration with a = (1, 1)
    return [
        HalfSpace((-1, 0), Q(-1, 2)),
        HalfSpace((0, -1), Q(-1, 2)),
        HalfSpace((1, 1), -1),
    ]


def test_halfspace_zero_normal_rejected():
    with pytest.raises(PolytopeError):
        HalfSpace((0, 0), 1)


def test_simplex_cell_intersection(frame2):
    cell = halfspace_intersection(frame2, simplex_cell_halfspaces(frame2))
    assert isinstance(cell, ConvexPolytope)
    assert set(cell.vertices) == {
        (Q(1, 2), Q(1, 2)),
        (Q(1, 2), Q(-3, 2)),
        (Q(-3, 2), Q(1, 2)),
    }
    assert volume(cell) == 2
    assert len(faces(cell, 1)) == 3


def test_halfspace_unbounded_and_empty(frame2):
    assert halfspace_intersection(frame2, [HalfSpace((1, 0), 0)]) == "unbounded"
    assert (
        halfspace_intersection(frame2, [HalfSpace((1, 0), 0), HalfSpace((-1, 0), 1)])
        == "empty"
    )


def test_halfspace_strip_unbounded(frame2):
    strip = [HalfSpace((1, 0), 0), HalfSpace((-1, 0), -1)]
    assert halfspace_intersection(frame2, strip) == "unbounded"


def test_faces_square(unit_square):
    assert len(faces(unit_square, 1)) == 4
    assert len(faces(unit_square, 0)) == 4
    with pytest.raises(PolytopeError):
        faces(unit_square, 2)


def test_volume_examples(unit_square, rhomb, frame2):
    assert volume(unit_square) == 1
    assert volume(rhomb) == 1
    big = ConvexPolytope(frame2, [(0, 0), (3, 0), (0, 2), (3, 2)])
    assert volume(big) == 6


def test_volume_additivity(unit_square, rhomb, frame2):
    hexa = ConvexPolytope(
        frame2, [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)]
    )
    for poly in (unit_square, rhomb, hexa):
        parts = fan_simplices(poly)
        assert sum(volume(p) for p in parts) == volume(poly)


def test_hull_reduction(frame2):
    # midpoints and interior points are dropped
    p = ConvexPolytope(
        frame2,
        [(0, 0), (1, 0), (0, 1), (1, 1), (Q(1, 2), Q(1, 2)), (Q(1, 2), 0)],
    )
    assert len(p.vertices) == 4


def test_vertex_input_hulls_in_one_pass(frame3, count_calls):
    # the polar is a simplex on the first four affinely independent points,
    # clipped once by each other distinct point (the corner (1, 1, 1) is
    # given twice), and its vertices are kept as the facets, so facets()
    # makes no second pass; the hull clips on the int body _clip
    h = Q(1, 2)
    corners = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    calls = count_calls(polytope_mod, "_clip")
    cube = ConvexPolytope(frame3, corners + [(h, h, h), (h, 0, 0), (h, h, 0), (1, 1, 1)])
    assert cube.vertices == tuple(sorted(corners))
    facets = cube.facets()
    assert len(calls) == 11 - 4 == 7
    assert len(facets) == 6
    assert facet_key_set(facets) == facet_key_set(recovered_facets(frame3, cube))


def test_transform_carries_facets(hexframe, frame3):
    # carried facets map along an isometry as recovery finds them on the
    # image; in the hexagonal frame L^-T differs from L and from L^-1
    rng = random.Random(7)
    for frame, group in ((hexframe, preset("p6m")), (frame3, preset("Pm-3m"))):
        box = [HalfSpace(tuple(s if j == i else 0 for j in range(frame.dim)), -2)
               for i in range(frame.dim) for s in (1, -1)]
        poly = halfspace_intersection(frame, box + [HalfSpace((1,) * frame.dim, -1)])
        for m, _ in rng.sample(group.reps, 6):
            image = poly.transform(Isometry(frame, m, random_rational_point(rng, frame.dim)))
            assert image._facets is not None
            assert facet_key_set(image.facets()) == facet_key_set(recovered_facets(frame, image))


def test_round_trip_owns_vertices(unit_square, rhomb, frame2):
    for poly in (unit_square, rhomb):
        back = halfspace_intersection(frame2, poly.facets())
        assert isinstance(back, ConvexPolytope)
        assert back.vertices == poly.vertices


def test_round_trip_carries_facets(frame2, frame3):
    # the input facets come back as the facets, each plane once; planes that
    # touch only a vertex or an edge are dropped
    square = ConvexPolytope(frame2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    cube = ConvexPolytope(frame3, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    extra = {
        2: [HalfSpace((1, 1), 0), HalfSpace((2, 0), 0)],
        3: [HalfSpace((1, 1, 1), 0), HalfSpace((1, 1, 0), 0), HalfSpace((0, 0, 3), 0)],
    }
    for poly in (square, cube):
        facets = poly.facets()
        back = halfspace_intersection(poly.frame, extra[poly.frame.dim] + list(facets))
        assert back.vertices == poly.vertices
        assert facet_key_set(back.facets()) == facet_key_set(facets)
        assert len(back.facets()) == len(facets)
        assert len(faces(back, poly.frame.dim - 1)) == len(facets)


def test_clip_cube(frame3):
    cube = ConvexPolytope(frame3, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    assert clip(cube, HalfSpace((1, 1, 1), 0)) is cube
    corner = clip(cube, HalfSpace((-1, -1, -1), -1))
    assert corner.vertices == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert len(corner.facets()) == 4
    with pytest.raises(PolytopeError):
        clip(cube, HalfSpace((-1, 0, 0), 0))


def _nonzero(n):
    return st.tuples(*[st.integers(-3, 3)] * n).filter(any)


@st.composite
def cuts(draw, n):
    """A random polytope about the origin and a halfspace cutting it: free,
    through a vertex, through two vertices, or (in space) along an edge."""
    frame = standard_frame(n)
    hs = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        hs += [HalfSpace(e, -2), HalfSpace(tuple(-x for x in e), -2)]
    for a in draw(st.lists(_nonzero(n), max_size=4)):
        hs.append(HalfSpace(a, Q(-draw(st.integers(1, 6)), 3)))
    poly = halfspace_intersection(frame, hs)
    kind = draw(st.sampled_from(["free", "vertex", "pair", "edge"]))
    a = draw(_nonzero(n))
    if kind == "free":
        return poly, HalfSpace(a, Q(draw(st.integers(-12, 12)), 4))
    if kind == "vertex":
        return poly, HalfSpace(a, vdot(a, draw(st.sampled_from(poly.vertices))))
    if kind == "pair":
        u, w = draw(st.lists(st.sampled_from(poly.vertices), min_size=2, max_size=2, unique=True))
    else:
        u, w = draw(st.sampled_from(faces(poly, 1))).vertices
    d = vsub(w, u)
    a = (-d[1], d[0]) if n == 2 else _cross(d, a)
    assume(any(a))
    if draw(st.booleans()):
        a = tuple(-x for x in a)
    return poly, HalfSpace(a, vdot(a, u))


def check_clip(poly, h):
    frame = poly.frame
    assert facet_key_set(poly.facets()) == facet_key_set(recovered_facets(frame, poly))
    vals = [vdot(h.covector, v) - h.offset for v in poly.vertices]
    assume(any(s > 0 for s in vals))
    out = clip(poly, h)
    if all(s >= 0 for s in vals):
        assert out is poly
        return
    assert out.vertices == halfspace_intersection(frame, list(poly.facets()) + [h]).vertices
    recovered = recovered_facets(frame, out)
    assert facet_key_set(out.facets()) == facet_key_set(recovered)
    assert len(out.facets()) == len(recovered)


@given(cuts(2))
@settings(max_examples=80, deadline=None)
def test_clip_matches_intersection_2d(case):
    check_clip(*case)


@given(cuts(3))
@settings(max_examples=60, deadline=None)
def test_clip_matches_intersection_3d(case):
    check_clip(*case)


def test_congruent_examples(unit_square, rhomb, frame2):
    assert congruent(unit_square, unit_square) is not None
    moved = unit_square.translate((5, 7))
    iso = congruent(unit_square, moved)
    assert iso is not None
    assert {iso(v) for v in unit_square.vertices} == set(moved.vertices)
    assert congruent(unit_square, rhomb) is None


def test_congruent_preserves_squared_distances(frame2, unit_square):
    rng = random.Random(2)
    g = frame2.gram
    for _ in range(10):
        phi = random_rational_isometry(rng, frame2)
        image = unit_square.transform(phi)
        back = congruent(unit_square, image)
        assert back is not None
        for a in unit_square.vertices:
            for b in unit_square.vertices:
                assert gram_norm2(g, vsub(a, b)) == gram_norm2(
                    g, vsub(back(a), back(b))
                )


def test_congruent_symmetric(unit_square, frame2):
    rng = random.Random(4)
    phi = random_rational_isometry(rng, frame2)
    image = unit_square.transform(phi)
    assert congruent(unit_square, image) is not None
    assert congruent(image, unit_square) is not None


def test_meet_face_to_face_examples(unit_square, frame2):
    right = unit_square.translate((1, 0))
    r = meet_face_to_face(unit_square, right)
    assert r.kind == "shared-face" and r.face_dim == 1

    far = unit_square.translate((2, 2))
    assert meet_face_to_face(unit_square, far).kind == "disjoint"

    half = unit_square.translate((1, Q(1, 2)))
    r = meet_face_to_face(unit_square, half)
    assert r.kind == "violation"
    assert set(r.witness) == {(Q(1), Q(1, 2)), (Q(1), Q(1))}


def test_meet_overlap_error(unit_square):
    with pytest.raises(InteriorOverlapError):
        meet_face_to_face(unit_square, unit_square.translate((Q(1, 2), Q(1, 2))))


def test_meet_vertex_on_edge_violation(unit_square, frame2):
    # triangle whose apex touches the middle of the square's edge
    tri = ConvexPolytope(frame2, [(Q(1, 2), 1), (0, 2), (1, 2)])
    r = meet_face_to_face(unit_square, tri)
    assert r.kind == "violation"


def test_sq_distance(unit_square):
    assert sq_distance_point(unit_square, (Q(1, 2), Q(1, 2))) == 0
    assert sq_distance_point(unit_square, (2, 0)) == 1
    assert sq_distance_point(unit_square, (2, 2)) == 2
    assert sq_distance_point(unit_square, (Q(1, 2), Q(3, 2))) == Q(1, 4)


def test_gram_aware_distance(hexframe):
    tri = ConvexPolytope(hexframe, [(0, 0), (1, 0), (0, 1)])
    # in hex coordinates (1,1) has squared norm 1
    assert gram_norm2(hexframe.gram, (1, 1)) == 1
    assert sq_distance_point(tri, (2, 0)) == 1


def test_3d_cube(frame3):
    cube = ConvexPolytope(
        frame3, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    )
    assert volume(cube) == 1
    assert len(faces(cube, 2)) == 6
    assert len(faces(cube, 1)) == 12
    assert len(faces(cube, 0)) == 8
    back = halfspace_intersection(frame3, cube.facets())
    assert back.vertices == cube.vertices
    assert sq_distance_point(cube, (2, 2, 2)) == 3
    assert sq_distance_point(cube, (Q(1, 2), Q(1, 2), 4)) == 9
    parts = fan_simplices(cube)
    assert sum(volume(p) for p in parts) == 1


def test_3d_meet(frame3):
    cube = ConvexPolytope(
        frame3, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    )
    r = meet_face_to_face(cube, cube.translate((1, 0, 0)))
    assert r.kind == "shared-face" and r.face_dim == 2
    r = meet_face_to_face(cube, cube.translate((1, 1, 0)))
    assert r.kind == "shared-face" and r.face_dim == 1
    r = meet_face_to_face(cube, cube.translate((1, 1, 1)))
    assert r.kind == "shared-face" and r.face_dim == 0
    r = meet_face_to_face(cube, cube.translate((1, Q(1, 2), 0)))
    assert r.kind == "violation"


def test_repeated_distance_makes_one_gram_product(frame2, count_calls):
    # the integer quadratic data are cached on the tile, so a second call
    # from a point outside it scales x once and forms only (D G) X, with no
    # Fraction Gram product (polytope binds no mat_vec) and no face lookup
    tile = ConvexPolytope(frame2, [(0, 0), (2, 0), (0, 1), (1, 2)])
    x = (Q(7, 2), Q(-1, 3))
    first = sq_distance_point(tile, x)
    quad = tile._quad
    calls = []
    assert not hasattr(polytope_mod, "mat_vec")
    for name in ("faces", "_edges", "integral", "integral_rows", "int_mat_vec"):
        count_calls(polytope_mod, name, calls)
    second = sq_distance_point(tile, x)
    assert tile._quad is quad
    assert second == first > 0 and type(second) is Q
    assert calls == ["integral", "int_mat_vec"]


def test_vertex_input_beyond_dimension_3_is_refused():
    # the 4D simplex came out with no vertices and no facets; clip, and so
    # the hull, is exact for n <= 3 only
    simplex = [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)]
    with pytest.raises(PolytopeError):
        ConvexPolytope(standard_frame(4), simplex)


ENTRY_POINTS = {
    "translate": lambda sq, t, g, x: sq.translate(x),
    "contains": lambda sq, t, g, x: sq.contains(x),
    "strictly_contains": lambda sq, t, g, x: sq.strictly_contains(x),
    "sq_distance_point": lambda sq, t, g, x: sq_distance_point(sq, x),
    "patch": lambda sq, t, g, x: patch(t, x, 1),
    "stabilizer": lambda sq, t, g, x: stabilizer(g, x),
    "orbit_in_ball point": lambda sq, t, g, x: orbit_in_ball(g, x, (0, 0), 1),
    "orbit_in_ball center": lambda sq, t, g, x: orbit_in_ball(g, (Q(1, 3), Q(1, 7)), x, 1),
    "voronoi_cell": lambda sq, t, g, x: voronoi_cell(g, x),
    "delone_params": lambda sq, t, g, x: delone_params(g, x),
    "voronoi_tiling": lambda sq, t, g, x: voronoi_tiling(g, x),
}


@pytest.mark.parametrize("x", [(5,), (Q(1, 2), Q(1, 2), Q(1, 3))], ids=["1-vector", "3-vector"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_points_of_the_wrong_length(unit_square, entry, x):
    # zip would truncate a 3-vector to its first two entries (or a 1-vector
    # to one) and answer for another point; every public entry taking a
    # point of the plane refuses it instead
    group = preset("p2")
    with pytest.raises(ValueError, match=f"expected a 2-vector, got {len(x)} entries"):
        ENTRY_POINTS[entry](unit_square, seed0_construction("p2"), group, x)


@st.composite
def cut_boxes(draw):
    """(frame, box, cut): a box with rational corners in 2 or 3 dimensions and
    a halfspace through its centre, which keeps part of its interior."""
    n = draw(st.sampled_from([2, 3]))
    frac = st.builds(Q, st.integers(-9, 9), st.integers(1, 7))
    lo = [draw(frac) for _ in range(n)]
    hi = [a + draw(st.builds(Q, st.integers(1, 9), st.integers(1, 7))) for a in lo]
    frame = standard_frame(n)
    box = ConvexPolytope(frame, [tuple(c) for c in product(*zip(lo, hi))])
    a = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    assume(any(a))
    c = vdot(a, old_centroid(box.vertices)) + draw(frac) / 16
    assume(any(vdot(a, v) > c for v in box.vertices))
    return frame, box, HalfSpace(a, c)


def _sorted_by_rows(polys):
    den = math.lcm(*(p._den for p in polys))
    return sorted(polys, key=lambda p: tuple(tuple(den // p._den * c for c in r) for r in p._rows))


@given(cut_boxes(), st.data())
@settings(max_examples=40, deadline=None)
def test_build_paths_give_one_canonical_form(case, data):
    # vertex input, a rational translate and back, a lattice isometry and
    # back, a clip that cuts nothing and a face of a cone build one vertex
    # set as one (V, rows): equal, hashed equally, with the same Q vertices
    frame, box, h = case
    poly = clip(box, h)
    n = frame.dim
    frac = st.builds(Q, st.integers(-9, 9), st.integers(1, 7))
    v = tuple(data.draw(frac) for _ in range(n))
    perm = data.draw(st.permutations(range(n)))
    signs = [data.draw(st.sampled_from([1, -1])) for _ in range(n)]
    iso = Isometry(frame, tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                                for i in range(n)), v)
    far = HalfSpace((1,) + (0,) * (n - 1), poly.bounding_box()[0][0] - 1)
    paths = [poly,
             ConvexPolytope(frame, poly.vertices),
             poly.translate(v).translate(tuple(-x for x in v)),
             poly.transform(iso).transform(inverse(iso)),
             clip(poly, far)]
    for p in paths:
        assert p == poly and hash(p) == hash(poly)
        assert p.vertices == poly.vertices and (p._den, p._rows) == (poly._den, poly._rows)
    apex = old_centroid(poly.vertices)
    facet_faces = faces(poly, n - 1)
    for p in paths:
        assert set(faces(p, n - 1)) == set(facet_faces)
    for face, h in zip(facet_faces, poly._facets):
        for f in (faces(_cone(face, h, apex), n - 1)[0], ConvexPolytope(frame, face.vertices)):
            assert f == face and hash(f) == hash(face) and f.vertices == face.vertices
    # the stored rows order polytopes as their Q vertices do, over one denominator
    polys = [poly, *faces(poly, n - 1), *faces(poly, 1), poly.translate(v), poly.transform(iso)]
    assert sorted(polys, key=lambda p: p.vertices) == _sorted_by_rows(polys)


def test_p222_delone_params_forms_no_q_in_the_kernel(count_calls):
    # clip forms each crossing as int rows over one new denominator, and the
    # box corners are int rows, so the localization makes no polytope.Q call
    calls = count_calls(polytope_mod, "Q")
    cert = delone_params(preset("P222"), (Q(18, 47), Q(29, 43), Q(12, 19)))
    assert cert.min_sq_distance > 0
    assert calls == []


def test_loading_and_prototiles_call_no_rational_elimination(count_calls):
    # the hull, the rank tests and congruent eliminate on the int rows they
    # hold (linalg.int_rref).  Through the Fraction wrappers, the Pm-3m load
    # made 579 mat_rank and 772 solve_linear calls and P222's prototiles
    # 129 mat_rank and 42 mat_inv calls.
    data = tiling_to_json(seed0_construction("Pm-3m"))
    p222 = seed0_construction("P222")
    calls = []
    for name in ("mat_rank", "solve_linear", "mat_inv", "nullspace"):
        count_calls(linalg_mod, name, calls)
    assert tiling_from_json(data).cell_tiles == seed0_construction("Pm-3m").cell_tiles
    assert len(prototiles(p222)) == 14
    assert calls == []
