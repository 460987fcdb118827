"""Differential oracle for polytope motion on ints: translate, transform and
volume.

The functions below are translate, transform, _carried, _inverse_transpose,
_tight_sets, _fan and volume as they were when they ran in Fraction
arithmetic, kept verbatim apart from their names (and self becoming an
argument): the image vertices came from Isometry.__call__ or vadd, each
carried facet from mat_vec by L^-T = transpose(mat_inv(L)) and one vdot,
and the volume from Fraction determinants of vertex differences.  They
are compared with the int bodies for equal vertex tuples, equal facet
tuples (HalfSpace by HalfSpace, in order), equal tight sets and equal
volumes.  Every image must also hold, as its int forms, exactly what a
fresh scaling of its vertices and facets gives, so a denominator left
unreduced fails.

Inputs: hypothesis polytopes in 1D to 3D (hulled from drawn points, so
some are lower-dimensional and carry no facets) under drawn translates
and isometries, the seed-0 Voronoi cell and cones of every preset under
every coset representative, the cross-frame pull of
reexpress_over_lattice, the non-lattice shift of transform_tiling's
re-expression branch, and the faces of tiles.
"""

from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from crystile.construction import _cone, generic_apex
from crystile.groups import PRESET_NAMES, generic_point, lattice_isometries, preset
from crystile.isometry import (
    Frame,
    Isometry,
    hexagonal_frame,
    inverse,
    standard_frame,
)
from crystile.linalg import (
    integral,
    integral_rows,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
    vadd,
    vdot,
    vec,
    vsub,
    zero_vec,
)
from crystile.polytope import (
    ConvexPolytope,
    HalfSpace,
    PolytopeError,
    _facet_edges,
    faces,
    volume,
)
from crystile.rational import Q, ZERO
from crystile.voronoi import cell_with_certificate

from conftest import (from_vertices, halfspaces, rational_givens, rational_rotation_2d, seed0_construction,
                      with_halfspaces)


# --- the Fraction motion, verbatim ------------------------------------------------

def old_translate(self, v) -> "ConvexPolytope":
    # a translation keeps the vertices exact, distinct and in lexicographic
    # order, and (an isometry) each vertex's tight set
    v = vec(v)
    return with_halfspaces(self.frame, tuple(vadd(p, v) for p in self.vertices),
                           _carried(halfspaces(self), v), old_tight_sets(self))


def old_transform(self, iso: Isometry) -> "ConvexPolytope":
    if iso.frame != self.frame:
        raise PolytopeError("isometry frame mismatch")
    # an isometry keeps incidences: each image vertex keeps its tight set
    pts = tuple(map(iso, self.vertices))
    order = sorted(range(len(pts)), key=pts.__getitem__)
    tight = old_tight_sets(self)
    return with_halfspaces(iso.target, tuple(pts[i] for i in order),
                           _carried(halfspaces(self), iso.translation, iso.linear),
                           tight and tuple(tight[i] for i in order))


def _carried(facets, t, linear=None):
    """Facets a.x >= c moved along x -> L x + t (L = linear, default I):
    with a' = L^-T a they become a'.y >= c + a'.t.  None stays None."""
    if facets is None:
        return None
    lt = None if linear is None else _inverse_transpose(linear)
    covectors = (h.covector if lt is None else mat_vec(lt, h.covector) for h in facets)
    return tuple(HalfSpace(a, h.offset + vdot(a, t)) for h, a in zip(facets, covectors))


@lru_cache(maxsize=256)
def _inverse_transpose(linear):
    """L^-T, once per distinct linear part (point groups repeat a few matrices)."""
    return transpose(mat_inv(linear))


def old_tight_sets(poly: ConvexPolytope):
    """Per vertex of a full-dimensional polytope, the frozenset of indices
    into facets() of the facets through it, and None for a lower-dimensional
    one; computed once, or carried by the hull, clip, translate and transform."""
    if poly._tight is None and poly._facets is not None:
        facets = poly.facets()
        poly._tight = tuple(
            frozenset(k for k, f in enumerate(facets) if vdot(f.covector, v) == f.offset)
            for v in poly.vertices)
    return poly._tight


def old_fan(poly: ConvexPolytope):
    """The pulling triangulation (De Loera, Rambau & Santos, Triangulations,
    4.3) of a full-dimensional polytope, as vertex tuples: an interval is its
    own simplex, else a cone from base = vertices[0] over each facet not
    through it, in the plane (base, u, w) on its edge {u, w}, in space
    (base, f, u, w) over each edge {u, w} not through its first vertex f."""
    vs = poly.vertices
    if poly.frame.dim == 1:
        return [vs]
    out = []
    for on, edges in _facet_edges(poly):
        f = on[0]
        if f == 0:
            continue
        if poly.frame.dim == 2:
            out += [(vs[0], vs[i], vs[j]) for i, j in edges]
        else:
            out += [(vs[0], vs[f], vs[i], vs[j]) for i, j in edges if i != f]
    return out


def old_volume(poly: ConvexPolytope):
    """Exact lattice-normalized volume (Euclidean volume / sqrt(det G))."""
    n = poly.frame.dim
    if poly.dim != n:
        raise PolytopeError("volume requires a full-dimensional polytope")
    dets = (mat_det(tuple(vsub(p, s[0]) for p in s[1:])) for s in old_fan(poly))
    return sum(map(abs, dets), ZERO) / factorial(n)


# --- the comparison ---------------------------------------------------------------

def copy(poly: ConvexPolytope) -> ConvexPolytope:
    """The polytope afresh, with no cache filled, so that the old and the new
    motion each compute what they read."""
    return from_vertices(poly.frame, poly.vertices, poly._facets)


def assert_int_forms(image: ConvexPolytope):
    # each stored facet pair is the scaling of the HalfSpace built from it,
    # so the stored form is canonical: no denominator is left unreduced
    assert (image._den, image._rows) == integral_rows(image.vertices)
    if image._facets is not None:
        assert image._facets == tuple(integral(h.covector + (h.offset,))
                                      for h in image.facets())


def assert_same_motion(poly: ConvexPolytope, move: str, arg):
    """poly.translate(arg) or poly.transform(arg) against the old body."""
    old = (old_translate if move == "translate" else old_transform)(copy(poly), arg)
    new = getattr(copy(poly), move)(arg)
    assert new.frame == old.frame
    assert new.vertices == old.vertices
    assert new._facets == old._facets
    assert new._tight == old._tight
    if new._facets is not None:
        assert new._tight == old_tight_sets(copy(new))
        assert volume(copy(new)) == old_volume(copy(old))
    assert_int_forms(new)
    assert new.dim == old.dim


# --- hypothesis polytopes -----------------------------------------------------------

FRAMES = {
    1: [standard_frame(1), Frame(1, ((Q(4, 9),),))],
    2: [standard_frame(2), hexagonal_frame()],
    3: [standard_frame(3), Frame(3, ((1, 1, 0), (1, 2, 1), (0, 1, 2)))],
}


def rational(data):
    return Q(data.draw(st.integers(-72, 72)), data.draw(st.sampled_from([1, 2, 3, 5, 12])))


def draw_polytope(data, frame):
    """The hull of up to seven drawn points: lower-dimensional ones too."""
    coord = st.builds(Q, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
    pts = data.draw(st.lists(st.tuples(*[coord] * frame.dim), min_size=1, max_size=7))
    return ConvexPolytope(frame, pts)


@lru_cache(maxsize=None)
def automorphisms(frame):
    return lattice_isometries(frame, frame)


def draw_isometry(data, frame):
    """An isometry of frame with a drawn rational translation: in the
    standard plane and space a rational rotation, maybe times a reflection,
    else a lattice automorphism."""
    n = frame.dim
    if n > 1 and frame == standard_frame(n):
        t = Q(data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 12)))
        axes = data.draw(st.sampled_from([(0, 1), (0, 2), (1, 2)] if n == 3 else [(0, 1)]))
        lin = rational_givens(n, *axes, t)
        if data.draw(st.booleans()):
            lin = tuple(tuple(-x if j == 0 else x for j, x in enumerate(row)) for row in lin)
    else:
        lin = data.draw(st.sampled_from(automorphisms(frame)))
    return Isometry(frame, lin, tuple(rational(data) for _ in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_polytopes_move_as_in_fractions(n, data):
    frame = data.draw(st.sampled_from(FRAMES[n]))
    poly = draw_polytope(data, frame)
    assert_same_motion(poly, "translate", tuple(rational(data) for _ in range(n)))
    assert_same_motion(poly, "translate", tuple(data.draw(st.integers(-3, 3)) for _ in range(n)))
    assert_same_motion(poly, "transform", draw_isometry(data, frame))
    if poly._facets is not None:
        assert volume(copy(poly)) == old_volume(copy(poly))


# --- presets, cones, faces and cross-frame pulls ----------------------------------

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_seed0_cells_and_cones_move_as_in_fractions(name):
    group = preset(name)
    cell, _ = cell_with_certificate(group, generic_point(group, 0))
    apex = generic_apex(cell, 0).apex
    n = group.dim
    cones = [_cone(f, h, apex) for h, f in zip(cell._facets, faces(cell, n - 1))]
    shifts = [tuple(Q(k + 1, 2 * k + 3) for k in range(n)), tuple(range(-1, n - 1))]
    for poly in [cell, *cones]:
        for m, v in group.reps:
            assert_same_motion(poly, "transform", Isometry(group.frame, m, v))
        for v in shifts:
            assert_same_motion(poly, "translate", v)
    # faces are lower-dimensional: no facets to carry
    for m_dim in range(n):
        for f in faces(cell, m_dim):
            assert_same_motion(f, "transform", Isometry(group.frame, *group.reps[-1]))
            assert_same_motion(f, "translate", shifts[0])


@pytest.mark.parametrize("name, basis", [
    ("p4m", ((1, Q(1, 2)), (0, Q(1, 2)))),
    ("p6m", ((1, 0), (0, Q(1, 3)))),
    ("P222", ((1, 0, Q(1, 2)), (0, 1, Q(1, 2)), (0, 0, Q(1, 2)))),
])
def test_reexpress_pull_moves_as_in_fractions(name, basis):
    # the pull of reexpress_over_lattice maps the old frame onto the frame of
    # a denser lattice: L^-T is G_t L G_s^-1 with two distinct Gram matrices
    tiling = seed0_construction(name)
    frame = tiling.frame
    new_frame = Frame(frame.dim, mat_mul(transpose(basis), mat_mul(frame.gram, basis)))
    pull = inverse(Isometry(new_frame, basis, zero_vec(frame.dim), target=frame))
    for t in tiling.cell_tiles:
        assert_same_motion(t, "transform", pull)


@pytest.mark.parametrize("name", ["p2", "p3", "P1"])
def test_non_lattice_shift_moves_as_in_fractions(name):
    # transform_tiling re-expresses a tiling whose image lattice is not its
    # own by translating every tile by L^-1 t, a rational shift
    tiling = seed0_construction(name)
    n = tiling.dim
    lin = rational_rotation_2d(Q(1, 2)) if n == 2 else rational_givens(3, 0, 2, Q(1, 3))
    t = tuple(Q(k + 1, 3 + 2 * k) for k in range(n))
    shift = mat_vec(mat_inv(lin), t)
    for tile in tiling.cell_tiles:
        assert_same_motion(tile, "translate", shift)
