"""Differential oracle for halfspace_intersection and meet_face_to_face on
the double description step.

old_halfspace_intersection and old_meet_face_to_face (conftest.py) are
the brute-force vertex enumeration on Q halfspaces that both ran before,
verbatim.  The new code must give the same answer kind, vertex rows and
facet pairs in the same order on drawn systems in 1-3D (boxes with cuts,
scaled duplicates, opposite pairs, covectors of rank < n, empty and
unbounded systems, in any order), and the same MeetResult or
InteriorOverlapError on drawn polytope pairs that touch at a vertex,
share a facet, overlap or miss, and on the neighbouring tiles of real
tilings.
"""

from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystile.construction import construct_tiling
from crystile.groups import generic_point, preset
from crystile.isometry import Isometry, standard_frame
from crystile.linalg import vdot
from crystile.polytope import (ConvexPolytope, HalfSpace, InteriorOverlapError,
                               halfspace_intersection, meet_face_to_face)
from crystile.rational import Q
from crystile.voronoi import voronoi_tiling

from conftest import old_halfspace_intersection, old_meet_face_to_face


def same_answer(frame, hs):
    new, old = halfspace_intersection(frame, hs), old_halfspace_intersection(frame, hs)
    if isinstance(old, str):
        assert new == old
    else:
        assert isinstance(new, ConvexPolytope)
        assert (new._den, new._rows, new._facets) == (old._den, old._rows, old._facets)
    return new


def covectors(n, rank_below):
    """Small int covectors, with the last entry 0 when rank_below."""
    entry = st.integers(-2, 2)
    last = st.just(0) if rank_below and n > 1 else entry
    return st.tuples(*[entry] * (n - 1), last).filter(any)


@st.composite
def boxes(draw, n):
    """The halfspaces -a <= x_i <= b of a box, 0 <= a, b <= 2."""
    hs = []
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        hs += [HalfSpace(e, -draw(st.integers(0, 2))), HalfSpace(tuple(-x for x in e), -draw(st.integers(0, 2)))]
    return hs


@st.composite
def systems(draw, n):
    """A list of halfspaces in n dimensions: a box or nothing, cuts, then
    scaled duplicates and opposite pairs (the same plane, or a slab) of
    halfspaces drawn before, in a drawn order."""
    hs = draw(boxes(n)) if draw(st.booleans()) else []
    rank_below = draw(st.booleans())
    offsets = st.builds(Q, st.integers(-6, 3), st.integers(1, 3))
    hs += draw(st.lists(st.builds(HalfSpace, covectors(n, rank_below), offsets), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        if not hs:
            break
        h = draw(st.sampled_from(hs))
        if draw(st.booleans()):
            k = draw(st.integers(1, 3))
            hs.append(HalfSpace(tuple(k * x for x in h.covector), k * h.offset))
        else:
            gap = Q(draw(st.integers(-1, 1)), 2)
            hs.append(HalfSpace(tuple(-x for x in h.covector), -h.offset - gap))
    return draw(st.permutations(hs))


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_intersection_matches_the_brute_force_enumeration(n, data):
    same_answer(standard_frame(n), data.draw(systems(n)))


def test_intersection_matches_on_kinds_of_systems(frame2, frame3):
    cube = [HalfSpace(tuple(s * int(j == i) for j in range(3)), -1) for i in range(3) for s in (1, -1)]
    cases = [
        (frame2, []),                                                     # all of the plane
        (frame2, [HalfSpace((1, 0), 0), HalfSpace((-1, 0), 1)]),          # empty, rank 1
        (frame2, [HalfSpace((1, 0), 0), HalfSpace((-1, 0), 0)]),          # a line
        (frame3, cube + [HalfSpace((1, 1, 1), 3)]),                       # a corner only
        (frame3, cube + [HalfSpace((1, 1, 1), 4)]),                       # empty
        (frame3, cube + [HalfSpace((1, 1, 0), 2), HalfSpace((-1, -1, 0), -2)]),  # an edge
        (frame3, cube[:5] + [HalfSpace((0, 0, 2), -2)]),                  # unbounded
        (frame3, cube + [HalfSpace((1, 1, 1), 0), HalfSpace((-1, -1, -1), 0)]),  # a hexagon
    ]
    answers = [same_answer(frame, hs) for frame, hs in cases]
    assert [a if isinstance(a, str) else (a.dim, len(a.vertices)) for a in answers] == [
        "unbounded", "empty", "unbounded", (0, 1), "empty", (1, 2), "unbounded", (2, 6)]


# --- meets ----------------------------------------------------------------------

def same_meet(p, q):
    try:
        old = old_meet_face_to_face(p, q)
    except InteriorOverlapError:
        with pytest.raises(InteriorOverlapError):
            meet_face_to_face(p, q)
        return "overlap"
    assert meet_face_to_face(p, q) == old
    return old.kind


def reflection(frame, h):
    """The Euclidean reflection in the hyperplane of h (standard frame)."""
    a, n = h.covector, frame.dim
    aa = vdot(a, a)
    lin = tuple(tuple(int(i == j) - 2 * a[i] * a[j] / aa for j in range(n)) for i in range(n))
    return Isometry(frame, lin, tuple(2 * h.offset * x / aa for x in a))


@st.composite
def polytopes(draw, n):
    frame = standard_frame(n)
    hs = draw(boxes(n))
    offsets = st.builds(Q, st.integers(-6, 0), st.integers(1, 3))
    hs += draw(st.lists(st.builds(HalfSpace, covectors(n, False), offsets), max_size=3))
    poly = halfspace_intersection(frame, hs)
    assume(not isinstance(poly, str) and poly.dim == n)
    return poly


@st.composite
def pairs(draw, n):
    """A polytope and one that touches it at a vertex (a point reflection
    there), shares a facet with it (a reflection in the facet), is a
    translate by a vertex difference, or is drawn apart and shifted."""
    p = draw(polytopes(n))
    frame = p.frame
    kind = draw(st.sampled_from(["vertex", "facet", "translate", "other"]))
    if kind == "vertex":
        v = draw(st.sampled_from(p.vertices))
        minus = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
        return p, p.transform(Isometry(frame, minus, tuple(2 * x for x in v)))
    if kind == "facet":
        return p, p.transform(reflection(frame, draw(st.sampled_from(p.facets()))))
    if kind == "translate":
        u, w = draw(st.lists(st.sampled_from(p.vertices), min_size=2, max_size=2))
        return p, p.translate(tuple(a - b for a, b in zip(u, w)))
    shift = draw(st.tuples(*[st.builds(Q, st.integers(-8, 8), st.integers(1, 2))] * n))
    return p, draw(polytopes(n)).translate(shift)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_meet_matches_the_brute_force_enumeration(n, data):
    same_meet(*data.draw(pairs(n)))


@pytest.mark.parametrize("name", ["p4m", "p31m"])
def test_meet_matches_on_neighbouring_tiles(name):
    # every cell tile against every tile of the 3x3 block about it, and
    # against one moved by (1/2, 0) (overlaps) and by (1/3, 1) (non-faces)
    g = preset(name)
    kinds = set()
    for tiling in (construct_tiling(g, 0), voronoi_tiling(g, generic_point(g, 0))):
        tiles = tiling.cell_tiles
        for t, s in product(tiles, tiles):
            for k in product(range(-1, 2), repeat=2):
                kinds.add(same_meet(t, s.translate(k)))
            kinds |= {same_meet(t, s.translate(v)) for v in ((Q(1, 2), 0), (Q(1, 3), 1))}
    assert kinds == {"disjoint", "shared-face", "violation", "overlap"}
