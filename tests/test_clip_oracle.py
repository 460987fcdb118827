"""Differential oracle for clip, which carries each vertex's tight set.

clip_recomputed is clip as it was before it carried the tight sets: on
every clip that cuts it recomputed the set of facets through each vertex,
one dot product per vertex per facet.  It is also clip as it was before
it ran on ints: its side values a.v - c and its crossing points are
Fraction arithmetic.  It is kept verbatim (apart from its name) and
compared with clip for exact equality of the vertex tuples and the facet
tuples, after every step of hypothesis-drawn chains of clips on boxes and
cubes (with small cuts, and with cuts whose entries have denominators of
up to ten digits), and on every clip that the seed-0 Voronoi cell of each
preset makes.  After each step the tight sets clip carries are compared
with the sets recomputed from the facets.
"""

from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystile import voronoi
from crystile.groups import PRESET_NAMES, generic_point, preset
from crystile.isometry import standard_frame
from crystile.linalg import vdot, vsub
from crystile.polytope import (
    ConvexPolytope,
    HalfSpace,
    PolytopeError,
    _cross,
    _halfspace,
    _tight_sets,
    clip,
    faces,
)
from crystile.rational import Q

from conftest import with_halfspaces


# --- the clip that recomputed the tight sets -------------------------------------

def clip_recomputed(poly: ConvexPolytope, h: HalfSpace) -> ConvexPolytope:
    """poly n h by one exact step of the double description method.

    poly is full-dimensional and h keeps part of its interior.  Vertices
    with a.v >= c stay, and each edge from a vertex strictly inside to one
    strictly outside gives the point where it crosses the hyperplane.  Two
    vertices span an edge iff at least n-1 facets hold both: for n <= 3
    those facets meet poly in a face of dimension at most 1 through both
    vertices, which is their edge.  (From n = 4 on, the combinatorial test
    of Fukuda & Prodon 1996 also needs that no third vertex lies on all of
    them.)  The facets are the old ones that still hold a vertex strictly
    inside, then h.  A redundant h returns poly.
    """
    n = poly.frame.dim
    facets = poly.facets()
    vals = [vdot(h.covector, v) - h.offset for v in poly.vertices]
    if all(s >= 0 for s in vals):
        return poly
    inside = [i for i, s in enumerate(vals) if s > 0]
    if not inside:
        raise PolytopeError("halfspace leaves no interior")
    tight = [frozenset(k for k, f in enumerate(facets) if vdot(f.covector, v) == f.offset)
             for v in poly.vertices]
    pts = [v for v, s in zip(poly.vertices, vals) if s >= 0]
    for i in inside:
        for j, s in enumerate(vals):
            if s < 0 and len(tight[i] & tight[j]) >= n - 1:
                u, w = poly.vertices[i], poly.vertices[j]
                t = vals[i] / (vals[i] - s)
                pts.append(tuple(a + t * (b - a) for a, b in zip(u, w)))
    held = frozenset().union(*(tight[i] for i in inside))
    kept = tuple(f for k, f in enumerate(facets) if k in held) + (h,)
    return with_halfspaces(poly.frame, tuple(sorted(pts)), kept)


# --- the comparison --------------------------------------------------------------

def recomputed_tight(poly):
    return tuple(
        frozenset(k for k, f in enumerate(poly.facets()) if vdot(f.covector, v) == f.offset)
        for v in poly.vertices)


def checked_clip(poly, h):
    """clip(poly, h), checked against clip_recomputed and the tight sets
    recomputed from its facets."""
    try:
        want = clip_recomputed(poly, h)
    except PolytopeError:
        with pytest.raises(PolytopeError):
            clip(poly, h)
        return poly
    got = clip(poly, h)
    assert (got is poly) == (want is poly)
    assert got.vertices == want.vertices
    assert got.facets() == want.facets()
    assert _tight_sets(got) == recomputed_tight(got)
    return got


def _nonzero(n):
    return st.tuples(*[st.integers(-3, 3)] * n).filter(any)


def draw_cut(data, poly):
    """A halfspace for poly: free, through a vertex, through two vertices,
    or (in space) along an edge, facing either way."""
    n = poly.frame.dim
    kind = data.draw(st.sampled_from(["free", "vertex", "pair", "edge"]))
    a = data.draw(_nonzero(n))
    if kind == "free":
        return HalfSpace(a, Q(data.draw(st.integers(-12, 12)), 4))
    if kind == "vertex":
        return HalfSpace(a, vdot(a, data.draw(st.sampled_from(poly.vertices))))
    if kind == "pair":
        u, w = data.draw(st.lists(st.sampled_from(poly.vertices), min_size=2, max_size=2,
                                  unique=True))
    else:
        u, w = data.draw(st.sampled_from(faces(poly, 1))).vertices
    d = vsub(w, u)
    b = (-d[1], d[0]) if n == 2 else _cross(d, a)
    if not any(b):
        b = a
    if data.draw(st.booleans()):
        b = tuple(-x for x in b)
    return HalfSpace(b, vdot(b, u))


@pytest.mark.parametrize("n, steps", [(2, 10), (3, 8)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_clip_chains_match_recomputed_tight_sets(n, steps, data):
    # a box [-w_i, w_i] (a cube when the w_i agree), then a chain of cuts
    widths = data.draw(st.tuples(*[st.integers(1, 3)] * n))
    poly = ConvexPolytope(standard_frame(n), product(*((-w, w) for w in widths)))
    for _ in range(steps):
        poly = checked_clip(poly, draw_cut(data, poly))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_seed0_cell_clips_match_recomputed_tight_sets(name, monkeypatch):
    # the cell code clips by stored facets through the int body _clip
    monkeypatch.setattr(voronoi, "_clip", lambda poly, f: checked_clip(poly, _halfspace(f)))
    g = preset(name)
    cell, _ = voronoi.cell_with_certificate(g, generic_point(g, 0))
    assert _tight_sets(cell) == recomputed_tight(cell)


def big_rational(data, digits=10):
    return Q(data.draw(st.integers(-10 ** digits, 10 ** digits)),
             data.draw(st.integers(1, 10 ** digits)))


def draw_big_cut(data, poly):
    """A halfspace for poly with rational entries of up to ten-digit
    denominators: free, or through a vertex or a point inside an edge."""
    n = poly.frame.dim
    a = tuple(big_rational(data) for _ in range(n))
    assume(any(a))
    kind = data.draw(st.sampled_from(["free", "vertex", "edge"]))
    if kind == "free":
        return HalfSpace(a, big_rational(data) / 10 ** 9)
    if kind == "vertex":
        return HalfSpace(a, vdot(a, data.draw(st.sampled_from(poly.vertices))))
    u, w = data.draw(st.sampled_from(faces(poly, 1))).vertices
    t = Q(data.draw(st.integers(1, 10 ** 10 - 1)), 10 ** 10)
    return HalfSpace(a, vdot(a, tuple(p + t * (q - p) for p, q in zip(u, w))))


@pytest.mark.parametrize("n, steps", [(2, 8), (3, 6)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_clip_chains_with_large_denominators_match_fraction_clip(n, steps, data):
    widths = data.draw(st.tuples(*[st.integers(1, 3)] * n))
    poly = ConvexPolytope(standard_frame(n), product(*((-w, w) for w in widths)))
    for _ in range(steps):
        poly = checked_clip(poly, draw_big_cut(data, poly))
        assert all(type(c) is Q for v in poly.vertices for c in v)
