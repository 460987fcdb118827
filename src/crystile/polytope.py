"""Exact convex-polytope kernel for n <= 3 under a rational Gram inner product.

All set logic is exact rational: halfspace intersection, face enumeration,
volumes, congruence matching, and facet-to-facet classification use no
floating predicates anywhere.  Volumes are lattice-normalized (Euclidean
volume divided by sqrt(det G)), which keeps them rational.  Halfspaces are
stored by their coordinate covector a = G n, so containment is the plain
dot product a . x and never touches the Gram matrix.

A polytope stores its vertices once, as the reduced int rows (V, rows): V
the least common denominator of the coordinates and rows the int tuples
V v, sorted (for V > 0 int order is Q order) and canonical (_reduced), so
equality and hashing run on (frame, V, rows).  Its public vertices are Q
tuples built from the rows when first read.  A full-dimensional polytope
stores each facet a.x >= c once, as the int pair (s, (A..., C)) =
linalg.integral(a + (c,)), (A, C) = s (a, c) for the least s > 0; a
lower-dimensional one has _facets None.  HalfSpace is the public form,
checked where input arrives: facets() builds one per pair, and clip and
halfspace_intersection take them.  Facets made inside (images under
invertible maps, bisectors of distinct sites, hull facets) are not
checked again.  ConvexPolytope(frame, vertices) checks outside input and
hulls its rows once (_hull, off the polar that clip builds), and
halfspace_intersection scales the vertices it solves for to rows.  Internal
code builds from rows with ConvexPolytope._from_rows: clip and
halfspace_intersection keep the input facets that bound the result,
translate and transform map them, and the cones, the Voronoi box and the
bisectors come with their own.  The tight sets (the facets through each
vertex, _tight_sets) are the one source of faces, volumes and rings (see
_facet_edges), which name vertices by their index among the rows; the
hull, clip, translate and transform carry them.  The arithmetic is on ints
(linalg's integer layer): side values, tight sets, containment and volumes
are int dots and determinants of the facet pairs and the vertex rows, and
the hull, the rank tests and congruent eliminate on rows (int_rref).

Point distances read one more cache, the quadratic data of _quadratic_data,
held as Python ints over one common denominator D per polytope:
- D G;
- per vertex v: G v and v.Gv;
- per edge u -> w, with d = w - u: the index of u, G d, d.Gd and Gd.u;
- in space, per facet (or for a polygon itself): its plane basis e1, e2
  from ring[0], their covectors G e_i, the 2x2 Gram and its determinant,
  and one side test per ring edge.
sq_distance_point scales x once to an integer vector over its denominator
and runs every test in integers (_sq_distance, which the patch query calls
with its own int points), comparing rational candidates by
cross-multiplying.  _sq_distance returns the distance as an int pair, which
the patch query compares with its radius by cross-multiplying too;
sq_distance_point forms one Q from it per call.  A distance costs one
x.Gx, one dot per vertex and edge, and in space one 2x2 solve by Cramer's
rule per facet whose plane x lies beyond.  The patch query also reads each
tile's vertex centroid and the squared radius about it that holds the
tile (_centroid_ball), once per polytope from its rows, as are the volume,
which _moved carries within one frame, and congruent's _profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm
from operator import add, itemgetter, sub

from .rational import Q, ZERO, ONE, rat
from .linalg import (
    _reduced,
    int_dot,
    int_mat_mul,
    int_mat_vec,
    int_rref,
    integral,
    integral_rows,
    mat_det,
    mat_rank,
    nullspace,
    solve_linear,
    transpose,
    vdot,
    vec,
    vsub,
)
from .isometry import Frame, Isometry, int_gram, int_inv_gram, standard_frame


class PolytopeError(ValueError):
    pass


class InteriorOverlapError(PolytopeError):
    """Raised when a facet-to-facet classification meets overlapping interiors."""


@dataclass(frozen=True)
class HalfSpace:
    """The set {x : covector . x >= offset} in frame coordinates.

    The covector is G n for the Gram normal n, so this is {x : <n, x>_G >=
    offset}; storing G n keeps every containment test a plain dot product.
    """

    covector: tuple
    offset: object

    def __post_init__(self):
        object.__setattr__(self, "covector", vec(self.covector))
        object.__setattr__(self, "offset", rat(self.offset))
        if all(a == 0 for a in self.covector):
            raise PolytopeError("zero normal")


def _halfspace(facet) -> HalfSpace:
    """The HalfSpace a.x >= c of a stored facet (s, (A, C)) = s (a, c)."""
    s, ac = facet
    return HalfSpace(tuple(Q(x, s) for x in ac[:-1]), Q(ac[-1], s))


def _affine_rank(rows) -> int:
    """The affine rank of points given as int rows over one denominator."""
    return len(_independent_points(rows, len(rows[0]))) - 1 if rows else 0


class ConvexPolytope:
    """Dual V-rep/H-rep convex polytope with exact rational data: its sorted
    vertex rows (the canonical form tiles are compared by) and, when it is
    full-dimensional, its facets.  Tight sets, the ring (cyclic vertex
    order) of a polygon and the faces of each dimension are cached.
    """

    __slots__ = ("frame", "_den", "_rows", "_vertices", "_facets", "_dim", "_bbox", "_cycle",
                 "_faces", "_quad", "_reach", "_tight", "_hash", "_volume", "_profile")

    def __init__(self, frame: Frame, vertices):
        pts = sorted(set(vec(p) for p in vertices))
        if not pts:
            raise PolytopeError("empty vertex list")
        if any(len(p) != frame.dim for p in pts):
            raise PolytopeError("vertex dimension mismatch")
        if frame.dim > 3:
            # clip's edge test, and so the hull, is exact for n <= 3 only
            raise PolytopeError("vertex input is for dimension 1, 2 or 3")
        self._set(frame, *_hull(frame, *integral_rows(pts)))

    def _set(self, frame, den, rows, facets, tight=None, cycle=None, volume=None):
        self.frame = frame
        self._den = den
        self._rows = rows
        self._vertices = None
        self._facets = facets
        self._dim = None if facets is None else frame.dim
        self._bbox = None
        self._cycle = cycle
        self._faces = None
        self._quad = None
        self._reach = None
        self._tight = tight
        self._hash = None
        self._volume = volume
        self._profile = None

    @classmethod
    def _from_rows(cls, frame: Frame, den, rows: tuple, facets, tight=None, cycle=None, volume=None):
        """The polytope on distinct, sorted, reduced int rows over den, as is,
        with its facet pairs (None below full dimension), and its tight sets
        (_tight_sets), ring (_ring) and volume when they are known."""
        poly = cls.__new__(cls)
        poly._set(frame, den, rows, facets, tight, cycle, volume)
        return poly

    @property
    def vertices(self):
        """The vertices as sorted tuples of Q, built from the rows when first read."""
        if self._vertices is None:
            den = self._den
            self._vertices = tuple(tuple(Q(c, den) for c in p) for p in self._rows)
        return self._vertices

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, ConvexPolytope) and self.frame == other.frame
                and self._den == other._den and self._rows == other._rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.frame, self._den, self._rows))
        return self._hash

    def __repr__(self):
        vs = ", ".join("(" + ",".join(str(x) for x in p) + ")" for p in self.vertices)
        return f"ConvexPolytope[{vs}]"

    # -- basic geometry -------------------------------------------------------

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = _affine_rank(self._rows)
        return self._dim

    def bounding_box(self):
        if self._bbox is None:
            self._bbox = tuple((min(c), max(c)) for c in zip(*self.vertices))
        return self._bbox

    def cyclic_vertices(self):
        """Vertices of a 2-dimensional polytope in cyclic order (either way)."""
        vs = self.vertices
        return tuple(vs[i] for i in _ring(self))

    def facets(self):
        """Facet halfspaces; the polytope is their intersection."""
        return tuple(map(_halfspace, _facet_pairs(self)))

    def contains(self, x) -> bool:
        return all(s >= 0 for s in _slacks(_facet_pairs(self), *integral(vec(x, self.frame.dim))))

    def strictly_contains(self, x) -> bool:
        return all(s > 0 for s in _slacks(_facet_pairs(self), *integral(vec(x, self.frame.dim))))

    def translate(self, v) -> "ConvexPolytope":
        e, k = integral(vec(v, self.frame.dim))
        return _moved(self, self.frame, e, None, k)

    def transform(self, iso: Isometry) -> "ConvexPolytope":
        if iso.frame != self.frame:
            raise PolytopeError("isometry frame mismatch")
        m, a, b = iso._ints
        return _moved(self, iso.target, m, a, b)


def _ring(poly: ConvexPolytope):
    """The ring of a polygon (cyclic_vertices) as vertex indices, walked along
    its facets in the plane; in space faces() and planar vertex input come
    with theirs, and any other polygon is hulled once."""
    if poly._cycle is None:
        if poly.dim != 2:
            raise PolytopeError("cyclic order is for 2-dimensional polytopes")
        if poly._facets is None:
            *_, poly._cycle = _hull(poly.frame, poly._den, poly._rows)
        else:
            poly._cycle = _walk(e for _, edges in _facet_edges(poly) for e in edges)
    return poly._cycle


def _moved(poly: ConvexPolytope, frame: Frame, m, a, b) -> ConvexPolytope:
    """poly under x -> (A x + B) / m (A = None for m I, a translate) into frame:
    the rows P over V map to A P + V B over m V, sorted and reduced (over V
    as they are for an int translate), and a facet (s, (A_h, C_h)) maps with
    L^-T = N / d (_inverse_transpose) to (m N A_h, d m C_h + N A_h . B) /
    (d s m), reduced (_reduced).  Each vertex keeps its tight set, and an image
    in poly's frame (det L = +-1 there) keeps a volume read before."""
    vden, rows = poly._den, poly._rows
    vb = [vden * c for c in b]
    pts = [tuple(map(add, [m * c for c in p] if a is None else int_mat_vec(a, p), vb))
           for p in rows]
    tight = _tight_sets(poly)
    if a is not None:
        order = sorted(range(len(pts)), key=pts.__getitem__)
        pts = [pts[i] for i in order]
        tight = tight and tuple(tight[i] for i in order)
    den, pts = (vden, tuple(pts)) if a is None and m == 1 else _reduced(m * vden, pts)
    facets = None
    if poly._facets is not None:
        d, lt = (1, None) if a is None else _inverse_transpose(poly.frame, frame, m, a)
        facets = []
        for s, (*ah, ch) in poly._facets:
            na = ah if lt is None else int_mat_vec(lt, ah)
            facets.append(_reduced_facet(d * s * m, (*(m * x for x in na),
                                                     d * m * ch + int_dot(na, b))))
        facets = tuple(facets)
    return ConvexPolytope._from_rows(frame, den, pts, facets, tight,
                                     volume=poly._volume if frame == poly.frame else None)


def _reduced_facet(den, row):
    """The stored facet (see the module docstring) of the values row / den."""
    den, (row,) = _reduced(den, [row])
    return den, row


@lru_cache(maxsize=256)
def _inverse_transpose(source: Frame, target: Frame, m, a):
    """(d, N) with N / d = L^-T for the Gram-orthogonal L = A / m from source
    to target, once per linear part: L^T G_t L = G_s gives L^-T = G_t L G_s^-1,
    a product of int Grams (isometry.int_gram, int_inv_gram), no elimination."""
    (et, ht), (fs, js) = int_gram(target), int_inv_gram(source)
    return _reduced(et * m * fs, int_mat_mul(ht, int_mat_mul(a, js)))


def _hull(frame: Frame, den, rows):
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


def _independent_points(rows, rank):
    """Indices of rows[0] and of each later int row whose direction from it
    is independent of the directions before (a rank test by int_rref), until
    rank directions are found (fewer when the rows span less)."""
    dirs, out = [], [0]
    for i in range(1, len(rows)):
        if len(dirs) == rank:
            break
        d = tuple(map(sub, rows[i], rows[0]))
        if len(int_rref(dirs + [d], len(d))[0]) > len(dirs):
            dirs.append(d)
            out.append(i)
    return out


def faces(poly: ConvexPolytope, m: int):
    """All m-faces as (lower-dimensional) polytopes, 0 <= m < dim, computed
    once per polytope: each on its parent's rows at _face_indices, reduced."""
    n = poly.dim
    if not 0 <= m < n:
        raise PolytopeError(f"face dimension {m} out of range for a {n}-polytope")
    if poly._faces is None:
        poly._faces = {}
    out = poly._faces.get(m)
    if out is None:
        out = []
        for on, ring in _face_indices(poly, m):
            out.append(ConvexPolytope._from_rows(
                poly.frame, *_reduced(poly._den, [poly._rows[i] for i in on]), None,
                cycle=ring and tuple(on.index(i) for i in ring)))
        out = poly._faces[m] = tuple(out)
    return out


def _face_indices(poly: ConvexPolytope, m: int):
    """Per m-face of poly (0 <= m < dim), its sorted vertex indices and, for
    a facet in space, its ring as such indices (else None).  From the tight
    sets of a full-dimensional polytope (see _facet_edges): its facets follow
    facets(), each with its ring in space, walked from its edges, and the
    edges of a 3-polytope are the union of its facets' edges, sorted.  A
    polygon in space has the edges of its ring."""
    n = poly.dim
    if m == n - 1 and n == poly.frame.dim:
        return [(on, _walk(edges) if m == 2 else None) for on, edges in _facet_edges(poly)]
    if m == 0:
        return [((i,), None) for i in range(len(poly._rows))]
    if n == 2:
        return [(tuple(sorted(e)), None) for e in _ring_edges(_ring(poly))]
    return [(e, None) for e in sorted({e for _, edges in _facet_edges(poly) for e in edges})]


def _facet_vertices(poly: ConvexPolytope):
    """Per facet of a full-dimensional polytope, the sorted indices of its vertices."""
    tight = _tight_sets(poly)
    return [[i for i, t in enumerate(tight) if k in t] for k in range(len(poly._facets))]


def _facet_edges(poly: ConvexPolytope):
    """Per facet of a full-dimensional polytope, its vertex indices and its
    edges: the index pairs i < j whose tight sets share at least n - 1
    facets (the rule of clip; in the plane a facet is itself one edge)."""
    n, tight = poly.frame.dim, _tight_sets(poly)
    return [(on, [(i, j) for i, j in combinations(on, 2) if len(tight[i] & tight[j]) >= n - 1])
            for on in _facet_vertices(poly)]


def _walk(edges):
    """The ring through a polygon's edges (vertex pairs, two at each vertex),
    from the least vertex towards its lesser neighbour."""
    nbrs = {}
    for u, w in edges:
        nbrs.setdefault(u, []).append(w)
        nbrs.setdefault(w, []).append(u)
    ring = [min(nbrs)]
    ring.append(min(nbrs[ring[0]]))
    while len(ring) < len(nbrs):
        a, b = nbrs[ring[-1]]
        ring.append(b if a == ring[-2] else a)
    return tuple(ring)


def _edges(poly: ConvexPolytope):
    """The vertex index pairs of the 1-faces of poly, of a segment, or none."""
    if poly.dim >= 2:
        return [on for on, _ in _face_indices(poly, 1)]
    return [(0, 1)] if poly.dim == 1 else []


def _ring_edges(ring):
    return list(zip(ring, ring[1:] + ring[:1]))


def face_vertex_sets(poly: ConvexPolytope):
    """Frozensets of vertex tuples for every proper face (all dimensions)."""
    return {frozenset(f.vertices) for m in range(poly.dim) for f in faces(poly, m)}


def _fan(poly: ConvexPolytope):
    """The pulling triangulation (De Loera, Rambau & Santos, Triangulations,
    4.3) of a full-dimensional polytope, as tuples of vertex indices: an
    interval is its own simplex, else a cone from base = vertex 0 over each
    facet not through it, in the plane (base, u, w) on its edge {u, w}, in
    space (base, f, u, w) over each edge {u, w} not through its first vertex f."""
    if poly.frame.dim == 1:
        return [(0, 1)]
    out = []
    for on, edges in _facet_edges(poly):
        f = on[0]
        if f == 0:
            continue
        if poly.frame.dim == 2:
            out += [(0, i, j) for i, j in edges]
        else:
            out += [(0, f, i, j) for i, j in edges if i != f]
    return out


def volume(poly: ConvexPolytope):
    """Exact lattice-normalized volume (Euclidean volume / sqrt(det G)), once:
    sum |det| of the differences of the vertex rows P over V over _fan / n! V^n."""
    if poly._volume is None:
        n = poly.frame.dim
        if poly.dim != n:
            raise PolytopeError("volume requires a full-dimensional polytope")
        vden, rows = poly._den, poly._rows
        total = 0
        for s in _fan(poly):
            base = rows[s[0]]
            total += abs(mat_det(tuple(tuple(map(sub, rows[i], base)) for i in s[1:])))
        poly._volume = Q(total, factorial(n) * vden ** n)
    return poly._volume


# --- halfspace intersection --------------------------------------------------

def halfspace_intersection(frame: Frame, halfspaces):
    """Exact intersection of halfspaces: a polytope, "unbounded", or "empty".

    A full-dimensional result carries its facets, taken from the input
    (as int pairs, see the module docstring).
    """
    hs = list(halfspaces)
    n = frame.dim
    if not hs:
        return "unbounded"
    if mat_rank(tuple(h.covector for h in hs)) < n:
        return "unbounded" if _feasible(n, hs) else "empty"
    pts = _candidate_vertices(n, hs)
    if not pts:
        return "empty"
    if _has_recession_ray(n, hs):
        return "unbounded"
    den, rows = integral_rows(pts)
    facets = None
    if _affine_rank(rows) == n:
        facets = tuple(integral(h.covector + (h.offset,)) for h in _tight_halfspaces(n, pts, hs))
    return ConvexPolytope._from_rows(frame, den, rows, facets)


def _tight_halfspaces(n: int, pts, hs):
    """The halfspaces of hs that are facets of the full-dimensional polytope
    with vertices pts: those tight on n affinely independent vertices, each
    facet once (its vertices span its hyperplane), in input order."""
    found = {}
    for h in hs:
        on = tuple(p for p in pts if vdot(h.covector, p) == h.offset)
        if len(on) >= n and _affine_rank(integral_rows(on)[1]) == n - 1:
            found.setdefault(on, h)
    return tuple(found.values())


def clip(poly: ConvexPolytope, h: HalfSpace) -> ConvexPolytope:
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

    The tight sets (_tight_sets) are carried, not recomputed: a vertex
    strictly inside keeps its set, a vertex on h keeps the facets of its
    set that stay and gains h, and a crossing point on the edge u -> w lies
    on exactly the facets through both u and w (a supporting hyperplane
    through an interior point of an edge holds the edge), and on h.

    The arithmetic is on ints (_clip): with the vertex rows P over V and
    the stored facet (m, (A, C)) of h, the side value of v = P / V is
    s = A.P - C V = m V (a.v - c), of the same sign.  The crossing on u -> w
    is u + t (w - u) with t = s_u / (s_u - s_w), that is
    (s_u W - s_w U) / (V (s_u - s_w)).  The kept rows and the crossings are
    brought over V L, L the lcm of the s_u - s_w, sorted and reduced.
    """
    return _clip(poly, integral(h.covector + (h.offset,)))


def _clip(poly: ConvexPolytope, facet) -> ConvexPolytope:
    """clip by a stored facet."""
    n = poly.frame.dim
    facets = _facet_pairs(poly)
    vden, rows = poly._den, poly._rows
    *a, c = facet[1]
    vals = [int_dot(a, p) - c * vden for p in rows]
    if all(s >= 0 for s in vals):
        return poly
    inside = [i for i, s in enumerate(vals) if s > 0]
    if not inside:
        raise PolytopeError("halfspace leaves no interior")
    tight = _tight_sets(poly)
    held = sorted(frozenset().union(*(tight[i] for i in inside)))
    renumber = {k: i for i, k in enumerate(held)}
    on_h = len(held)
    outside = [(j, s) for j, s in enumerate(vals) if s < 0]
    crossings = []
    for i in inside:
        si, u = vals[i], rows[i]
        for j, s in outside:
            common = tight[i] & tight[j]
            if len(common) >= n - 1:
                crossings.append((si - s, [si * wk - s * uk for uk, wk in zip(u, rows[j])],
                                  frozenset([on_h, *(renumber[k] for k in common)])))
    el = lcm(*(d for d, _, _ in crossings))
    # a vertex inside keeps its facets, all held, and one on h gains h
    out = [([el * x for x in p], frozenset([*(renumber[k] for k in t if k in renumber),
                                            *([on_h] if s == 0 else [])]))
           for p, s, t in zip(rows, vals, tight) if s >= 0]
    out += [([el // d * x for x in p], t) for d, p, t in crossings]
    out.sort(key=itemgetter(0))
    kept = tuple(facets[k] for k in held) + (facet,)
    return ConvexPolytope._from_rows(poly.frame, *_reduced(vden * el, [tuple(p) for p, _ in out]),
                                     kept, tuple(t for _, t in out))


def _tight_sets(poly: ConvexPolytope):
    """Per vertex of a full-dimensional polytope, the frozenset of indices
    into facets() of the facets through it, and None for a lower-dimensional
    one; computed once, or carried by the hull, clip, translate and transform."""
    if poly._tight is None and poly._facets is not None:
        # a.v == c iff A.P == C V for v = P / V and (A, C) = s (a, c)
        vden = poly._den
        poly._tight = tuple(frozenset(k for k, s in enumerate(_slacks(poly._facets, vden, p))
                                      if s == 0) for p in poly._rows)
    return poly._tight


def _candidate_vertices(n: int, hs):
    """Sorted points of the intersection where n independent hyperplanes meet."""
    out = set()
    for system in combinations(hs, n):
        rows = tuple(h.covector for h in system)
        if mat_rank(rows) != n:
            continue
        x = solve_linear(rows, tuple(h.offset for h in system))
        if x is None:
            continue
        if all(vdot(h.covector, x) >= h.offset for h in hs):
            out.add(x)
    return sorted(out)


def _has_recession_ray(n: int, hs) -> bool:
    """Pointed-case check: any extreme recession direction lies on n-1
    independent active constraints of the cone {d : a_i . d >= 0}."""
    rows = [h.covector for h in hs]

    def admissible(d):
        return not all(x == 0 for x in d) and all(vdot(row, d) >= 0 for row in rows)

    if n == 1:
        return admissible((ONE,)) or admissible((-ONE,))
    for sub in combinations(rows, n - 1):
        ker = nullspace(sub)
        if len(ker) != 1:
            continue
        d = ker[0]
        if admissible(d) or admissible(tuple(-x for x in d)):
            return True
    return False


def _feasible(n: int, hs) -> bool:
    """Exact feasibility of an intersection of halfspaces (any rank)."""
    if not hs:
        return True
    covectors = [h.covector for h in hs]
    pts = [(ZERO,) * n] + covectors
    basis = [pts[i] for i in _independent_points(integral_rows(pts)[1], n)[1:]]
    if len(basis) == n:
        return bool(_candidate_vertices(n, hs))
    # x -> (a_i . b)_b over the basis b of the covectors' span keeps every
    # constraint value and reaches all of R^r; recurse there
    return _feasible(len(basis), [HalfSpace(tuple(vdot(a, b) for b in basis), h.offset)
                                  for a, h in zip(covectors, hs)])


# --- congruence ---------------------------------------------------------------

def congruent(p: ConvexPolytope, q: ConvexPolytope):
    """An exact isometry with phi(p) == q (as vertex sets), or None.

    Matches squared-distance signatures first, then solves for the affine
    map from an affinely independent anchor tuple and verifies exactly, on
    the rows over one denominator L: with A^-1 = N / d (int_rref) for the
    anchor differences A, differences B give x -> (L B N x + d b0 - B N a0)
    / (d L), kept if _moved(p, ...) == q."""
    if p.frame != q.frame:
        raise PolytopeError("congruence requires a common frame")
    if len(p._rows) != len(q._rows) or p.dim != q.dim:
        return None
    n = p.frame.dim
    if p.dim != n:
        raise PolytopeError("congruence implemented for full-dimensional polytopes")
    vp, vq = p._den ** 2, q._den ** 2  # the profiles are over V^2: cross-scale them
    if [_scale(vq, row) for row in _profile(p)] != [_scale(vp, row) for row in _profile(q)]:
        return None
    h, el = int_gram(p.frame)[1], lcm(p._den, q._den)
    ps, qs = ([_scale(el // t._den, row) for row in t._rows] for t in (p, q))

    def dist(a, b):
        y = tuple(map(sub, a, b))
        return int_dot(int_mat_vec(h, y), y)

    anchors = [ps[i] for i in _independent_points(ps, n)]
    a0 = anchors[0]
    aug = [(*(a[k] - a0[k] for a in anchors[1:]), *(int(i == k) for i in range(n))) for k in range(n)]
    d = int_rref(aug, n)[1]
    ainv = tuple(tuple(x if d > 0 else -x for x in row[n:]) for row in aug)
    m = abs(d) * el
    dists = [[dist(a, b) for b in anchors] for a in anchors]

    def tuple_candidates(i, chosen):
        if i == len(anchors):
            yield chosen
            return
        for b in qs:
            if all(dist(b, chosen[j]) == dists[i][j] for j in range(i)):
                yield from tuple_candidates(i + 1, chosen + [b])

    for image in tuple_candidates(0, []):
        b0 = image[0]
        lin = int_mat_mul(transpose([tuple(map(sub, b, b0)) for b in image[1:]]), ainv)
        a = tuple(_scale(el, row) for row in lin)
        b = tuple(map(sub, _scale(abs(d), b0), int_mat_vec(lin, a0)))
        # matching every squared distance of n + 1 independent anchors makes lin Gram-orthogonal
        if _moved(p, p.frame, m, a, b) == q:
            return Isometry._of_ints(p.frame, m, a, b, p.frame)
    return None


def _profile(poly: ConvexPolytope):
    """Per vertex row, the sorted y.Hy over the differences y to every row
    (G = H / g, isometry.int_gram), the lists sorted: over V^2, once."""
    if poly._profile is None:
        h, rows = int_gram(poly.frame)[1], poly._rows
        diffs = ([tuple(map(sub, a, b)) for b in rows] for a in rows)
        poly._profile = sorted(sorted(int_dot(int_mat_vec(h, y), y) for y in ys) for ys in diffs)
    return poly._profile


# --- metric helpers -----------------------------------------------------------

def sq_distance_point(poly: ConvexPolytope, x):
    """Exact squared Gram distance from a point to the polytope (see
    _sq_distance)."""
    return Q(*_sq_distance(poly, *integral(vec(x, poly.frame.dim))))


def _sq_distance(poly: ConvexPolytope, e, xs):
    """The squared distance from x = xs / e to the polytope, for an int
    vector xs and an int e > 0, as an int pair (num, den), den > 0, of
    value num / den: (0, 1) when the polytope holds x.

    Runs on the integer quadratic data of _quadratic_data (denominator D):
    every test below is an integer sign test, and a candidate num / den
    (den > 0) stands for the distance num / (den D e^2), so candidates
    compare by cross-multiplying.  No Q is formed."""
    d, dg, verts, edges, polygons = _quadratic_data(poly)
    slack = poly._facets and _slacks(poly._facets, e, xs)
    if slack and all(s >= 0 for s in slack):
        return 0, 1
    e2 = e * e
    xgx = int_dot(int_mat_vec(dg, xs), xs)
    # D e^2 |x - v|^2 = X.(D G)X - 2e (D Gv).X + e^2 D v.Gv
    dist = [xgx - 2 * e * int_dot(gv, xs) + e2 * vgv for gv, vgv in verts]
    num, den = min(dist), 1
    for iu, gd, dgd, gdu in edges:
        # t = D e <x - u, d>_G; the projection onto the line of the edge lies
        # inside it iff 0 < t < e D d.Gd, at D e^2 times the squared distance
        # dist[iu] - t^2 / (D d.Gd)
        t = int_dot(gd, xs) - e * gdu
        if 0 < t < e * dgd:
            cand = dist[iu] * dgd - t * t
            if cand * den < num * dgd:
                num, den = cand, dgd
    # x is nearest to a point inside a facet only from beyond that facet's
    # plane, so facets whose halfspace holds x are skipped
    for k, data in enumerate(polygons):
        if not slack or slack[k] < 0:
            cand = _polygon_proj_sq_distance(data, xs, e, dist)
            if cand is not None and cand[0] * den < num * cand[1]:
                num, den = cand
    return num, den * d * e2


def _facet_pairs(poly: ConvexPolytope):
    """The stored facets (s, (A, C)) of a full-dimensional polytope."""
    if poly._facets is None:
        raise PolytopeError("H-rep requires a full-dimensional polytope")
    return poly._facets


def _slacks(facets, e, xs):
    """Per stored facet (s, (A, C)), A.X - e C = s e (a.x - c) at x = xs / e:
    of the sign of a.x - c."""
    xe = (*xs, -e)
    return [int_dot(ac, xe) for _, ac in facets]


def _quadratic_data(poly: ConvexPolytope):
    """The integer data sq_distance_point reads, computed once per polytope.

    With G = H / g (isometry.int_gram, cached per frame) and the vertices
    v = P / V (the stored rows), every entry below is an integer: the distance
    data over D = g V^2, where D G = V^2 H, D Gv = V HP and D v.Gv = P.HP.
    The tuple holds
    - D and D G;
    - per vertex v: (D Gv, D v.Gv);
    - per edge u -> w, with d = w - u: (index of u, D Gd, D d.Gd, D Gd.u);
    - in space, per facet (aligned with facets()) or for a polygon itself:
      the plane data of _polygon_proj_sq_distance.
    """
    if poly._quad is None:
        n = poly.frame.dim
        gden, h = int_gram(poly.frame)
        vden, pts = poly._den, poly._rows
        verts = []
        for p in pts:
            hp = int_mat_vec(h, p)
            verts.append((_scale(vden, hp), int_dot(hp, p)))
        edges = []
        for iu, iw in _edges(poly):
            d = vsub(pts[iw], pts[iu])
            hd = int_mat_vec(h, d)
            edges.append((iu, _scale(vden, hd), int_dot(hd, d), int_dot(hd, pts[iu])))
        polygons = ()
        if n == 3 and poly.dim >= 2:
            rings = [_ring(poly)] if poly.dim == 2 else [r for _, r in _face_indices(poly, 2)]
            polygons = tuple(_polygon_data(ring, h, vden, pts) for ring in rings)
        dg = tuple(_scale(vden * vden, row) for row in h)
        poly._quad = (gden * vden * vden, dg, tuple(verts), tuple(edges), polygons)
    return poly._quad


def _centroid_ball(poly: ConvexPolytope):
    """(w, S, rho2), computed once per polytope from its rows: the vertex
    centroid q = S / w (S an int vector, w > 0 an int) and the exact rho2,
    the largest squared distance from q to a vertex.  With the m rows
    P_i = V v_i and G = H / g (isometry.int_gram), q = S / (V m) for
    S = sum P_i, and rho2 = max (m P_i - S).H(m P_i - S) / (g V^2 m^2)."""
    if poly._reach is None:
        gden, h = int_gram(poly.frame)
        pts, m = poly._rows, len(poly._rows)
        s = tuple(map(sum, zip(*pts)))
        far = max(int_dot(int_mat_vec(h, u), u)
                  for u in ([m * c - sc for c, sc in zip(p, s)] for p in pts))
        w = poly._den * m
        poly._reach = (w, s, Q(far, gden * w * w))
    return poly._reach


def _scale(k, u):
    return tuple(k * c for c in u)


def _polygon_data(ring, h, vden, pts):
    """Plane data of the polygon in space with the ring of vertex indices
    ring, over D (see _quadratic_data):
    the index of o = ring[0], the covectors D a_i = D G e_i of its basis
    e1, e2 = ring[1] - o, ring[2] - o with D a_i.o, the 2x2 Gram
    M = D (e_i.G e_j) of that basis as m11, m12, m22 and its determinant, and
    per ring edge a -> b the side test of a projection (see
    _polygon_proj_sq_distance).  In the integer vertex coordinates P = V p
    (V = vden), E_i = V e_i: D a_i = V H E_i, D a_i.o = HE_i.P_o and
    M = E_i.H E_j."""
    o = pts[ring[0]]
    e1, e2 = vsub(pts[ring[1]], o), vsub(pts[ring[2]], o)
    h1, h2 = int_mat_vec(h, e1), int_mat_vec(h, e2)
    m11, m12, m22 = int_dot(h1, e1), int_dot(h1, e2), int_dot(h2, e2)
    det = m11 * m22 - m12 * m12
    normal = _cross(e1, e2)
    sides = []
    for a, b in _ring_edges(ring):
        c = _cross(normal, vsub(pts[b], pts[a]))
        sides.append((int_dot(c, e1), int_dot(c, e2), det * int_dot(c, vsub(o, pts[a]))))
    return (ring[0], _scale(vden, h1), _scale(vden, h2), int_dot(h1, o), int_dot(h2, o),
            m11, m12, m22, det, tuple(sides))


def _polygon_proj_sq_distance(data, xs, e, dist):
    """The candidate (num, den) of the squared distance from x = xs / e to its
    Gram projection onto the plane of a polygon in space (see
    sq_distance_point), or None when the projection falls outside it; data
    is its _polygon_data and dist the vertex candidates.

    The projection is o + s e1 + t e2 with m (s, t) = (b1, b2) for the 2x2
    Gram m and b_i = a_i.(x - o); by Cramer s det m = m22 b1 - m12 b2 and
    t det m = m11 b2 - m12 b1.  Its squared distance to x is |x - o|^2 -
    (s b1 + t b2).  Here B_i = D e b_i and M = D m, so S = M22 B1 - M12 B2 =
    D^2 e s det m, likewise T, and D e^2 times that distance is dist[io] -
    (S B1 + T B2) / det M.  The ring is convex, so the projection lies in
    the polygon iff it is on the inner side of every ring edge a -> b: the
    coordinate cross product of b - a and proj - a has a nonnegative
    component along the ring normal n, that is c.(proj - a) >= 0 for
    c = n x (b - a), or, times D^2 e det m > 0 (and the positive scale of
    the integer c), e det M c.(o - a) + S c.e1 + T c.e2 >= 0."""
    io, a1, a2, a1o, a2o, m11, m12, m22, det, sides = data
    b1, b2 = int_dot(a1, xs) - e * a1o, int_dot(a2, xs) - e * a2o
    s, t = m22 * b1 - m12 * b2, m11 * b2 - m12 * b1
    for ce1, ce2, co in sides:
        if e * co + s * ce1 + t * ce2 < 0:
            return None
    return dist[io] * det - (s * b1 + t * b2), det


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


# --- facet-to-facet classification --------------------------------------------

@dataclass(frozen=True)
class MeetResult:
    kind: str          # "disjoint" | "shared-face" | "violation"
    face_dim: int = -1
    witness: tuple = ()


def meet_face_to_face(p: ConvexPolytope, q: ConvexPolytope) -> MeetResult:
    """Classify how two tiles meet.

    Returns shared-face(m) when p n q is a face of BOTH, a violation
    witness otherwise; overlapping interiors raise InteriorOverlapError.
    """
    if p.frame != q.frame:
        raise PolytopeError("frame mismatch")
    # cheap reject via coordinate bounding boxes
    for (lo1, hi1), (lo2, hi2) in zip(p.bounding_box(), q.bounding_box()):
        if hi1 < lo2 or hi2 < lo1:
            return MeetResult("disjoint")
    n = p.frame.dim
    inter = _candidate_vertices(n, list(p.facets()) + list(q.facets()))
    if not inter:
        return MeetResult("disjoint")
    rank = _affine_rank(integral_rows(inter)[1])
    if rank == n:
        raise InteriorOverlapError(f"interiors overlap; intersection spans dimension {n}")
    vset = frozenset(inter)
    if vset in face_vertex_sets(p) and vset in face_vertex_sets(q):
        return MeetResult("shared-face", face_dim=rank, witness=tuple(inter))
    return MeetResult("violation", face_dim=rank, witness=tuple(inter))
