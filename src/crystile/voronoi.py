"""Delone diagnostics and exact Voronoi cells of crystallographic orbits.

The cell of a site x0 is cut from the orbit sites near it in one pass
that always certifies itself.  It starts as the parallelepiped cut by the
bisectors of x0 and its lattice translates x0 +- e_i (_start_cell), orbit
sites, so the start is bounded and its facets are real bisectors.  It is
clipped by the bisectors of the sites within squared radius
r1 = 2 max g_ii, nearest first, ties broken by the site, one
double-description step each (polytope.clip), so it carries its facets,
and each vertex the set of facets through it, throughout.

The clipping stops at the first site s with |s - x0|^2 >= 4 rho^2, rho^2
the running cell's squared circumradius about x0.  It is re-read only when
a clip cuts off the vertex it was last read at: every vertex of a clipped
cell lies in the cell before, so while that vertex survives rho^2 is
exactly unchanged.  Then every vertex v has |v - x0| <= rho <= |s - x0|/2
<= |s - x0| - |v - x0| <= |v - s|, so v lies in the bisector halfspace of
s and the clip returns the cell unchanged; every later site is at least as
far, so the same holds for it.  If the sites within r1 run out while
4 rho^2 > r1, one more orbit query at 4 rho^2 holds every site that can
still cut, as rho only shrinks; its sites past r1 are clipped the same
way.  A forced radius (sq_radius) makes the one query: the cell is
certified iff 4 rho^2 <= sq_radius, else UnboundedCellError is raised.
The facets end ordered by their sites, nearest first, ties broken by the
site.  The final rho^2 is the covering radius delone_params reports; the
localization radius reported is the least 4 max g_ii 4^k >= 4 rho^2, the
first of 4 max g_ii, 16 max g_ii, ... whose sites alone certify the cell.

The pass runs on Python ints (the integer layer of linalg).
groups.orbit_in_ball enumerates the sites as numerators over one common
denominator D, a multiple of that of x0, read off the orbit (its private
_ints), so no site goes through Q.  They are ordered by exact integer
keys D^2 E |s - x0|^2 = y.(EG)y for y = D s - D x0, EG the frame's
integer Gram matrix over E (isometry.int_gram), the form
groups.lattice_points_in_ball tests, and each radius is compared with
them as an int.  Each bisector is formed from y and (EG)y as an int facet
pair (polytope).  The start cell's rows come from G^-1 over its
denominator (isometry.int_inv_gram), clip reads and emits each cell's
rows, and rho^2 is read off them, with the row of a farthest vertex,
after each cut that removes that row.  Q values are formed only for
rho^2 and the query radii, and for site coordinates when a caller reads
sites (groups.OrbitPointSet).  The stabilizer and orbit-membership checks
are on int rows too (groups.stabilizer, _orbit_contains).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm
from operator import itemgetter

from .rational import Q, rat
from .linalg import Vec, _reduced, int_dot, int_mat_vec, integral, vec
from .isometry import Frame, int_gram, int_inv_gram
from .groups import CrystalGroup, _int_moves_onto, _over_group, orbit_in_ball, stabilizer
from .polytope import ConvexPolytope, _clip, _reduced_facet, _slacks, _tight_sets


class DegenerateSiteError(ValueError):
    """Base point has a nontrivial stabilizer: orbit sites collide."""


class UnboundedCellError(ValueError):
    pass


@dataclass(frozen=True)
class DeloneCertificate:
    min_sq_distance: object       # uniform discreteness witness r^2-ish (exact)
    covering_sq_radius: object    # relative denseness witness R^2 (exact)
    localization_sq_radius: object  # least 4 max g_ii 4^k whose sites certify the cell

    def __post_init__(self):
        if self.min_sq_distance <= 0:
            raise ValueError("uniform discreteness requires positive separation")


def _bisector(frame: Frame, d, dx0, y, gy):
    """Half-space of points at least as close to x0 = dx0 / d as to
    x = x0 + y / d (it contains x0), as a stored facet pair (polytope), for
    int vectors dx0, y and gy = (EG) y, EG the integer Gram matrix over E
    (isometry.int_gram).  Its covector is a = G(x0 - x) = -gy / (E d) and
    its offset c = a.(x0 + x)/2 = -gy.(2 dx0 + y) / (2 E d^2), all over
    2 E d^2, so 2(a.y - c) = |y - x|_G^2 - |y - x0|_G^2; at y = x0 that
    is |x0 - x|_G^2."""
    ed = int_gram(frame)[0] * d
    c = int_dot(gy, [2 * a + b for a, b in zip(dx0, y)])
    return _reduced_facet(2 * ed * d, (*(-2 * d * g for g in gy), -c))


def _orbit_contains(group: CrystalGroup, x: Vec, y: Vec) -> bool:
    """Whether y is a site of the orbit of x: M X + T - Y == 0 (mod d) for
    some int Seitz pair (M, T), over the common denominator d of x, y and
    the group, X = d x and Y = d y (groups._over_group, _int_moves_onto)."""
    d, (dx, dy), pairs = _over_group(group, (x, y))
    return any(_int_moves_onto(int_mat_vec(m, dx), t, dy, d) for m, t in pairs)


def voronoi_cell(group: CrystalGroup, x, x0=None, sq_radius=None):
    """Exact Voronoi cell of the orbit site x0 in the full orbit of x.

    Returns the cell polytope, its facets ordered by their sites, nearest
    first.  sq_radius forces the one orbit query to that squared radius;
    UnboundedCellError is raised unless it certifies the cell, that is
    unless it is at least four times the cell's squared circumradius.
    """
    return _cell_with_localization(group, x, x0, sq_radius)[0]


def cell_with_certificate(group: CrystalGroup, x):
    """(cell, localization squared radius) of the site x in its orbit, as in
    voronoi_cell; every facet of the cell is a bisector (_bisector)."""
    return _cell_with_localization(group, x, None, None)[:2]


def _start_cell(frame: Frame, d, dx0):
    """(cell, rank) of x0 = dx0 / d among itself and its lattice translates
    x0 +- e_i, always orbit sites: the parallelepiped |(G(v - x0))_i| <=
    g_ii / 2 with the vertices x0 + G^-1 diag(g) s / 2 for s in {+-1}^n,
    vertex s tight on the facets (i, s_i), each facet the _bisector of
    y = +-d e_i.  rank maps each facet to the (key, y) of its site."""
    n, (e, eg), (f, inv) = frame.dim, int_gram(frame), int_inv_gram(frame)
    # over 2 F E d: 2 F E dx0 + d R diag(EG) s, with G^-1 = R / F and G = EG / E
    dr = [[d * r * eg[j][j] for j, r in enumerate(row)] for row in inv]
    corners = sorted((tuple(2 * f * e * c + int_dot(row, s) for c, row in zip(dx0, dr)),
                      frozenset(2 * i + (si > 0) for i, si in enumerate(s)))
                     for s in product((-1, 1), repeat=n))
    rank = {}
    for i, sign in product(range(n), (-1, 1)):
        y = tuple(sign * d * (j == i) for j in range(n))
        gy = int_mat_vec(eg, y)
        rank[_bisector(frame, d, dx0, y, gy)] = (int_dot(gy, y), y)
    den, rows = _reduced(2 * f * e * d, [p for p, _ in corners])
    tight = tuple(t for _, t in corners)
    return ConvexPolytope._from_rows(frame, den, rows, tuple(rank), tight), rank


def _farthest_vertex(poly, d, dx0, eg):
    """(num, L, far): E L^2 rho2 = num for the squared circumradius rho2 of
    poly about x0 = dx0 / d, over L = lcm(V, d), and far = (P, -V) for the
    stored row P over poly's V of a vertex at that distance, so that a
    facet (s, (A, C)) has A.P - C V = far . (A, C)."""
    vden, rows = poly._den, poly._rows
    el = lcm(vden, d)
    a, b = el // vden, el // d
    bx0 = [b * c for c in dx0]
    num, far = max((int_dot(int_mat_vec(eg, y), y), p) for p, y in
                   ((p, [a * c - c0 for c, c0 in zip(p, bx0)]) for p in rows))
    return num, el, (*far, -vden)


def _cell_with_localization(group: CrystalGroup, x, x0, sq_radius):
    """(cell, localization squared radius, squared circumradius about x0) of
    the site x0 (x when None), as the module docstring describes; the one
    check that x has a trivial stabilizer and x0 is a site of its orbit."""
    x = vec(x, group.dim)
    x0 = x if x0 is None else vec(x0, group.dim)
    if len(stabilizer(group, x)) != 1:
        raise DegenerateSiteError("base point has nontrivial stabilizer")
    if not _orbit_contains(group, x, x0):
        raise ValueError("x0 is not a site of the orbit")
    frame = group.frame
    e, eg = int_gram(frame)
    top = 4 * max(eg[i][i] for i in range(frame.dim))
    r1 = Q(top, 2 * e) if sq_radius is None else rat(sq_radius)
    # the orbit's denominator is a multiple of that of its centre x0
    d, sites = orbit_in_ball(group, x, x0, r1)._ints
    dx0 = integral(x0, d)[1]
    cell, rank = _start_cell(frame, d, dx0)
    num, el, far = _farthest_vertex(cell, d, dx0, eg)
    # ceil(4 D^2 E rho2) with E L^2 rho2 = num
    stop = -(-4 * d * d * num // (el * el))
    # the key y.(EG)y = D^2 E |s - x0|^2 is past r1 iff key * r1.denominator > past
    for past in (0, d * d * e * r1.numerator):
        ordered = []
        for s in sites:
            y = tuple(c - c0 for c, c0 in zip(s, dx0))
            gy = int_mat_vec(eg, y)
            key = int_dot(gy, y)
            if key * r1.denominator > past:
                ordered.append((key, y, gy))
        ordered.sort(key=itemgetter(0))
        for key, y, gy in ordered:
            if key >= stop:
                break
            facet = _bisector(frame, d, dx0, y, gy)
            clipped = _clip(cell, facet)
            if clipped is not cell:
                cell, rank[facet] = clipped, (key, y)
                if int_dot(facet[1], far) < 0:
                    num, el, far = _farthest_vertex(cell, d, dx0, eg)
                    stop = -(-4 * d * d * num // (el * el))
        else:
            # the sites ran out: those within 4 rho2 > r1 may still cut
            if 4 * num * r1.denominator > r1.numerator * e * el * el and not past:
                if sq_radius is not None:
                    raise UnboundedCellError("cell not certified at the forced localization radius")
                sites = orbit_in_ball(group, x, x0, Q(4 * num, e * el * el))._ints[1]
                continue
        break
    facets = cell._facets
    order = sorted(range(len(facets)), key=lambda k: rank[facets[k]])
    index = {k: i for i, k in enumerate(order)}
    cell = ConvexPolytope._from_rows(frame, cell._den, cell._rows, tuple(facets[k] for k in order),
                                     tuple(frozenset(index[k] for k in t) for t in _tight_sets(cell)))
    # unless forced, the least 4 max g_ii 4^k >= 4 rho2
    while sq_radius is None and 4 * num > top * el * el:
        top *= 4
    return cell, r1 if sq_radius is not None else Q(top, e), Q(num, e * el * el)


def delone_params(group: CrystalGroup, x) -> DeloneCertificate:
    """Exact Delone certificate of the periodic orbit of x.

    Both numbers are read off the certified Voronoi cell of x.
    min_sq_distance is 2(a.x - c) on its first facet a.y >= c: each facet is
    the bisector of x and a site s, where that is |x - s|_G^2 (_bisector),
    the facets are ordered by their sites, nearest first, and the nearest
    site's bisector is always a facet, as its midpoint is strictly closer
    to x and s than to any other site.  covering_sq_radius is the
    circumradius^2 of the cell, which by orbit transitivity covers every
    cell; the localization computed it.  localization_sq_radius is the one
    the localization reports (see the module docstring).
    """
    x = vec(x, group.dim)
    cell, used, cover_sq = _cell_with_localization(group, x, None, None)
    # 2 (a.x - c) = 2 (A.X - e C) / (s e) at x = X / e for the facet (s, (A, C))
    e, xs = integral(x)
    nearest = cell._facets[:1]
    return DeloneCertificate(
        min_sq_distance=Q(2 * _slacks(nearest, e, xs)[0], nearest[0][0] * e),
        covering_sq_radius=cover_sq,
        localization_sq_radius=used,
    )


def voronoi_tiling(group: CrystalGroup, x):
    """Periodic Voronoi-cell tiling of the orbit of x (trivial stabilizer).

    Tiles per unit cell are the coset-representative images of the base
    cell (tiling._rep_images); equivariance gives V_{gamma(x)} = gamma(V_x).
    """
    from .tiling import Provenance, _rep_images, periodic_tiling

    x = vec(x, group.dim)
    cell, _ = cell_with_certificate(group, x)
    prov = Provenance(kind="voronoi", group=group, base_point=x, base_cell=cell)
    return periodic_tiling(group.frame, _rep_images(group, [cell]), provenance=prov, validate=True)
