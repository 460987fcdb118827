"""Delone diagnostics and exact Voronoi cells of crystallographic orbits.

A cell is cut from the finitely many orbit sites within a localization
radius; the radius is grown until the cell's circumradius certifies that
no farther site can cut it (any site beyond twice the circumradius has
its bisector outside the cell).  The certificate records the radius that
sufficed.

Within one round of squared radius d2 the cell starts as the coordinate
box x0 +- w_i, with w_i = isqrt_ceil(d2 (G^-1)_ii / 4) + 1, and is clipped
by the bisectors nearest first, one double-description step each
(polytope.clip), so it carries its facets, and each vertex the set of
facets through it, throughout.  The box holds the
Gram ball of squared radius d2/4 strictly inside.  If a box facet
survives the clipping, the cell of the sites reaches outside that ball, so
its circumradius rho has 4 rho^2 > d2 (or the cell is unbounded) and the
round fails certification anyway; otherwise the box was redundant and the
clipped box is exactly the cell of the sites.

The clipping stops at the first site s with |s - x0|^2 >= 4 rho^2, rho^2
the running cell's squared circumradius about x0.  It is re-read only when
a clip cuts off the vertex it was last read at: every vertex of a clipped
cell lies in the cell before, so while that vertex survives rho^2 is
exactly unchanged.  Then every vertex v has |v - x0| <= rho <= |s - x0|/2
<= |s - x0| - |v - x0| <= |v - s|, so v lies in the bisector halfspace of
s and the clip returns the cell unchanged; every later site is at least as
far, so the same holds for it.  The final rho^2 is the one certification
reads, and delone_params reports it as the covering radius.

The loop runs on Python ints (the integer layer of linalg).
groups.orbit_in_ball enumerates the sites as numerators over one common
denominator D, a multiple of that of x0, and each round reads those int
sites off the orbit (its private _ints), so no site goes through Q.
They are ordered by exact integer keys: D^2 E |s - x0|^2 = y.(EG)y for
y = D s - D x0, with EG the frame's integer Gram matrix over its
denominator E (isometry.int_gram), the form groups.lattice_points_in_ball
tests.  Each bisector is formed from y and (EG)y as an int facet pair
(polytope).  The box corners are int rows over the denominator of x0,
clip reads and emits the stored rows of each cell, and rho^2 is read off
them, with the row of a farthest vertex, after each cut that removes
that row.  Q values are formed only for rho^2, and for site coordinates
when a caller reads sites (groups.OrbitPointSet).  The stabilizer and
orbit-membership checks before the loop test M X + T - Y == 0 (mod d) on
int rows (groups.stabilizer, _orbit_contains).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .rational import Q, isqrt_ceil, rat
from .linalg import Vec, int_dot, int_mat_vec, integral, vec
from .isometry import Frame, _inv_gram_diag, int_gram
from .groups import CrystalGroup, _int_moves_onto, _over_group, orbit_in_ball, stabilizer
from .polytope import ConvexPolytope, _clip, _reduced_facet, _slacks


class DegenerateSiteError(ValueError):
    """Base point has a nontrivial stabilizer: orbit sites collide."""


class UnboundedCellError(ValueError):
    pass


@dataclass(frozen=True)
class DeloneCertificate:
    min_sq_distance: object       # uniform discreteness witness r^2-ish (exact)
    covering_sq_radius: object    # relative denseness witness R^2 (exact)
    localization_sq_radius: object  # site-gathering radius^2 that stabilized the cell

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

    Returns the cell polytope; pass sq_radius to force a specific
    localization radius (used by the localization-stability checks).
    """
    return _cell_with_localization(group, x, x0, sq_radius)[0]


def cell_with_certificate(group: CrystalGroup, x):
    """(cell, localization squared radius) of the site x in its orbit, as in
    voronoi_cell; every facet of the cell is a bisector (_bisector)."""
    return _cell_with_localization(group, x, None, None)[:2]


def _cell_from_sites(frame: Frame, x0: Vec, d, sites, d2):
    """(cell, rho2) of x0 among the sites s = S / d, given as int tuples S
    over a multiple d of x0's denominator, rho2 the cell's squared
    circumradius about x0, or None when the cell reaches beyond the Gram
    ball of squared radius d2/4 about x0 (see the module docstring).

    Clips the box around that ball by the bisectors nearest first (ties in
    the order of sites) and stops at the first site s with |s - x0|^2 >=
    4 rho2, where no bisector can cut the running cell.  The sites are
    ordered by the integers y.(EG)y for y = D (s - x0), D = d and EG the
    integer Gram matrix over E of isometry.int_gram, and each bisector is
    formed from y and (EG)y (_bisector).  rho2 is read off the cell's stored
    vertex rows P over V (polytope): over L = lcm(V, D),
    Y = (L / V) P - (L / D) D x0 gives E L^2 |v - x0|^2 = Y.(EG)Y, and the
    stop compares the keys with the least integer at or above 4 D^2 E rho2.
    rho2 is re-read (_farthest_vertex) only after a clip that cuts off the
    row P of the vertex it was read at, A.P < C V for the bisector
    (s, (A, C)): a clipped cell lies in the cell before, so while P
    survives it is still a farthest vertex.  Any multiple of the least
    denominator gives the same keys' order, the same stops and the same
    reduced bisectors.  One Q, rho2, is formed at
    the end."""
    n = frame.dim
    widths = [isqrt_ceil(d2 * gii / 4) + 1 for gii in _inv_gram_diag(frame)]
    f, xs = integral(x0)
    ends = [(c - f * w, c + f * w) for c, w in zip(xs, widths)]
    box_facets = []
    for i, (lo, hi) in enumerate(ends):
        e = [f if j == i else 0 for j in range(n)]
        box_facets += [_reduced_facet(f, (*e, lo)), _reduced_facet(f, (*(-a for a in e), -hi))]
    # the corner taking the low (b = 0) or high (b = 1) end on axis i lies on box facet 2i + b
    tight = tuple(frozenset(2 * i + b for i, b in enumerate(bits))
                  for bits in product((0, 1), repeat=n))
    cell = ConvexPolytope._from_rows(frame, f, tuple(product(*ends)), tuple(box_facets), tight)
    e, eg = int_gram(frame)
    dx0 = integral(x0, d)[1]
    ordered = []
    for s in sites:
        y = [c - c0 for c, c0 in zip(s, dx0)]
        gy = int_mat_vec(eg, y)
        ordered.append((int_dot(gy, y), y, gy))

    num, el, far = _farthest_vertex(cell, d, dx0, eg)
    # ceil(4 D^2 E rho2) with E L^2 rho2 = num
    stop = -(-4 * d * d * num // (el * el))
    for key, y, gy in sorted(ordered, key=lambda kyg: kyg[0]):
        if key >= stop:
            break
        facet = _bisector(frame, d, dx0, y, gy)
        clipped = _clip(cell, facet)
        if clipped is not cell:
            cell = clipped
            if int_dot(facet[1], far) < 0:
                num, el, far = _farthest_vertex(cell, d, dx0, eg)
                stop = -(-4 * d * d * num // (el * el))
    if not set(box_facets).isdisjoint(cell._facets):
        return None
    return cell, Q(num, e * el * el)


def _farthest_vertex(poly, d, dx0, eg):
    """(num, L, far): E L^2 rho2 = num for the squared circumradius rho2 of
    poly about x0 = dx0 / d, over L = lcm(V, d), and far = (P, -V) for the
    stored row P over poly's V of a vertex at that distance, so that a
    facet (s, (A, C)) has A.P - C V = far . (A, C) (see _cell_from_sites)."""
    vden, rows = poly._den, poly._rows
    el = lcm(vden, d)
    a, b = el // vden, el // d
    bx0 = [b * c for c in dx0]
    num, far = max((int_dot(int_mat_vec(eg, y), y), p) for p, y in
                   ((p, [a * c - c0 for c, c0 in zip(p, bx0)]) for p in rows))
    return num, el, (*far, -vden)


def _cell_with_localization(group: CrystalGroup, x, x0, sq_radius):
    """(cell, squared radius, squared circumradius about x0) of the site x0
    (x when None); the one check that x has a trivial stabilizer and x0 is
    a site of its orbit."""
    x = vec(x, group.dim)
    x0 = x if x0 is None else vec(x0, group.dim)
    if len(stabilizer(group, x)) != 1:
        raise DegenerateSiteError("base point has nontrivial stabilizer")
    if not _orbit_contains(group, x, x0):
        raise ValueError("x0 is not a site of the orbit")
    frame = group.frame
    n = frame.dim
    d2 = rat(sq_radius) if sq_radius is not None else 4 * max(frame.gram[i][i] for i in range(n))
    for _ in range(24):
        # the orbit's denominator is a multiple of that of its centre x0
        d, sites = orbit_in_ball(group, x, x0, d2)._ints
        dx0 = integral(x0, d)[1]
        found = _cell_from_sites(frame, x0, d, [s for s in sites if s != dx0], d2)
        if found is not None and 4 * found[1] <= d2:
            return found[0], d2, found[1]
        if sq_radius is not None:
            raise UnboundedCellError(
                "cell not certified at the forced localization radius"
            )
        d2 *= 4
    raise UnboundedCellError("Voronoi cell did not stabilize (non-Delone input?)")


def delone_params(group: CrystalGroup, x) -> DeloneCertificate:
    """Exact Delone certificate of the periodic orbit of x.

    Both numbers are read off the certified Voronoi cell of x.
    min_sq_distance is the least 2(a.x - c) over its facets a.y >= c: each
    facet is the bisector of x and a site s, where that is |x - s|_G^2
    (_bisector), and the nearest site's bisector is always a
    facet, as its midpoint is strictly closer to x and s than to any other
    site.  covering_sq_radius is the circumradius^2 of the cell, which by
    orbit transitivity covers every cell; the localization computed it.
    """
    x = vec(x, group.dim)
    cell, used, cover_sq = _cell_with_localization(group, x, None, None)
    # 2 (a.x - c) = 2 (A.X - e C) / (s e) at x = X / e for each facet (s, (A, C))
    e, xs = integral(x)
    min_sq = min(Q(2 * v, s * e) for (s, _), v in zip(cell._facets, _slacks(cell._facets, e, xs)))
    return DeloneCertificate(
        min_sq_distance=min_sq,
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
