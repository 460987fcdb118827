"""Differential oracles for Voronoi cells built by clipping a box.

old_cell_from_sites and old_cell_with_localization are the cell code that
re-ran halfspace_intersection on the growing bisector list after every
useful bisector.  They are kept verbatim (apart from their names) and
compared for exact equality with the clipped cells: vertex tuples and the
localization radius that certified them, and the carried facets against
facets recovered from the vertices.

unpruned_cell_from_sites is the clipping code that clipped by every site,
before the loop stopped at the first site beyond twice the running
circumradius, and unpruned_cell_with_localization the localization loop
around it.  They are kept verbatim (apart from their names and the
base-point checks, which the cases below pass) and compared for exact
equality with the pruned cells: vertex tuples, facet tuples in order and
the localization radius.
"""

import math
from itertools import product

import pytest

from crystile.groups import (
    PRESET_NAMES,
    WALLPAPER_NAMES,
    _inv_gram_diag,
    generic_point,
    orbit_in_ball,
    preset,
)
from crystile.linalg import gram_norm2, mat_vec, vadd, vdot, vsub
from crystile.polytope import (
    ConvexPolytope,
    HalfSpace,
    clip,
    halfspace_intersection,
)
from crystile.rational import ONE, Q, ZERO, isqrt_ceil, rat
from crystile.voronoi import (
    UnboundedCellError,
    _cell_with_localization,
    bisector_halfspace,
    delone_params,
)

from conftest import bare, facet_key_set, recovered_facets


# --- the cell code that re-intersected all bisectors -------------------------------

def old_cell_from_sites(frame, x0, sites):
    n = frame.dim
    g = frame.gram
    ordered = sorted(sites, key=lambda s: gram_norm2(g, vsub(s, x0)))
    hs = []
    cell = None
    for s in ordered:
        h = bisector_halfspace(frame, x0, s)
        if cell is not None and all(vdot(h.covector, v) >= h.offset for v in cell.vertices):
            continue
        hs.append(h)
        res = halfspace_intersection(frame, hs)
        cell = res if isinstance(res, ConvexPolytope) and res.dim == n else None
    return cell


def old_cell_with_localization(group, x, x0, sq_radius):
    frame = group.frame
    n = frame.dim
    d2 = rat(sq_radius) if sq_radius is not None else 4 * max(frame.gram[i][i] for i in range(n))
    for _ in range(24):
        sites = [s for s in orbit_in_ball(group, x, x0, d2).sites if s != x0]
        if sites:
            cell = old_cell_from_sites(frame, x0, sites)
            if cell is not None:
                rho2 = max(gram_norm2(frame.gram, vsub(v, x0)) for v in cell.vertices)
                if 4 * rho2 <= d2:
                    return cell, d2
        if sq_radius is not None:
            raise UnboundedCellError(
                "cell not certified at the forced localization radius"
            )
        d2 *= 4
    raise UnboundedCellError("Voronoi cell did not stabilize (non-Delone input?)")


# --- the clipping code that clipped by every site ----------------------------------

def unpruned_cell_from_sites(frame, x0, sites, d2):
    """The cell of x0 among sites, or None when it reaches beyond the Gram
    ball of squared radius d2/4 about x0 (see the module docstring).

    Clips the box around that ball by the bisectors nearest first; a
    bisector that cannot cut the running cell leaves it unchanged."""
    g = frame.gram
    n = frame.dim
    widths = [isqrt_ceil(d2 * gii / 4) + 1 for gii in _inv_gram_diag(frame)]
    box_facets = []
    for i, (c, w) in enumerate(zip(x0, widths)):
        e = tuple(ONE if j == i else ZERO for j in range(n))
        box_facets += [HalfSpace(e, c - w), HalfSpace(tuple(-x for x in e), -c - w)]
    corners = product(*((c - w, c + w) for c, w in zip(x0, widths)))
    cell = bare(frame, corners, box_facets)
    for s in sorted(sites, key=lambda s: gram_norm2(g, vsub(s, x0))):
        cell = clip(cell, bisector_halfspace(frame, x0, s))
    if not set(box_facets).isdisjoint(cell.facets()):
        return None
    return cell


def unpruned_cell_with_localization(group, x, x0, sq_radius):
    frame = group.frame
    n = frame.dim
    d2 = rat(sq_radius) if sq_radius is not None else 4 * max(frame.gram[i][i] for i in range(n))
    for _ in range(24):
        sites = [s for s in orbit_in_ball(group, x, x0, d2).sites if s != x0]
        cell = unpruned_cell_from_sites(frame, x0, sites, d2)
        if cell is not None:
            rho2 = max(gram_norm2(frame.gram, vsub(v, x0)) for v in cell.vertices)
            if 4 * rho2 <= d2:
                return cell, d2
        if sq_radius is not None:
            raise UnboundedCellError(
                "cell not certified at the forced localization radius"
            )
        d2 *= 4
    raise UnboundedCellError("Voronoi cell did not stabilize (non-Delone input?)")


# --- cases ---------------------------------------------------------------------------

# every preset at three generic points, except Pm-3m at one: the
# re-intersecting code takes 2.5 s for its cell at seed 0 and 200 s at seed 2
CASES = [(c, s) for c in list(WALLPAPER_NAMES) + ["P1", "P222"] for s in range(3)]
CASES.append(("Pm-3m", 0))


@pytest.mark.parametrize("case, seed", CASES)
def test_clipped_cell_matches_reintersection(case, seed):
    g = preset(case)
    x = generic_point(g, seed)
    cell, d2, _ = _cell_with_localization(g, x, x, None)
    old, old_d2 = old_cell_with_localization(g, x, x, None)
    assert cell.vertices == old.vertices
    assert d2 == old_d2
    assert len(cell.facets()) == len(facet_key_set(cell.facets()))
    assert facet_key_set(cell.facets()) == facet_key_set(recovered_facets(g.frame, cell))


def test_pm3m_delone_minimum_matches_brute_force():
    g = preset("Pm-3m")
    x = generic_point(g, 0)
    cert = delone_params(g, x)
    # a nearest neighbour's bisector is a facet, so it lies within 2 rho <= r,
    # and with G = I so does each coordinate of its offset from x
    r = isqrt_ceil(4 * cert.covering_sq_radius)
    dists = []
    for m, v in g.reps:
        b = vadd(mat_vec(m, x), v)
        ranges = [range(math.ceil(xi - bi - r), math.floor(xi - bi + r) + 1)
                  for xi, bi in zip(x, b)]
        for k in product(*ranges):
            dists.append(gram_norm2(g.frame.gram, vsub(vadd(b, tuple(Q(c) for c in k)), x)))
    assert cert.min_sq_distance == min(d for d in dists if d > 0)


# the Delone points of the space-3d benchmark at seed 0 (P222)
DELONE_POINTS = [
    ("18/47", "29/43", "12/19"), ("5/19", "4/23", "5/7"), ("4/7", "21/23", "18/29"),
    ("2/13", "17/23", "2/41"), ("40/43", "17/23", "2/7"), ("1/19", "3/13", "6/7"),
    ("6/11", "4/19", "31/43"), ("13/43", "3/7", "20/31"), ("7/11", "2/43", "13/17"),
    ("2/7", "1/19", "30/41"),
]
PRUNING_CASES = (
    [pytest.param(c, generic_point(preset(c), s), id=f"{c}-seed{s}")
     for c in PRESET_NAMES for s in range(3)]
    + [pytest.param("P222", tuple(Q(c) for c in x), id=f"P222-delone{i}")
       for i, x in enumerate(DELONE_POINTS)]
)


@pytest.mark.parametrize("case, x", PRUNING_CASES)
def test_pruned_cell_matches_clipping_by_every_site(case, x):
    g = preset(case)
    cell, d2, _ = _cell_with_localization(g, x, x, None)
    old, old_d2 = unpruned_cell_with_localization(g, x, x, None)
    assert cell.vertices == old.vertices
    assert cell.facets() == old.facets()
    assert d2 == old_d2
