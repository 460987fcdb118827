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

fraction_cell_from_sites (with its bisectors, fraction_bisector_halfspace,
and its circumradii), fraction_orbit_in_ball and the localization loop
around them, fraction_cell_with_localization, are the cell code before it
ran on ints: bisectors, circumradii and orbit sites formed with Fraction
arithmetic.  They are kept verbatim (apart from their names and the
base-point checks) and compared for exact equality with the int code:
vertex tuples, facet tuples in order, tight sets, the squared
circumradius, the localization radius and the orbit sites, on every
preset at seeds 0-2 and on hypothesis-drawn points with denominators of
up to ten digits.
"""

import math
from itertools import product
from math import ceil, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystile.groups import (
    PRESET_NAMES,
    WALLPAPER_NAMES,
    OrbitPointSet,
    generic_point,
    lattice_points_in_ball,
    orbit_in_ball,
    preset,
    stabilizer,
)
from crystile.isometry import _inv_gram_diag, int_gram
from crystile.linalg import gram_norm2, integral_rows, mat_vec, vadd, vdot, vec, vsub
from crystile.polytope import (
    ConvexPolytope,
    HalfSpace,
    _tight_sets,
    clip,
    halfspace_intersection,
)
from crystile.rational import ONE, Q, ZERO, isqrt_ceil, rat
from crystile.voronoi import (
    UnboundedCellError,
    _cell_from_sites,
    _cell_with_localization,
    bisector_halfspace,
    delone_params,
)

from conftest import bare, facet_key_set, recovered_facets, with_halfspaces


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


# --- the cell code on Fractions ------------------------------------------------------

def fraction_bisector_halfspace(frame, x0, x):
    """Half-plane of points at least as close to x0 as to x (contains x0).

    Its covector is a = G(x0 - x) and its offset c = a.(x0 + x)/2, so
    2(a.y - c) = |y - x|_G^2 - |y - x0|_G^2; at y = x0 that is |x0 - x|_G^2."""
    a = mat_vec(frame.gram, vsub(x0, x))
    mid = tuple((p + q) / 2 for p, q in zip(x0, x))
    return HalfSpace(a, vdot(a, mid))


def fraction_cell_from_sites(frame, x0, sites, d2):
    """(cell, rho2) of x0 among sites, rho2 its squared circumradius about
    x0, or None when the cell reaches beyond the Gram ball of squared radius
    d2/4 about x0 (see the module docstring).

    Clips the box around that ball by the bisectors nearest first (ties in
    the order of sites) and stops at the first site s with |s - x0|^2 >=
    4 rho2, where no bisector can cut the running cell.  The sites are
    ordered by the integers D^2 (s - x0).(EG)(s - x0), D the common
    denominator of x0 and the sites and EG the integer Gram matrix of
    isometry.int_gram, and the stop compares them with the least integer
    at or above D^2 E 4 rho2.  Each vertex's |v - x0|^2 is computed once."""
    g = frame.gram
    n = frame.dim
    widths = [isqrt_ceil(d2 * gii / 4) + 1 for gii in _inv_gram_diag(frame)]
    box_facets = []
    for i, (c, w) in enumerate(zip(x0, widths)):
        e = tuple(ONE if j == i else ZERO for j in range(n))
        box_facets += [HalfSpace(e, c - w), HalfSpace(tuple(-x for x in e), -c - w)]
    corners = product(*((c - w, c + w) for c, w in zip(x0, widths)))
    cell = with_halfspaces(frame, tuple(corners), tuple(box_facets))
    e, eg = int_gram(frame)
    d = lcm(*(c.denominator for p in (x0, *sites) for c in p))
    dx0 = [c.numerator * (d // c.denominator) for c in x0]
    keys = []
    for s in sites:
        y = [c.numerator * (d // c.denominator) - c0 for c, c0 in zip(s, dx0)]
        keys.append(sum(yi * gij * yj for yi, row in zip(y, eg) for gij, yj in zip(row, y)))
    scale = 4 * d * d * e
    radii = {}

    def sq_circumradius(poly):
        for v in poly.vertices:
            if v not in radii:
                radii[v] = gram_norm2(g, vsub(v, x0))
        return max(radii[v] for v in poly.vertices)

    rho2 = sq_circumradius(cell)
    stop = ceil(scale * rho2)
    for key, s in sorted(zip(keys, sites), key=lambda ks: ks[0]):
        if key >= stop:
            break
        clipped = clip(cell, fraction_bisector_halfspace(frame, x0, s))
        if clipped is not cell:
            cell = clipped
            rho2 = sq_circumradius(cell)
            stop = ceil(scale * rho2)
    if not set(box_facets).isdisjoint(cell.facets()):
        return None
    return cell, rho2


def fraction_orbit_in_ball(group, x, center, r2):
    """Exactly the orbit points gamma(x) with squared distance <= r2 to center."""
    x = vec(x)
    center = vec(center)
    r2 = rat(r2)
    if r2 <= 0:
        raise ValueError("squared radius must be positive")
    sites = set()
    for m, v in group.reps:
        base = vadd(mat_vec(m, x), v)
        # k must satisfy ||base + k - center||^2 <= r2
        for k in lattice_points_in_ball(group.frame, vsub(center, base), r2):
            sites.add(vadd(base, k))
    return OrbitPointSet(
        frame=group.frame,
        sites=tuple(sorted(sites)),
        group=group,
        base_point=x,
        center=center,
        sq_radius=r2,
    )


def fraction_cell_with_localization(group, x, x0, sq_radius):
    x = vec(x)
    x0 = x if x0 is None else vec(x0)
    frame = group.frame
    n = frame.dim
    d2 = rat(sq_radius) if sq_radius is not None else 4 * max(frame.gram[i][i] for i in range(n))
    for _ in range(24):
        sites = [s for s in fraction_orbit_in_ball(group, x, x0, d2).sites if s != x0]
        found = fraction_cell_from_sites(frame, x0, sites, d2)
        if found is not None and 4 * found[1] <= d2:
            return found[0], d2, found[1]
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


# --- the int cell code against the Fraction cell code -----------------------------

def assert_same_cell(got, want):
    assert got.vertices == want.vertices
    assert got.facets() == want.facets()
    assert _tight_sets(got) == _tight_sets(want)
    assert all(type(c) is Q for v in got.vertices for c in v)


def assert_same_sites(group, x, center, r2):
    got = orbit_in_ball(group, x, center, r2)
    want = fraction_orbit_in_ball(group, x, center, r2)
    assert got.sites == want.sites
    assert all(type(c) is Q for s in got.sites for c in s)
    return got.sites


def check_against_fractions(g, x):
    cell, d2, rho2 = _cell_with_localization(g, x, x, None)
    old, old_d2, old_rho2 = fraction_cell_with_localization(g, x, x, None)
    assert_same_cell(cell, old)
    assert (d2, rho2) == (old_d2, old_rho2)
    assert type(rho2) is Q
    # the sites of the certifying round, and cells at smaller radii, where
    # the box survives (None) or the cell is not yet certified
    for r2 in (d2, d2 / 4, d2 / 16):
        sites = [s for s in assert_same_sites(g, x, x, r2) if s != x]
        d, (_, *rows) = integral_rows((x, *sites))
        found = _cell_from_sites(g.frame, x, d, rows, r2)
        want = fraction_cell_from_sites(g.frame, x, sites, r2)
        assert (found is None) == (want is None)
        if found is not None:
            assert_same_cell(found[0], want[0])
            assert found[1] == want[1]


@pytest.mark.parametrize("case, seed", [(c, s) for c in PRESET_NAMES for s in range(3)])
def test_int_cell_matches_fraction_cell(case, seed):
    g = preset(case)
    check_against_fractions(g, generic_point(g, seed))


def big_rationals(digits):
    return st.builds(Q, st.integers(-4 * 10 ** digits, 4 * 10 ** digits),
                     st.integers(1, 10 ** digits))


# the 3D draws skip Pm-3m, whose Fraction cell alone takes a second
DRAWN_GROUPS = {2: list(WALLPAPER_NAMES), 3: ["P1", "P222"]}


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_int_cell_matches_fraction_cell_at_drawn_points(dim, data):
    g = preset(data.draw(st.sampled_from(DRAWN_GROUPS[dim])))
    digits = data.draw(st.sampled_from([1, 3, 10]))
    x = data.draw(st.tuples(*[big_rationals(digits)] * dim))
    assume(len(stabilizer(g, x)) == 1)
    check_against_fractions(g, x)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_orbit_sites_match_fraction_sites(dim, data):
    names = [n for n in PRESET_NAMES if preset(n).dim == dim]
    g = preset(data.draw(st.sampled_from(names)))
    x = data.draw(st.tuples(*[big_rationals(10)] * dim))
    center = data.draw(st.tuples(*[big_rationals(data.draw(st.sampled_from([1, 10])))] * dim))
    r2 = data.draw(st.builds(Q, st.integers(1, 12), st.integers(1, 4)))
    assert_same_sites(g, x, center, r2)
