"""Differential oracle for Delone cells and patches without Q.

old_orbit_in_ball, old_cell_from_sites (with old_cell_with_localization and
old_delone_params around them) and old_patch are the code before orbit
sites became Q only when read, before the circumradius was re-read only
when a clip cuts off the farthest vertex, before the localization started
from the lattice-translate cell in one pass of at most two orbit queries,
and before patch tiles were moved and sorted on int rows.  They are kept
verbatim apart from their names: the old orbit forms every site's Q
tuple, the old cell clips a coordinate box in rounds of growing radius and
re-reads rho^2 after every clip that changes the cell, and the old patch
translates through the public translate and sorts by the Q vertex tuples.

These are the one reference of the Voronoi cell code: the earlier ones
gave way to them, and test_voronoi_oracle.py runs them on the further
inputs those ran on.  The new code must give the same certified cells
(rows, facets in order and tight sets), the same rho^2 and localization
radius (check_cell) and the same DeloneCertificate (check_certificate) on
every preset at seeds 0-2, on 100 hypothesis points, and for P1 and the
point-reflection group over preset Grams in unimodular bases and over
skewed Grams; forced to the old rounds' radii, it must raise
UnboundedCellError exactly where the old round did not certify and give
the same cell elsewhere (check_rounds); the same orbit results (equality,
hash and Q sites) between the lazy and the eager build; and the same
Patch, tile by tile with facets and tight sets, with the ball query
yielding what test_distance_oracle's old_tiles_near yields
(assert_same_patch), on every preset's seed-0 construction and Voronoi
tiling at three radii and two centres.
"""

from functools import lru_cache
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystile import voronoi
from crystile.groups import (PRESET_NAMES, OrbitPointSet, _ball, generic_point, orbit_in_ball,
                             preset, span_seitz, stabilizer)
from crystile.isometry import Frame, _inv_gram_diag, hexagonal_frame, int_gram, standard_frame
from crystile.linalg import int_dot, int_mat_vec, integral, integral_rows, mat_mul, transpose, vec
from crystile.polytope import ConvexPolytope, _clip, _reduced_facet, _slacks, _tight_sets
from crystile.rational import Q, rat
from crystile.tiling import Patch, patch
from crystile.voronoi import (DegenerateSiteError, DeloneCertificate, UnboundedCellError,
                              _bisector, _cell_with_localization,
                              _orbit_contains, delone_params, voronoi_tiling)

from conftest import isqrt_ceil, seed0_construction
from test_distance_oracle import old_tiles_near, q_tiles_near


# --- the code that formed Q sites, re-read rho^2 on every cut and sorted by Q ------

def old_orbit_in_ball(group, x, center, r2) -> OrbitPointSet:
    """Exactly the orbit points gamma(x) with squared distance <= r2 to center.

    Over the common denominator d of x, the centre and the reps'
    translations, the sites are the int vectors M X + d v + d k, X = d x,
    for each rep (M, v) and each k of the ball query about the centre
    minus M x + v.  They are deduplicated and sorted as int tuples, which
    is their order as rationals, and each becomes a Q tuple once; the int
    tuples stay on the result as its private _ints = (d, sites), which the
    Voronoi localization reads."""
    x, center = vec(x, group.dim), vec(center, group.dim)
    r2 = rat(r2)
    if r2 <= 0:
        raise ValueError("squared radius must be positive")
    d, (dx, dc, *ts) = integral_rows((x, center, *(v for _, v in group.reps)))
    sites = set()
    for (m, _), t in zip(group.reps, ts):
        base = [a + b for a, b in zip(int_mat_vec(m, dx), t)]
        for k in _ball(group.frame, d, [c - b for c, b in zip(dc, base)], r2):
            sites.add(tuple(b + d * ki for b, ki in zip(base, k)))
    sites = tuple(sorted(sites))
    return OrbitPointSet(
        frame=group.frame,
        sites=tuple(tuple(Q(c, d) for c in s) for s in sites),
        group=group,
        base_point=x,
        center=center,
        sq_radius=r2,
        _ints=(d, sites),
    )


def old_cell_from_sites(frame, x0, d, sites, d2):
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
    Any multiple of the least denominator gives the same keys' order, the
    same stops and the same reduced bisectors.  One Q, rho2, is formed at
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

    def sq_circumradius(poly):
        """(num, L): E L^2 rho2 = num, over L = lcm(V, D)."""
        vden, rows = poly._den, poly._rows
        el = lcm(vden, d)
        a, b = el // vden, el // d
        bx0 = [b * c for c in dx0]
        return max(int_dot(int_mat_vec(eg, y), y) for y in
                   ([a * p - c for p, c in zip(row, bx0)] for row in rows)), el

    num, el = sq_circumradius(cell)
    # ceil(4 D^2 E rho2) with E L^2 rho2 = num
    stop = -(-4 * d * d * num // (el * el))
    for key, y, gy in sorted(ordered, key=lambda kyg: kyg[0]):
        if key >= stop:
            break
        clipped = _clip(cell, _bisector(frame, d, dx0, y, gy))
        if clipped is not cell:
            cell = clipped
            num, el = sq_circumradius(cell)
            stop = -(-4 * d * d * num // (el * el))
    if not set(box_facets).isdisjoint(cell._facets):
        return None
    return cell, Q(num, e * el * el)


def old_cell_with_localization(group, x, x0, sq_radius):
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
        d, sites = old_orbit_in_ball(group, x, x0, d2)._ints
        dx0 = integral(x0, d)[1]
        found = old_cell_from_sites(frame, x0, d, [s for s in sites if s != dx0], d2)
        if found is not None and 4 * found[1] <= d2:
            return found[0], d2, found[1]
        if sq_radius is not None:
            raise UnboundedCellError(
                "cell not certified at the forced localization radius"
            )
        d2 *= 4
    raise UnboundedCellError("Voronoi cell did not stabilize (non-Delone input?)")


def old_delone_params(group, x) -> DeloneCertificate:
    """Exact Delone certificate of the periodic orbit of x.

    Both numbers are read off the certified Voronoi cell of x.
    min_sq_distance is the least 2(a.x - c) over its facets a.y >= c: each
    facet is the bisector of x and a site s, where that is |x - s|_G^2
    (bisector_halfspace), and the nearest site's bisector is always a
    facet, as its midpoint is strictly closer to x and s than to any other
    site.  covering_sq_radius is the circumradius^2 of the cell, which by
    orbit transitivity covers every cell; the localization computed it.
    """
    x = vec(x, group.dim)
    cell, used, cover_sq = old_cell_with_localization(group, x, None, None)
    # 2 (a.x - c) = 2 (A.X - e C) / (s e) at x = X / e for each facet (s, (A, C))
    e, xs = integral(x)
    min_sq = min(Q(2 * v, s * e) for (s, _), v in zip(cell._facets, _slacks(cell._facets, e, xs)))
    return DeloneCertificate(
        min_sq_distance=min_sq,
        covering_sq_radius=cover_sq,
        localization_sq_radius=used,
    )


def old_patch(tiling, center, r2) -> Patch:
    """Exactly the tiles whose squared distance to the center is <= r2."""
    center = vec(center, tiling.dim)
    r2 = rat(r2)
    if r2 <= 0:
        raise ValueError("squared radius must be positive")
    tiles = sorted((t.translate(k) for _, t, k in old_tiles_near(tiling, center, r2)),
                   key=lambda t: t.vertices)
    return Patch(tiles=tuple(tiles), center=center, sq_radius=r2)


# --- comparisons ---------------------------------------------------------------------

def assert_same_polytope(got, want):
    assert (got._den, got._rows) == (want._den, want._rows)
    assert got._facets == want._facets
    assert _tight_sets(got) == _tight_sets(want)


def assert_same_orbit(group, x, center, r2):
    """The lazy orbit equals the eager one; it forms its Q sites only when
    they are read, and then the same values, all of type Q."""
    got = orbit_in_ball(group, x, center, r2)
    want = old_orbit_in_ball(group, x, center, r2)
    assert got._sites is None
    assert got._ints == want._ints
    assert got == want and hash(got) == hash(want)
    assert got.sites == want.sites
    assert all(type(c) is Q for s in got.sites for c in s)
    assert (got.frame, got.group, got.base_point, got.center, got.sq_radius) == \
        (want.frame, want.group, want.base_point, want.center, want.sq_radius)
    return got


def check_cell(g, x):
    """The certified cell of x, its localization radius and rho^2 equal the
    old ones."""
    old, old_d2, old_rho2 = old_cell_with_localization(g, x, x, None)
    # first at the old radius, where a wrong rho2 fails at once instead of
    # sending the localization on to ever larger radii
    cell, _, rho2 = _cell_with_localization(g, x, x, old_d2)
    assert_same_polytope(cell, old)
    assert rho2 == old_rho2 and type(rho2) is Q
    assert _cell_with_localization(g, x, x, None)[1:] == (old_d2, old_rho2)


def check_certificate(g, x):
    assert delone_params(g, x) == old_delone_params(g, x)


def check_rounds(g, x):
    """The certifying round of the old localization and the rounds at
    smaller radii, where the box survives (None) or the cell is not yet
    certified, against the localization forced to each radius: the same
    orbit, UnboundedCellError exactly where the old round does not
    certify, and otherwise the same cell and rho^2."""
    d2 = old_cell_with_localization(g, x, x, None)[1]
    for r2 in (d2, d2 / 4, d2 / 16):
        d, sites = assert_same_orbit(g, x, x, r2)._ints
        dx0 = integral(x, d)[1]
        want = old_cell_from_sites(g.frame, x, d, [s for s in sites if s != dx0], r2)
        if want is None or 4 * want[1] > r2:
            with pytest.raises(UnboundedCellError):
                _cell_with_localization(g, x, x, r2)
        else:
            cell, used, rho2 = _cell_with_localization(g, x, x, r2)
            assert_same_polytope(cell, want[0])
            assert (used, rho2) == (r2, want[1])


@pytest.mark.parametrize("case, seed", [(c, s) for c in PRESET_NAMES for s in range(3)])
def test_cell_matches_old_cell(case, seed):
    # the rounds and the certificate on these inputs: test_int_cell_matches_fraction_cell
    # and test_pruned_cell_matches_clipping_by_every_site
    g = preset(case)
    check_cell(g, generic_point(g, seed))


def drawn_rationals(digits):
    return st.builds(Q, st.integers(-4 * 10 ** digits, 4 * 10 ** digits),
                     st.integers(1, 10 ** digits))


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cell_matches_old_cell_at_drawn_points(dim, data):
    # 50 points per dimension, 100 in all; the rounds at drawn points:
    # test_int_cell_matches_fraction_cell_at_drawn_points
    names = [n for n in PRESET_NAMES if preset(n).dim == dim]
    g = preset(data.draw(st.sampled_from(names)))
    digits = data.draw(st.sampled_from([1, 3, 10]))
    x = data.draw(st.tuples(*[drawn_rationals(digits)] * dim))
    assume(len(stabilizer(g, x)) == 1)
    check_cell(g, x)
    check_certificate(g, x)


def lattice_group(gram, reflect):
    """P1 over the Gram matrix, or with reflect the point-reflection group."""
    n = len(gram)
    minus = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
    return span_seitz(Frame(n, gram), [(minus, (0,) * n)] if reflect else [])


def unimodular(n, shears):
    """The product of the elementary matrices I + c E_ij (i != j) of shears."""
    u = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i, j, c in shears:
        if i != j:
            u = mat_mul(u, tuple(tuple(int(r == k) + c * (r == i and k == j) for k in range(n))
                                 for r in range(n)))
    return u


def skew_gram(n, a):
    return ((1, a), (a, 1)) if n == 2 else ((1, a, 0), (a, 1, 0), (0, 0, 1))


def drawn_site(data, g):
    x = data.draw(st.tuples(*[drawn_rationals(data.draw(st.sampled_from([1, 3])))] * g.dim))
    assume(len(stabilizer(g, x)) == 1)
    return x


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cell_matches_old_cell_over_unimodular_frames(dim, data):
    # the start cell is a parallelepiped of the frame's basis: the preset
    # Grams in bases U^T G U, U a product of up to three unit shears, so the
    # basis vectors are neither orthogonal nor shortest; cells, rho^2, the
    # localization radius, the certificate and the forced-radius rounds
    grams = [standard_frame(dim).gram] + ([hexagonal_frame().gram] if dim == 2 else [])
    gram = data.draw(st.sampled_from(grams))
    shears = data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                          st.sampled_from([-1, 1])), max_size=3))
    u = unimodular(dim, shears)
    g = lattice_group(mat_mul(transpose(u), mat_mul(gram, u)), data.draw(st.booleans()))
    x = drawn_site(data, g)
    check_cell(g, x)
    check_certificate(g, x)
    check_rounds(g, x)


@pytest.mark.parametrize("reflect", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("a", [Q(1, 2), Q(99, 100), Q(9999, 10000)])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_cell_matches_old_cell_over_skewed_frames(a, dim, reflect, data):
    # [[1, a], [a, 1]] and [[1, a, 0], [a, 1, 0], [0, 0, 1]]: toward a = 1
    # the start cell is a long thin parallelepiped, and e_1 - e_2 is short
    g = lattice_group(skew_gram(dim, a), reflect)
    x = drawn_site(data, g)
    check_cell(g, x)
    check_certificate(g, x)


def test_skewed_cell_fetches_fewer_sites(monkeypatch):
    # P1 over [[1, a, 0], [a, 1, 0], [0, 0, 1]], a = 9999/10000, at the
    # seed-0 generic point: 775 sites within 2 max g_ii, run out with
    # 4 rho^2 > 2, then 775 within 4 rho^2, where the box round at 4
    # fetched 2,069
    sites = []
    real = voronoi.orbit_in_ball

    def orbit(*args):
        out = real(*args)
        sites.append(len(out._ints[1]))
        return out

    g = lattice_group(skew_gram(3, Q(9999, 10000)), False)
    x = generic_point(g, 0)
    monkeypatch.setattr(voronoi, "orbit_in_ball", orbit)
    _cell_with_localization(g, x, x, None)
    assert sites == [775, 775]
    monkeypatch.undo()
    assert len(old_orbit_in_ball(g, x, x, old_cell_with_localization(g, x, x, None)[1])._ints[1]) == 2069


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lazy_orbit_matches_eager_orbit(dim, data):
    # base points with small denominators, special positions among them,
    # about any centre; ten-digit base points: test_orbit_sites_match_fraction_sites
    names = [n for n in PRESET_NAMES if preset(n).dim == dim]
    g = preset(data.draw(st.sampled_from(names)))
    x = data.draw(st.tuples(*[drawn_rationals(data.draw(st.sampled_from([0, 1])))] * dim))
    center = data.draw(st.tuples(*[drawn_rationals(data.draw(st.sampled_from([1, 10])))] * dim))
    r2 = data.draw(st.builds(Q, st.integers(1, 12), st.integers(1, 4)))
    assert_same_orbit(g, x, center, r2)


@lru_cache(maxsize=None)
def seed0_voronoi(name):
    g = preset(name)
    return voronoi_tiling(g, generic_point(g, 0))


CENTRES = {2: [(0, 0), (Q(2, 7), Q(-5, 11))], 3: [(0, 0, 0), (Q(2, 7), Q(-5, 11), Q(1, 3))]}


def assert_same_patch(tiling, center, r2):
    """The patch equals old_patch, tile by tile with facets and tight sets,
    and the ball query under both yields what old_tiles_near yields."""
    got, want = patch(tiling, center, r2), old_patch(tiling, center, r2)
    assert got == want
    for a, b in zip(got.tiles, want.tiles):
        assert_same_polytope(a, b)
    assert q_tiles_near(tiling, center, r2) == list(old_tiles_near(tiling, vec(center), r2))


@pytest.mark.parametrize("kind", ["construction", "voronoi"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_patch_matches_old_patch(name, kind):
    tiling = seed0_construction(name) if kind == "construction" else seed0_voronoi(name)
    for center in CENTRES[tiling.dim]:
        for r2 in (Q(1, 16), Q(1), Q(3, 2)):
            assert_same_patch(tiling, center, r2)
