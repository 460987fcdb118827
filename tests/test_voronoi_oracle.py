"""Voronoi cells against the reference cell code of test_delone_patch_oracle.py.

The cell code has had three earlier references: one that re-ran
halfspace_intersection on the growing bisector list, one that clipped by
every site, and one whose bisectors, circumradii and orbit sites were
Fraction arithmetic.  Each agreed exactly with the newest reference,
old_cell_with_localization and old_cell_from_sites, on the inputs below,
and gave way to it; the tests keep their names.  Here that reference runs
on the inputs the earlier ones ran on and the tests of
test_delone_patch_oracle.py do not: the old localization rounds against
the localization forced to their three radii (check_rounds) at every
preset's seeds 0-2 and at
drawn points with up to ten-digit denominators, the orbit at ten-digit base
points, the Delone certificate at every preset's seeds 0-2, and all of
these at the Delone points of the space-3d benchmark.  The carried facets of every certified cell are
compared with recovered_facets (conftest.py), and the Pm-3m Delone minimum
with a brute-force scan.
"""

import math
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystile.groups import PRESET_NAMES, WALLPAPER_NAMES, generic_point, preset, stabilizer
from crystile.linalg import gram_norm2, mat_vec, vadd, vsub
from crystile.rational import Q
from crystile.voronoi import _cell_with_localization, delone_params

from conftest import facet_key_set, isqrt_ceil, recovered_facets
from test_delone_patch_oracle import (assert_same_orbit, check_cell, check_certificate,
                                      check_rounds, drawn_rationals)

# every preset at three generic points, except Pm-3m at one
CASES = [(c, s) for c in list(WALLPAPER_NAMES) + ["P1", "P222"] for s in range(3)]
CASES.append(("Pm-3m", 0))


@pytest.mark.parametrize("case, seed", CASES)
def test_clipped_cell_matches_reintersection(case, seed):
    # each plane of the certified cell once, and exactly the recovered facets
    g = preset(case)
    x = generic_point(g, seed)
    cell = _cell_with_localization(g, x, x, None)[0]
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
DELONE_POINTS_Q = {tuple(Q(c) for c in x) for x in DELONE_POINTS}
PRUNING_CASES = (
    [pytest.param(c, generic_point(preset(c), s), id=f"{c}-seed{s}")
     for c in PRESET_NAMES for s in range(3)]
    + [pytest.param("P222", tuple(Q(c) for c in x), id=f"P222-delone{i}")
       for i, x in enumerate(DELONE_POINTS)]
)


@pytest.mark.parametrize("case, x", PRUNING_CASES)
def test_pruned_cell_matches_clipping_by_every_site(case, x):
    # the certificate at every preset's seeds 0-2 (their cells:
    # test_cell_matches_old_cell), and cell, rounds and certificate at the
    # Delone points
    g = preset(case)
    if x in DELONE_POINTS_Q:
        check_cell(g, x)
        check_rounds(g, x)
    check_certificate(g, x)


@pytest.mark.parametrize("case, seed", [(c, s) for c in PRESET_NAMES for s in range(3)])
def test_int_cell_matches_fraction_cell(case, seed):
    g = preset(case)
    check_rounds(g, generic_point(g, seed))


# the groups the Fraction cell code was drawn over: in 3D not Pm-3m
DRAWN_GROUPS = {2: list(WALLPAPER_NAMES), 3: ["P1", "P222"]}


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_int_cell_matches_fraction_cell_at_drawn_points(dim, data):
    g = preset(data.draw(st.sampled_from(DRAWN_GROUPS[dim])))
    digits = data.draw(st.sampled_from([1, 3, 10]))
    x = data.draw(st.tuples(*[drawn_rationals(digits)] * dim))
    assume(len(stabilizer(g, x)) == 1)
    check_rounds(g, x)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_orbit_sites_match_fraction_sites(dim, data):
    names = [n for n in PRESET_NAMES if preset(n).dim == dim]
    g = preset(data.draw(st.sampled_from(names)))
    x = data.draw(st.tuples(*[drawn_rationals(10)] * dim))
    center = data.draw(st.tuples(*[drawn_rationals(data.draw(st.sampled_from([1, 10])))] * dim))
    r2 = data.draw(st.builds(Q, st.integers(1, 12), st.integers(1, 4)))
    assert_same_orbit(g, x, center, r2)
