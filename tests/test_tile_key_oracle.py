"""Differential oracle for the integer image keys.

`_canonical_key` and `_image_keys` below are the Fraction-keyed code that
the integer keys of `crystile.tiling` replace, kept verbatim, names
included.  The new image keys must decode to the old vertex tuples under
drawn isometries, and every rep of the Aut(T) the int code finds must map
each preset's seed-0 Voronoi tiling and construction, and every rejected
tiling of test_tiling with the translation (1/3, 1/5, 1/7), onto itself in
the Fraction keys as in the int keys.  The Fraction Aut, lattice, facet
matching and candidate code that stood here agreed with the references of
test_tile_once_oracle.py and test_construction_oracle.py on these inputs and
gave way to them; the tests keep their names.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from crystile import tiling as tiling_mod
from crystile.groups import PRESET_NAMES, generic_point, lattice_isometries, preset
from crystile.isometry import (
    Isometry,
    IsometryError,
    compose,
    hexagonal_frame,
    identity_iso,
    inverse,
    translation_iso,
)
from crystile.linalg import identity_mat, mat_mul, vadd
from crystile.rational import Q, ZERO
from crystile.tiling import PeriodicTiling, transform_tiling
from crystile.voronoi import voronoi_tiling

from conftest import rational_givens, seed0_construction
from test_construction_oracle import assert_same_candidates
from test_tiling import REJECTED
from test_witness_oracle import FIXTURES, SQUARE


# --- the Fraction-keyed code, verbatim -------------------------------------------

def _canonical_key(points):
    """The sorted points translated by the integer vector that puts the
    least of them in [0,1)^n: equal for point sets equal mod the lattice."""
    pts = sorted(points)
    shift = tuple(-math.floor(c) for c in pts[0])
    return tuple(vadd(p, shift) for p in pts) if any(shift) else tuple(pts)


def _image_keys(tiling: PeriodicTiling, iso: Isometry) -> frozenset:
    """The tile keys of transform_tiling(tiling, iso) for an iso that
    normalizes the lattice, without building the tiles."""
    if iso.frame != tiling.frame or iso.target != tiling.frame:
        raise IsometryError("isometry incompatible with the tiling frame")
    return frozenset(_canonical_key(map(iso, t.vertices)) for t in tiling.cell_tiles)


# --- comparisons ---------------------------------------------------------------

def int_image_keys(tiling, iso):
    """The int image keys of iso(T) (tiling._image_keys of tiling._int_image)."""
    return tiling_mod._image_keys(tiling_mod._int_image(tiling, iso))


def decode(key, n):
    """The vertex tuple of an integer key: (d, numerators) -> numerators / d."""
    d, *nums = key
    return tuple(tuple(Q(c, d) for c in nums[i:i + n]) for i in range(0, len(nums), n))


def assert_aut_fixes_the_keys(tiling):
    """Each rep of Aut(T), carried into the tiling's frame by the embedding,
    maps T onto itself: its image keys are T's, in Fractions and as decoded
    int keys."""
    group, embed = tiling_mod.automorphism_group_with_embedding(tiling)
    keys = _image_keys(tiling, identity_iso(tiling.frame))
    n = tiling.dim
    for m, v in group.reps:
        iso = compose(compose(embed, Isometry(group.frame, m, v)), inverse(embed))
        assert _image_keys(tiling, iso) == keys
        assert {decode(k, n) for k in int_image_keys(tiling, iso)} == keys


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_aut_and_facet_matching_match_the_fraction_keys(name):
    g = preset(name)
    for tiling in (voronoi_tiling(g, generic_point(g, 0)), seed0_construction(name)):
        assert tiling_mod.validate_tiling(tiling) == []
        assert_aut_fixes_the_keys(tiling)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_tilings_keep_their_verdict(case):
    tiles = REJECTED[case]
    tiling = tiling_mod.periodic_tiling(tiles[0].frame, tiles, validate=False)
    assert tiling_mod.validate_tiling(tiling)
    n = tiling.dim
    shift = translation_iso(tiling.frame, (Q(1, 3), Q(1, 5), Q(1, 7))[:n])
    assert_aut_fixes_the_keys(tiling)
    assert {decode(k, n) for k in int_image_keys(tiling, shift)} == _image_keys(tiling, shift)


def test_default_candidates_match_the_fraction_keys():
    # the pairs the Fraction-keyed candidates ran on, against old_default_candidates
    shifted = transform_tiling(SQUARE, translation_iso(SQUARE.frame, (Q(1, 37), Q(-2, 53))))
    p2 = voronoi_tiling(preset("p2"), generic_point(preset("p2"), 0))
    p2_shift = transform_tiling(p2, translation_iso(p2.frame, (Q(1, 29), Q(-1, 31))))
    pairs = [(FIXTURES["A"], FIXTURES["B"]), (FIXTURES["B"], FIXTURES["C"]),
             (SQUARE, shifted), (p2, p2_shift)]
    for t1, t2 in pairs:
        assert_same_candidates(t1, t2, (Q(1, 3), Q(-1, 5)))


# --- image keys under drawn isometries -----------------------------------------

def rationals(lo, hi, max_den=9):
    return st.builds(Q, st.integers(lo * max_den, hi * max_den), st.integers(1, max_den))


@st.composite
def isometries(draw, frame):
    """A rational isometry of the frame: for the standard frames a product
    of Givens rotations, maybe reflected, so that most do not normalize
    Z^n; for the hexagonal frame one of its lattice point parts."""
    n = frame.dim
    if frame == hexagonal_frame():
        linear = draw(st.sampled_from(lattice_isometries(frame, frame)))
    else:
        linear = identity_mat(n)
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.sampled_from([(0, 1)] if n == 2 else [(0, 1), (0, 2), (1, 2)]))
            linear = mat_mul(linear, rational_givens(n, i, j, draw(rationals(-3, 3))))
        if draw(st.booleans()):
            linear = mat_mul(linear, tuple(tuple(-1 if a == b == 0 else int(a == b)
                                                 for b in range(n)) for a in range(n)))
    return Isometry(frame, linear, tuple(draw(rationals(-2, 2)) for _ in range(n)))


IMAGE_KEY_TILINGS = {
    "quarters-B": lambda: FIXTURES["B"],
    "p6-construction": lambda: seed0_construction("p6"),
    "P222-construction": lambda: seed0_construction("P222"),
}


@pytest.mark.parametrize("name", IMAGE_KEY_TILINGS)
def test_image_keys_decode_to_the_fraction_keys(name):
    tiling = IMAGE_KEY_TILINGS[name]()
    n = tiling.dim

    @given(isometries(tiling.frame))
    @settings(max_examples=40 if n == 2 else 15, deadline=None)
    def check(iso):
        keys = int_image_keys(tiling, iso)
        # a key is reduced, so one vertex tuple has exactly one key
        assert all(k[0] > 0 and math.gcd(*k) == 1 for k in keys)
        assert {decode(k, n) for k in keys} == _image_keys(tiling, iso)

    check()


def test_image_keys_are_canonical_across_denominators():
    # iso(T) = (iso . tau^-1)(tau T) for an iso that normalizes Z^2: the
    # same images mod the lattice, formed over different common
    # denominators, must give equal keys
    rng = random.Random(5)
    tiling = FIXTURES["C"]
    for linear in lattice_isometries(tiling.frame, tiling.frame):
        iso = Isometry(tiling.frame, linear, (Q(1, 7), ZERO))
        tau = (Q(rng.randint(-9, 9), 13), Q(rng.randint(-9, 9), 11))
        moved = transform_tiling(tiling, translation_iso(tiling.frame, tau))
        back = compose(iso, translation_iso(tiling.frame, tuple(-x for x in tau)))
        assert int_image_keys(moved, back) == int_image_keys(tiling, iso)
