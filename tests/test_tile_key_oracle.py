"""Differential oracle for the integer tile keys.

`_canonical_key`, `_translate_match`, `_fixes_tiling`,
`maximal_translation_lattice`, `automorphism_group_with_embedding`,
`_image_keys`, `_facet_matching_accepts` and `default_candidates` below are
the Fraction-keyed code that the integer keys of `crystile.tiling` replace,
kept verbatim, names included: they resolve each other here and the rest
of the package through the imports.  The one edit: `_fixes_tiling` read
its keys from `PeriodicTiling.tile_keys()`, which went with it, so the
method's body stands in its place.  The new code must return the same
groups, embeddings, lattices, verdicts and candidate pairs, and its image
keys must decode to the old vertex tuples.  Verdicts are also compared
with the pairwise scan of conftest.pairwise_problems where it runs in
seconds: not on P222 (minutes) nor on Pm-3m (past its offset cap).
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from crystile import tiling as tiling_mod
from crystile.groups import (
    CrystalGroup,
    PRESET_NAMES,
    _canon_seitz,
    generic_point,
    lattice_isometries,
    preset,
)
from crystile.isometry import (
    Isometry,
    IsometryError,
    compose,
    hexagonal_frame,
    identity_iso,
    rational_givens,
    translation_iso,
)
from crystile.linalg import (
    hermite_column_basis,
    identity_mat,
    is_integral_vec,
    mat_mul,
    mat_vec,
    transpose,
    vadd,
    vdot,
    vsub,
)
from crystile.polytope import faces, volume
from crystile.rational import Q, ZERO, frac_part
from crystile.tiling import PeriodicTiling, reexpress_over_lattice, transform_tiling
from crystile.voronoi import voronoi_tiling

from conftest import pairwise_problems, seed0_construction
from test_tiling import REJECTED
from test_witness_oracle import FIXTURES, SQUARE


# --- the Fraction-keyed code, verbatim -------------------------------------------

def _canonical_key(points):
    """The sorted points translated by the integer vector that puts the
    least of them in [0,1)^n: equal for point sets equal mod the lattice."""
    pts = sorted(points)
    shift = tuple(-math.floor(c) for c in pts[0])
    return tuple(vadd(p, shift) for p in pts) if any(shift) else tuple(pts)


def _facet_matching_accepts(tiling: PeriodicTiling) -> bool:
    """The fast criterion of validate_tiling: full-dimensional tiles, unit
    covolume, and each canonicalized facet bounding exactly two cell tiles
    from opposite sides."""
    n = tiling.frame.dim
    if any(t.dim != n for t in tiling.cell_tiles):
        return False
    if sum((volume(t) for t in tiling.cell_tiles), ZERO) != 1:
        return False
    covectors = {}
    for t in tiling.cell_tiles:
        for h, f in zip(t.facets(), faces(t, n - 1)):
            covectors.setdefault(_canonical_key(f.vertices), []).append(h.covector)
    # facets with one vertex set lie in one hyperplane, so their covectors
    # are parallel and point opposite ways iff their dot product is negative
    return all(len(cs) == 2 and vdot(*cs) < 0 for cs in covectors.values())


def _image_keys(tiling: PeriodicTiling, iso: Isometry) -> frozenset:
    """The tile keys of transform_tiling(tiling, iso) for an iso that
    normalizes the lattice, without building the tiles."""
    if iso.frame != tiling.frame or iso.target != tiling.frame:
        raise IsometryError("isometry incompatible with the tiling frame")
    return frozenset(_canonical_key(map(iso, t.vertices)) for t in tiling.cell_tiles)


def _translate_match(a, b):
    """The translation v with a + v == b for sorted vertex tuples, or None."""
    v = vsub(b[0], a[0])
    return v if tuple(vadd(p, v) for p in a) == b else None


def _fixes_tiling(tiling: PeriodicTiling, iso: Isometry) -> bool:
    keys = frozenset(t.vertices for t in tiling.cell_tiles)
    return all(_canonical_key(map(iso, t.vertices)) in keys for t in tiling.cell_tiles)


def maximal_translation_lattice(tiling: PeriodicTiling):
    """Basis (columns) of {v : T + v = T} as a superlattice of Z^n."""
    n = tiling.frame.dim
    t0 = tiling.cell_tiles[0]
    extra = []
    for t in tiling.cell_tiles:
        v = _translate_match(t0.vertices, t.vertices)
        if v is None or is_integral_vec(v):
            continue
        if _fixes_tiling(tiling, translation_iso(tiling.frame, v)):
            extra.append(v)
    if not extra:
        return identity_mat(n)
    den = math.lcm(*(x.denominator for v in extra for x in v))
    cols = [tuple(Q(den) if i == j else ZERO for i in range(n)) for j in range(n)]
    cols += [tuple(x * den for x in v) for v in extra]
    basis = hermite_column_basis([tuple(int(x) for x in c) for c in cols])
    return transpose(tuple(tuple(Q(x, den) for x in col) for col in basis))


def automorphism_group_with_embedding(tiling: PeriodicTiling):
    """Aut(T) over its maximal translation lattice, plus the coordinate map
    from the group's frame back into the tiling's frame.  The verified Seitz
    pairs (one translation class per point part, the lattice being maximal)
    form the group as they are: Aut(T) is closed, so validate_group's
    closure pass would only re-prove it."""
    basis = maximal_translation_lattice(tiling)
    if basis != identity_mat(tiling.frame.dim):
        dense, embed = reexpress_over_lattice(tiling, basis)
        group, inner = automorphism_group_with_embedding(dense)
        return group, compose(embed, inner)
    frame = tiling.frame
    t0 = tiling.cell_tiles[0]
    seitz = []
    for m in lattice_isometries(frame, frame):
        image = tuple(sorted(mat_vec(m, v) for v in t0.vertices))
        for t in tiling.cell_tiles:
            c = _translate_match(image, t.vertices)
            if c is not None and _fixes_tiling(tiling, Isometry(frame, m, c)):
                seitz.append(_canon_seitz(m, c))
                break
    return CrystalGroup(frame=frame, reps=tuple(sorted(seitz))), identity_iso(frame)


def default_candidates(t1: PeriodicTiling, t2: PeriodicTiling, origin) -> list:
    """Identity pair plus the half-shift pairs for each anchor translation.

    Anchors: from the first vertex of tile 0 of T to that of tile 0 of T',
    and to every tile of T' that is a translate of tile 0 of T (a shift may
    reorder the canonical tiles); each also reduced to [-1/2, 1/2)^n."""
    frame = t1.frame
    pairs = [(identity_iso(frame), identity_iso(frame))]
    t0 = t1.cell_tiles[0].vertices
    anchors = [vsub(t2.cell_tiles[0].vertices[0], t0[0])]
    anchors += [v for t in t2.cell_tiles if (v := _translate_match(t0, t.vertices)) is not None]
    taus = set()
    for v in anchors:
        taus.update((v, tuple(frac_part(x + Q(1, 2)) - Q(1, 2) for x in v)))
    for tau in taus:
        if all(x == 0 for x in tau):
            continue
        half = tuple(x / 2 for x in tau)
        pairs.append((translation_iso(frame, half), translation_iso(frame, tuple(-x for x in half))))
    return pairs


# --- comparisons ---------------------------------------------------------------

def decode(key, n):
    """The vertex tuple of an integer key: (d, numerators) -> numerators / d."""
    d, *nums = key
    return tuple(tuple(Q(c, d) for c in nums[i:i + n]) for i in range(0, len(nums), n))


def assert_same_aut(tiling):
    old_group, old_embed = automorphism_group_with_embedding(tiling)
    new_group, new_embed = tiling_mod.automorphism_group_with_embedding(tiling)
    assert new_group.frame == old_group.frame and new_group.reps == old_group.reps
    assert new_embed == old_embed
    assert tiling_mod.maximal_translation_lattice(tiling) == maximal_translation_lattice(tiling)


def assert_same_verdict(tiling, accepts, scan=True):
    assert (tiling_mod.validate_tiling(tiling) == []) is _facet_matching_accepts(tiling) is accepts
    if scan:
        assert (pairwise_problems(tiling) == []) is accepts


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_aut_and_facet_matching_match_the_fraction_keys(name):
    g = preset(name)
    for tiling in (voronoi_tiling(g, generic_point(g, 0)), seed0_construction(name)):
        assert_same_aut(tiling)
        assert_same_verdict(tiling, True, scan=name not in ("P222", "Pm-3m"))


def test_non_maximal_lattice_matches_the_fraction_keys():
    # four half-size squares per cell: the maximal lattice is (1/2) Z^2
    quarters = FIXTURES["A"]
    assert maximal_translation_lattice(quarters) != identity_mat(2)
    for tiling in FIXTURES.values():
        assert_same_aut(tiling)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_tilings_keep_their_verdict(case):
    tiling = tiling_mod.periodic_tiling(REJECTED[case][0].frame, REJECTED[case], validate=False)
    assert_same_verdict(tiling, False)


def test_default_candidates_match_the_fraction_keys():
    shifted = transform_tiling(SQUARE, translation_iso(SQUARE.frame, (Q(1, 37), Q(-2, 53))))
    p2 = voronoi_tiling(preset("p2"), generic_point(preset("p2"), 0))
    p2_shift = transform_tiling(p2, translation_iso(p2.frame, (Q(1, 29), Q(-1, 31))))
    pairs = [(FIXTURES["A"], FIXTURES["B"]), (FIXTURES["B"], FIXTURES["C"]),
             (SQUARE, shifted), (p2, p2_shift)]
    for t1, t2 in pairs:
        origin = (Q(1, 3), Q(-1, 5))
        assert tiling_mod.default_candidates(t1, t2, origin) == default_candidates(t1, t2, origin)


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
        keys = tiling_mod._image_keys(tiling, iso)
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
        assert tiling_mod._image_keys(moved, back) == tiling_mod._image_keys(tiling, iso)
