import fractions
import hashlib
import importlib
import importlib.util
import math
import random
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from crystile.rational import Q, rat_str
from crystile import linalg as linalg_mod
from crystile import tiling as tiling_mod
from crystile.linalg import vdot, vsub
from crystile.isometry import (
    Frame,
    Isometry,
    compose,
    identity_iso,
    inverse,
    linear_about,
    standard_frame,
    translation_iso,
)
from crystile.construction import construct_tiling
from crystile.groups import PRESET_NAMES, WALLPAPER_NAMES, generic_point, preset
from crystile.polytope import ConvexPolytope, _tight_sets, faces
from crystile.tiling import (
    LN_3_2,
    DistanceBound,
    TilingValidationError,
    WitnessError,
    automorphism_group,
    automorphism_group_with_embedding,
    canonical_tile,
    combine_witnesses,
    distance_upper_bound,
    is_crystallographic,
    ld_check,
    mld_check,
    patch,
    periodic_tiling,
    prototiles,
    reexpress_over_lattice,
    tilings_equal,
    transform_tiling,
    translation_mld_check,
    validate_tiling,
    verify_witness,
)
from crystile.voronoi import voronoi_cell, voronoi_tiling

from conftest import bare, pairwise_problems, random_rational_point, rational_givens, seed0_construction
from test_witness_oracle import pulled_back

ROT90 = ((0, -1), (1, 0))
D4 = {
    ((1, 0), (0, 1)), ((1, 0), (0, -1)), ((-1, 0), (0, 1)), ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)), ((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((0, -1), (-1, 0)),
}


def as_int_mats(mats):
    return {tuple(tuple(int(x) for x in row) for row in m) for m in mats}


F2, F3 = standard_frame(2), standard_frame(3)
C, E, A = Q(3, 7), Q(1, 11), Q(2, 7)

# Rejected cell-tile lists.  Coverage defects: a quarter-width strip leaves
# a gap (volume defect); strips of widths c and 1-c, the second shifted
# left by 1/11, overlap.
COVERAGE_DEFECTS = {
    "gap": [ConvexPolytope(F2, [(0, 0), (Q(1, 4), 0), (0, 1), (Q(1, 4), 1)])],
    "overlap": [
        ConvexPolytope(F2, [(0, 0), (C, 0), (0, 1), (C, 1)]),
        ConvexPolytope(F2, [(C - E, 0), (1 - E, 0), (C - E, 1), (1 - E, 1)]),
    ],
}
# Non-face meetings: unit squares shifted half a step per row meet
# edge-to-half-edge; a volume-1 brick whose top face is shifted by (2/7, 0)
# meets the brick above in a top face that is not its bottom face.
OFFSET_ROWS = {
    "rows-2d": [ConvexPolytope(F2, [(0, 0), (1, 0), (Q(1, 2), 1), (Q(3, 2), 1)])],
    "brick-3d": [
        ConvexPolytope(F3, [(x + A * z, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    ],
}
REJECTED = {**COVERAGE_DEFECTS, **OFFSET_ROWS}


# what validate_tiling reports for each: the unmatched facets, and the
# volume defect of the gap
REJECTION_PROBLEMS = {
    "gap": [
        "cell volumes sum to 1/4, expected 1",
        "facet [(0, 0), (0, 1)] of tile 0 has no matching facet",
        "facet [(1/4, 0), (1/4, 1)] of tile 0 has no matching facet",
    ],
    "overlap": [
        "facet [(0, 0), (0, 1)] of tile 0 has no matching facet",
        "facet [(3/7, 0), (3/7, 1)] of tile 0 has no matching facet",
        "facet [(26/77, 0), (26/77, 1)] of tile 1 has no matching facet",
        "facet [(10/11, 0), (10/11, 1)] of tile 1 has no matching facet",
    ],
    "rows-2d": [
        "facet [(0, 0), (1, 0)] of tile 0 has no matching facet",
        "facet [(1/2, 1), (3/2, 1)] of tile 0 has no matching facet",
    ],
    "brick-3d": [
        "facet [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)] of tile 0 has no matching facet",
        "facet [(2/7, 0, 1), (2/7, 1, 1), (9/7, 0, 1), (9/7, 1, 1)] of tile 0 has no matching facet",
    ],
}


def assert_rejected_with_pinned_problems(case):
    tiles = REJECTED[case]
    frame = tiles[0].frame
    with pytest.raises(TilingValidationError) as err:
        periodic_tiling(frame, tiles)
    assert err.value.problems == REJECTION_PROBLEMS[case]
    assert pairwise_problems(periodic_tiling(frame, tiles, validate=False))


@pytest.mark.parametrize("case", sorted(COVERAGE_DEFECTS))
def test_tiling_validation_rejects_gaps(case):
    assert_rejected_with_pinned_problems(case)


@pytest.mark.parametrize("case", sorted(OFFSET_ROWS))
def test_tiling_validation_rejects_offset_rows(case):
    assert_rejected_with_pinned_problems(case)


def test_validation_names_facets_held_wrongly():
    # a triangle on the left edge of the left half-cell holds that edge
    # from the same side; with the right half-cell, whose right edge is the
    # same mod the lattice, three facets hold it
    h = Q(1, 2)
    tri = ConvexPolytope(F2, [(0, 0), (0, 1), (h, h)])
    halves = [ConvexPolytope(F2, [(a, 0), (a + h, 0), (a, 1), (a + h, 1)]) for a in (0, h)]
    diagonals = [
        "facet [(0, 0), (1/2, 1/2)] of tile 1 has no matching facet",
        "facet [(0, 1), (1/2, 1/2)] of tile 1 has no matching facet",
    ]
    expected = {
        1: ["cell volumes sum to 3/4, expected 1",
            "facet [(0, 0), (0, 1)] is held by 2 facets, of tiles 0, 1; expected one from each side",
            "facet [(1/2, 0), (1/2, 1)] of tile 0 has no matching facet", *diagonals],
        2: ["cell volumes sum to 5/4, expected 1",
            "facet [(0, 0), (0, 1)] is held by 3 facets, of tiles 0, 1, 2; expected one from each side",
            *diagonals],
    }
    for k, problems in expected.items():
        tiling = periodic_tiling(F2, [tri, *halves[:k]], validate=False)
        assert validate_tiling(tiling) == problems
        assert pairwise_problems(tiling)


def oracle_tilings(case):
    if case in REJECTED:
        return [periodic_tiling(REJECTED[case][0].frame, REJECTED[case], validate=False)]
    g = preset(case)
    if case == "P1":
        return [construct_tiling(g, 0)]
    return [voronoi_tiling(g, generic_point(g, 0)), construct_tiling(g, 0)]


@pytest.mark.parametrize("case", list(WALLPAPER_NAMES) + ["P1"] + sorted(REJECTED))
def test_facet_matching_agrees_with_pairwise_scan(case):
    # differential oracle: facet matching accepts exactly when the
    # pairwise face classification finds no problem
    for t in oracle_tilings(case):
        assert (validate_tiling(t) == []) == (pairwise_problems(t) == [])


def test_patch_counts(square_tiling):
    r2 = Q(1, 100)
    assert len(patch(square_tiling, (Q(1, 2), Q(1, 2)), r2).tiles) == 1
    assert len(patch(square_tiling, (0, 0), r2).tiles) == 4
    assert len(patch(square_tiling, (Q(1, 2), 0), r2).tiles) == 2


def test_patch_bigger_radius(square_tiling):
    # r^2 = 3/10 reaches the 4 edge neighbors (1/4) but not the diagonals (1/2)
    p = patch(square_tiling, (Q(1, 2), Q(1, 2)), Q(3, 10))
    assert len(p.tiles) == 5
    p9 = patch(square_tiling, (Q(1, 2), Q(1, 2)), 1)
    assert len(p9.tiles) == 9


def half_boxes(frame):
    # the unit cell split into two boxes along the first axis, built afresh
    # so that no face cache is filled yet
    h, corners = Q(1, 2), list(product((0, 1), repeat=frame.dim))
    return [bare(frame, [(a + c[0] * h,) + c[1:] for c in corners]) for a in (0, h)]


@pytest.mark.parametrize("frame", [F2, F3], ids=["2d", "3d"])
def test_patch_derives_each_boundary_once(frame):
    # patch tests candidate translates against the cell tile itself, so each
    # cell tile derives its faces once, however many translates it tries
    tiling = periodic_tiling(frame, half_boxes(frame), validate=False)
    p = patch(tiling, (Q(1, 3),) * frame.dim, 1)
    assert len(p.tiles) > len(tiling.cell_tiles)
    t = tiling.cell_tiles[0]
    assert all(faces(t, m) is faces(t, m) for m in range(frame.dim))


def test_pulled_back_linalg_work_is_set_by_the_cell_tiles(square_tiling, count_calls):
    # each cell tile's image is formed once as ints, one affine map per
    # vertex and one for the pulled-back centre; a visited translate only
    # adds an int shift, so a ball of 16 times the area makes the same
    # tiling._affine calls and no linalg.mat_vec or linalg.vadd call,
    # wherever a module binds them
    tiling = transform_tiling(square_tiling, translation_iso(F2, (Q(1, 3), Q(-1, 5))))
    iso = Isometry(F2, rational_givens(2, 0, 1, Q(1, 2)), (Q(2, 7), Q(1, 3)))
    center = (Q(1, 4), Q(-2, 9))
    pulled_back(tiling, iso, center, 64)  # fills the cell tile's distance caches
    calls = count_calls(tiling_mod, "_affine")
    count_calls(linalg_mod, "mat_vec", calls)
    count_calls(linalg_mod, "vadd", calls)
    counts = []
    for r2 in (4, 64):
        calls.clear()
        visited = len(pulled_back(tiling, iso, center, r2))
        counts.append((visited, sorted(calls)))
    (small, small_calls), (large, large_calls) = counts
    vertices = sum(len(t._rows) for t in tiling.cell_tiles)
    assert large > 10 * small and large_calls == small_calls == ["_affine"] * (vertices + 1)


@pytest.mark.parametrize("name", ["p1", "p3", "cmm"])
def test_clipped_2d_cell_edges_follow_facets(name):
    # a clipped cell carries its facets in clip order, and its edges are
    # listed in that order, so facet matching zips each facet with its edge
    g = preset(name)
    cell = voronoi_cell(g, generic_point(g, 0))
    for h, e in zip(cell.facets(), faces(cell, 1)):
        assert all(vdot(h.covector, v) == h.offset for v in e.vertices)
    if name == "p1":
        assert validate_tiling(periodic_tiling(g.frame, [cell], validate=False)) == []


def test_patch_equivariance(square_tiling, frame2):
    rng = random.Random(6)
    for _ in range(10):
        m = random.Random(rng.random()).choice(sorted(D4))
        phi = Isometry(frame2, m, random_rational_point(rng, 2, span=4))
        x = random_rational_point(rng, 2, span=3)
        r2 = Q(rng.randint(1, 9), 4)
        direct = {t.vertices for t in patch(square_tiling, x, r2).tiles}
        mapped = {
            t.transform(phi).vertices for t in patch(square_tiling, x, r2).tiles
        }
        image_patch = {
            t.vertices
            for t in patch(transform_tiling(square_tiling, phi), phi(x), r2).tiles
        }
        assert mapped == image_patch
        assert len(direct) == len(image_patch)


def test_patch_forms_no_fraction_vertices(monkeypatch):
    # patch moves its tiles on their int rows and sorts them as int rows over
    # one denominator, so it reads no tile's Q vertices; sorting by them read
    # one per tile (76 here)
    tiling = seed0_construction("P1")
    reads = []
    real = ConvexPolytope.vertices
    monkeypatch.setattr(ConvexPolytope, "vertices",
                        property(lambda poly: reads.append(poly) or real.fget(poly)))
    found = patch(tiling, (Q(1, 3), Q(2, 7), Q(5, 11)), 1)
    assert len(found.tiles) == 76 and reads == []


def moved_tiles(tiling, group):
    """Lattice translates and group images of the cell tiles, mostly not in
    canonical position."""
    n = tiling.dim
    shifts = [(0,) * n, (1, -2, 3)[:n], (-3, 1, -1)[:n]]
    out = [t.translate(k) for t in tiling.cell_tiles for k in shifts]
    return out + [t.transform(Isometry(tiling.frame, m, v))
                  for t in tiling.cell_tiles[:4] for m, v in group.reps]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_canonical_tile_is_the_floor_shift_translate(name):
    # canonical_tile moves a tile by its int floor shift on the rows, which
    # is what translate by that shift gives, facets and tight sets included
    g = preset(name)
    for tiling in (seed0_construction(name), voronoi_tiling(g, generic_point(g, 0))):
        tiles = moved_tiles(tiling, g)
        assert any(canonical_tile(t) is not t for t in tiles)
        for t in tiles:
            shift = tuple(-(c // t._den) for c in t._rows[0])
            got, want = canonical_tile(t), t.translate(shift)
            assert got == want and got._facets == want._facets
            assert _tight_sets(got) == _tight_sets(want)


def test_transform_identity_and_lattice_shift(square_tiling, frame2):
    assert tilings_equal(transform_tiling(square_tiling, identity_iso(frame2)), square_tiling)
    shifted = transform_tiling(square_tiling, translation_iso(frame2, (1, 0)))
    assert tilings_equal(shifted, square_tiling)


def test_transform_rhomb_rotation(rhomb_tiling, frame2):
    rot = linear_about(frame2, ROT90, center=(0, 0))
    image = transform_tiling(rhomb_tiling, rot)
    assert not tilings_equal(image, rhomb_tiling)
    back = transform_tiling(image, inverse(rot))
    assert tilings_equal(back, rhomb_tiling)


def test_transform_non_lattice_rotation_reexpresses(square_tiling, frame2):
    # 3-4-5 rational rotation does not normalize Z^2; result is re-expressed
    rot = Isometry(frame2, ((Q(3, 5), Q(-4, 5)), (Q(4, 5), Q(3, 5))), (0, 0))
    image = transform_tiling(square_tiling, rot)
    assert tilings_equal(image, square_tiling)  # same tiling in rotated coordinates


def test_prototiles_square_and_p4m(square_tiling):
    assert len(prototiles(square_tiling)) == 1
    g = preset("p4m")
    t = voronoi_tiling(g, generic_point(g, 1))
    assert len(prototiles(t)) == 1


def test_automorphism_square_is_d4(square_tiling):
    aut = automorphism_group(square_tiling)
    assert aut.order() == 8
    assert as_int_mats(aut.point_parts()) == D4
    assert all(all(x == 0 for x in v) for _, v in aut.reps)


def test_automorphism_rhomb_is_d2(rhomb_tiling):
    aut = automorphism_group(rhomb_tiling)
    assert as_int_mats(aut.point_parts()) == {
        ((1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
    }


def test_automorphism_half_scale(half_scale_tiling):
    # over the (1/2 Z)^2 lattice the four squares are one tile, kept once
    dense, _ = reexpress_over_lattice(half_scale_tiling, ((Q(1, 2), 0), (0, Q(1, 2))))
    assert len(dense.cell_tiles) == 1 and validate_tiling(dense) == []
    aut, emb = automorphism_group_with_embedding(half_scale_tiling)
    assert aut.order() == 8
    assert aut.frame.gram == ((Q(1, 4), 0), (0, Q(1, 4)))
    assert emb.linear == ((Q(1, 2), 0), (0, Q(1, 2)))


def test_automorphism_group_forms_int_cells_once(count_calls):
    # the translation-lattice search reads the cells that the Aut search
    # formed, so one automorphism_group call forms them once
    tiling = seed0_construction("p6m")
    calls = count_calls(tiling_mod, "_int_cells")
    assert automorphism_group(tiling).order() == 12
    assert len(calls) == 1


def test_automorphisms_fix_tiling(square_tiling, rhomb_tiling):
    for tiling in (square_tiling, rhomb_tiling):
        aut, emb = automorphism_group_with_embedding(tiling)
        for m, v in aut.reps:
            phi = compose(emb, compose(Isometry(aut.frame, m, v), inverse(emb)))
            assert tilings_equal(transform_tiling(tiling, phi), tiling)


def test_non_members_move_tiling(square_tiling, frame2):
    # maximality spot-check: lattice-compatible point parts with perturbed
    # translations never fix the tiling
    rng = random.Random(17)
    for _ in range(20):
        m = random.Random(rng.random()).choice(sorted(D4))
        v = (Q(rng.randint(1, 9), 10), Q(rng.randint(1, 9), 10))
        phi = Isometry(frame2, m, v)
        moved = transform_tiling(square_tiling, phi)
        assert not tilings_equal(moved, square_tiling)


def test_non_members_move_preset_voronoi_tilings(frame2):
    from crystile.groups import lattice_isometries

    rng = random.Random(29)
    for name in ("p2", "p4m", "p6"):
        g = preset(name)
        tiling = voronoi_tiling(g, generic_point(g, 0))
        candidates = lattice_isometries(g.frame, g.frame)
        for _ in range(20):
            m = candidates[rng.randrange(len(candidates))]
            v = (Q(rng.randint(1, 13), 14), Q(rng.randint(1, 13), 14))
            phi = Isometry(g.frame, m, v)
            if any(phi.linear == mm and is_int_vec(vsub_(v, vv)) for mm, vv in g.reps):
                continue  # accidentally a member; perturb elsewhere
            assert not tilings_equal(transform_tiling(tiling, phi), tiling), name


def is_int_vec(u):
    return all(x.denominator == 1 for x in u)


def vsub_(a, b):
    return tuple(x - y for x, y in zip(a, b))


def test_is_crystallographic(square_tiling, rhomb_tiling):
    ok, group = is_crystallographic(square_tiling)
    assert ok and group.order() == 8
    ok, group = is_crystallographic(rhomb_tiling)
    assert ok and group.order() == 2


def test_ld_examples(square_tiling, rhomb_tiling, frame2):
    ident = identity_iso(frame2)
    res = ld_check(rhomb_tiling, square_tiling, ident)
    assert res.holds
    assert res.covering_sq == Q(1, 2)
    assert abs(res.radius - math.sqrt(0.5)) < 1e-12
    assert not ld_check(square_tiling, rhomb_tiling, ident).holds
    assert ld_check(square_tiling, square_tiling, ident).holds


def test_mld_examples(square_tiling, rhomb_tiling, half_scale_tiling, frame2):
    v = (Q(1, 10), 0)
    shifted = transform_tiling(square_tiling, translation_iso(frame2, v))
    gamma = mld_check(square_tiling, shifted)
    assert gamma is not None and gamma.is_translation()
    assert mld_check(square_tiling, rhomb_tiling) is None
    assert mld_check(square_tiling, half_scale_tiling) is None


def test_mld_roundtrip_property(square_tiling, frame2):
    v = (Q(1, 7), Q(2, 9))
    shifted = transform_tiling(square_tiling, translation_iso(frame2, v))
    gamma = mld_check(square_tiling, shifted)
    assert gamma is not None
    assert ld_check(square_tiling, shifted, gamma).holds
    assert ld_check(shifted, square_tiling, inverse(gamma)).holds


def test_translation_mld_examples(square_tiling, rhomb_tiling, half_scale_tiling):
    assert translation_mld_check(square_tiling, rhomb_tiling)
    assert not translation_mld_check(square_tiling, half_scale_tiling)
    assert translation_mld_check(square_tiling, square_tiling)


def test_distance_equal_tilings(square_tiling):
    b = distance_upper_bound((0, 0), square_tiling, square_tiling)
    assert b.upper == 0.0
    assert verify_witness(b)


def test_distance_refuses_an_origin_of_another_dimension(square_tiling, frame2):
    # equal tilings too: their shortcut returned upper 0.0 with a witness
    # that verify_witness rejects
    shifted = transform_tiling(square_tiling, translation_iso(frame2, (Q(1, 10), 0)))
    refusals = []
    for other in (square_tiling, shifted):
        with pytest.raises(ValueError) as exc:
            distance_upper_bound((0, 0, 0), square_tiling, other)
        refusals.append((exc.type, str(exc.value)))
    assert refusals[0] == refusals[1]


def test_distance_small_shifts(square_tiling, frame2):
    for denom in (10, 100, 1000):
        tau = (Q(1, denom), 0)
        shifted = transform_tiling(square_tiling, translation_iso(frame2, tau))
        b = distance_upper_bound((0, 0), square_tiling, shifted)
        assert b.upper <= math.log1p(1.0 / denom) + 1e-9
        assert verify_witness(b)


def test_distance_wraparound_shift(square_tiling, frame2):
    # a 9/10 shift is a -1/10 shift mod the lattice; the reduced anchor
    # candidate recovers the good bound
    tau = (Q(9, 10), 0)
    shifted = transform_tiling(square_tiling, translation_iso(frame2, tau))
    b = distance_upper_bound((0, 0), square_tiling, shifted)
    assert b.upper <= math.log1p(Q(1, 10)) + 1e-9
    assert verify_witness(b)


def test_distance_anchors_on_every_translate_of_tile_0(frame2):
    # shifting two half-width strips by -1/10 makes the other strip the
    # first canonical tile; anchoring only on tile 0 would find the 2/5
    # shift (upper 0.3365), the reduced -1/10 anchor matches globally
    h = Q(1, 2)
    strips = periodic_tiling(frame2, [
        ConvexPolytope(frame2, [(a, 0), (a + h, 0), (a, 1), (a + h, 1)]) for a in (0, h)
    ])
    shifted = transform_tiling(strips, translation_iso(frame2, (Q(-1, 10), 0)))
    b = distance_upper_bound((0, 0), strips, shifted)
    assert b.upper <= 0.0954
    assert verify_witness(b)


def test_distance_rejects_unsound_global_claims(square_tiling, frame2):
    from crystile.tiling import DistanceBound, RADIUS_CAP

    rot = Isometry(frame2, ((Q(3, 5), Q(-4, 5)), (Q(4, 5), Q(3, 5))), (0, 0))
    fake = DistanceBound(
        origin=(Q(0), Q(0)),
        upper=0.0,
        witness=(rot, identity_iso(frame2), RADIUS_CAP, True),
        tiling_a=square_tiling,
        tiling_b=square_tiling,
    )
    assert not verify_witness(fake)


@pytest.mark.parametrize("radius", [0, Q(-1, 2)])
def test_verify_witness_refuses_a_radius_that_is_not_positive(square_tiling, frame2, radius):
    one = identity_iso(frame2)
    for glob in (True, False):
        bound = DistanceBound((Q(0), Q(0)), 0.0, witness=(one, one, radius, glob),
                              tiling_a=square_tiling, tiling_b=square_tiling)
        assert verify_witness(bound) is False


@pytest.mark.parametrize("glob", [True, False], ids=["global", "patch"])
@pytest.mark.parametrize("radius", ["float", 0.5, "1/2"], ids=["float(r)", "0.5", "str"])
def test_verify_witness_refuses_a_radius_that_is_not_an_exact_rational(square_tiling, frame2,
                                                                         radius, glob):
    # the patch path raised TypeError on these radii and the global path
    # accepted them; both refuse a radius that is not an int or a Q
    shifted = transform_tiling(square_tiling, translation_iso(frame2, (Q(1, 10), Q(1, 7))))
    bound = distance_upper_bound((0, 0), square_tiling, shifted)
    phi, psi, r, _ = bound.witness
    assert verify_witness(bound) and type(r) is Q
    bad = float(r) if radius == "float" else radius
    assert verify_witness(replace(bound, witness=(phi, psi, bad, glob))) is False


@pytest.mark.parametrize("glob", [True, False], ids=["global", "patch"])
@pytest.mark.parametrize("case", ["hexagonal identities", "basis change", "3D origin"])
def test_verify_witness_refuses_isometries_and_origins_of_another_frame(square_tiling, frame2,
                                                                        hexframe, case, glob):
    # the global path reached _image_keys with the hexagonal identities and
    # raised IsometryError, and the patch path compared their keys as if they
    # acted on Z^2; iso_terms raised on the basis change and the 3D origin
    one = identity_iso(frame2)
    phi, psi, origin = one, one, (Q(0), Q(0))
    if case == "hexagonal identities":
        phi = psi = identity_iso(hexframe)
    elif case == "basis change":
        # x |-> U x from the coordinates of the basis U = ((1, 1), (0, 1)) of Z^2
        phi = Isometry(Frame(2, ((1, 1), (1, 2))), ((1, 1), (0, 1)), (0, 0), target=frame2)
    else:
        origin = (Q(0),) * 3
    bound = DistanceBound(origin, 0.0, witness=(phi, psi, Q(1, 2), glob),
                          tiling_a=square_tiling, tiling_b=square_tiling)
    assert verify_witness(bound) is False
    assert verify_witness(replace(bound, origin=(Q(0), Q(0)), witness=(one, one, Q(1, 2), glob)))


def test_distance_bound_takes_each_pairs_terms_once_and_inverts_nothing(square_tiling, frame2,
                                                                        count_calls):
    # d_O's terms are formed once per candidate pair (_int_terms for phi and
    # for psi) and shared by the size cap and the exact size test; the
    # isometry arithmetic runs on the int forms, so nothing calls mat_inv
    # (the per-frame caches are warm after the first bound)
    shifted = transform_tiling(square_tiling, translation_iso(frame2, (Q(1, 10), Q(1, 7))))
    voronoi = voronoi_tiling(preset("p2"), generic_point(preset("p2"), 0))
    moved = transform_tiling(voronoi, translation_iso(frame2, (Q(1, 29), Q(-1, 31))))
    inversions = count_calls(linalg_mod, "mat_inv")
    terms = count_calls(tiling_mod, "_int_terms")
    for a, b in ((square_tiling, shifted), (voronoi, moved)):
        distance_upper_bound((0, 0), a, b)
        inversions.clear()
        terms.clear()
        bound = distance_upper_bound((0, 0), a, b)
        pairs = len(tiling_mod.default_candidates(a, b, (0, 0)))
        assert pairs > 1 and len(terms) == 2 * pairs
        terms.clear()
        assert verify_witness(bound) and len(terms) == 2
        assert inversions == []


# sha256 of the witnesses of the benchmark's metric-2d jobs at seeds 0-2 (each
# chain bound, each combined witness, the p2 Voronoi bound), as recorded when
# compose, inverse and iso_terms still ran in Fraction
METRIC_WITNESS_DIGEST = "e05c3c81431cc3c612adf94524921afe0e8e9cdca91e5b0857e86d80222230b2"


def metric_jobs(seeds):
    """The benchmark's metric-2d job lists at the seeds (bench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
        names = ("isometry", "polytope", "groups", "voronoi", "tiling")
        cr = SimpleNamespace(**{m: importlib.import_module(f"crystile.{m}") for m in names})
        return [workloads.metric_2d(cr, seed, None) for seed in seeds]
    finally:
        del sys.modules[spec.name]


def test_metric_workload_witnesses_are_pinned():
    # each witness as (phi's int form, psi's int form, exact radius, global flag)
    rows = []
    for jobs in metric_jobs((0, 1, 2)):
        for job in jobs:
            out = job.run()
            job.check(out)
            bounds = [out[0]] if job.name == "bound voronoi" else [out[0][0], out[1]]
            rows += [(phi._ints, psi._ints, rat_str(r), glob)
                     for phi, psi, r, glob in (b.witness for b in bounds if b is not None)]
    assert len(rows) == 66
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == METRIC_WITNESS_DIGEST


def test_metric_workload_forms_few_fractions(monkeypatch):
    # one warm pass of the seed-0 metric-2d jobs (11 shift-chain bounds, 10
    # compositions, the p2 Voronoi bound), their output checks not counted:
    # the job list runs twice, as the benchmark repeats its passes, and the
    # second run is counted.  It formed 2,467 Fractions when the d_O terms,
    # size caps, pulled-back centres, patch distances and ball bounds were
    # Q; left are the size caps, the witness radii, one ball bound per cell
    # tile, default_candidates' half-shift anchors and the int origins that
    # distance_upper_bound reads as Q
    (jobs,) = metric_jobs((0,))
    for job in jobs:
        job.check(job.run())
    formed = []
    real = fractions.Fraction.__new__
    monkeypatch.setattr(fractions.Fraction, "__new__",
                        lambda cls, *a, **k: formed.append(cls) or real(cls, *a, **k))
    outs = [job.run() for job in jobs]
    monkeypatch.undo()
    for job, out in zip(jobs, outs):
        job.check(out)
    assert len(formed) == 188


def test_shift_bound_stops_at_the_centre_when_it_differs(square_tiling, frame2, count_calls):
    # the identity pair differs among the tiles that hold the origin (four
    # squares about a vertex against one square), so it reads only the ball
    # queries at r2 = 0; the half-shift pairs match globally.  Reading the
    # identity pair at the cap took 491 distance tests
    shifted = transform_tiling(square_tiling, translation_iso(frame2, (Q(1, 10), Q(1, 7))))
    queries = count_calls(tiling_mod, "_tiles_near")
    tests = count_calls(tiling_mod, "_sq_distance")
    b = distance_upper_bound((0, 0), square_tiling, shifted)
    assert b.witness[2:] == (Q(604462909807314587353088, 105405858945874438079495), True)
    assert b.upper == 0.16073980884897737
    assert (len(queries), len(tests)) == (2, 6)


def _skew_shift_bound(square_tiling, frame2):
    # the float size test once let this shift's half-shift pair through at
    # r = 8821189978308693 / 2^50 > 1/|tau|, the exact supremum of the radius
    shifted = transform_tiling(square_tiling, translation_iso(frame2, (Q(-5, 43), Q(1, 19))))
    return distance_upper_bound((Q(0), Q(0)), square_tiling, shifted)


def test_shift_witness_size_is_exact(square_tiling, frame2):
    b = _skew_shift_bound(square_tiling, frame2)
    phi, psi, r, _ = b.witness
    for iso in (phi, psi):
        assert 4 * r * r * frame2.norm2(vsub(iso(b.origin), b.origin)) <= 1
    assert verify_witness(b)


def test_over_claimed_shift_witness_is_refused(square_tiling, frame2):
    b = _skew_shift_bound(square_tiling, frame2)
    phi, psi, _, glob = b.witness
    over = DistanceBound(b.origin, b.upper, witness=(phi, psi, Q(8821189978308693, 2**50), glob),
                         tiling_a=b.tiling_a, tiling_b=b.tiling_b)
    assert not verify_witness(over)


def test_distance_cap_for_different_prototiles(square_tiling, rhomb_tiling):
    b = distance_upper_bound((Q(1, 2), Q(1, 2)), square_tiling, rhomb_tiling)
    assert b.upper == LN_3_2
    assert b.witness is None


def test_combine_witnesses_formula(square_tiling, frame2):
    u, v = (Q(1, 10), 0), (0, Q(1, 10))
    tu = transform_tiling(square_tiling, translation_iso(frame2, u))
    tuv = transform_tiling(tu, translation_iso(frame2, v))
    w1 = distance_upper_bound((0, 0), square_tiling, tu)
    w2 = distance_upper_bound((0, 0), tu, tuv)
    combined = combine_witnesses(w1, w2)
    r1, r2 = w1.witness[2], w2.witness[2]
    assert combined.witness[2] == r1 * r2 / (r1 + r2)
    assert verify_witness(combined)
    assert combined.upper <= w1.upper + w2.upper + 1e-12


def test_combine_with_trivial_second(square_tiling, frame2):
    u = (Q(1, 10), 0)
    tu = transform_tiling(square_tiling, translation_iso(frame2, u))
    w1 = distance_upper_bound((0, 0), square_tiling, tu)
    w2 = distance_upper_bound((0, 0), tu, tu)  # trivial, huge radius
    combined = combine_witnesses(w1, w2)
    r1 = w1.witness[2]
    assert combined.witness[2] == r1 * w2.witness[2] / (r1 + w2.witness[2])
    # r0 approaches r1 from below
    assert 0 < r1 - combined.witness[2] < Q(1, 100)
    assert verify_witness(combined)


def test_combine_requires_matching_chain(square_tiling, rhomb_tiling, frame2):
    u = (Q(1, 10), 0)
    tu = transform_tiling(square_tiling, translation_iso(frame2, u))
    w1 = distance_upper_bound((0, 0), square_tiling, tu)
    w_bad = distance_upper_bound((0, 0), rhomb_tiling, rhomb_tiling)
    with pytest.raises(WitnessError):
        combine_witnesses(w1, w_bad)


def test_random_translation_triangle_inequality(square_tiling, frame2):
    rng = random.Random(31)
    for _ in range(5):
        u = (Q(rng.randint(1, 5), 100), Q(rng.randint(1, 5), 100))
        v = (Q(rng.randint(1, 5), 100), Q(rng.randint(1, 5), 100))
        tu = transform_tiling(square_tiling, translation_iso(frame2, u))
        tuv = transform_tiling(tu, translation_iso(frame2, v))
        w1 = distance_upper_bound((0, 0), square_tiling, tu)
        w2 = distance_upper_bound((0, 0), tu, tuv)
        combined = combine_witnesses(w1, w2)
        assert combined.upper <= w1.upper + w2.upper + 1e-9
