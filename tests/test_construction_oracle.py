"""Differential oracle for the construction pipeline on ints.

old_stabilizer, old_orbit_contains, old_certificate_for, old_generic_apex
and old_default_candidates (with the translate scan _translate_match) are
the code before the orbit tests, the genericity certificate and the witness
candidates ran on int forms, verbatim apart from their names
(_translate_match keeps its own).  The old orbit tests and certificate run
on Fraction mat_vec and gram_norm2.

The new code must give the same stabilizers (Seitz pairs, with Fraction
entries) and orbit verdicts on hypothesis points, special positions among
them; the same certificate, or the same refusal, on hypothesis apexes in the
seed-0 cells; and the same candidate isometries, field for field.  Aut of
every preset's seed 0-2 construction must be the preset, and Aut of the
half-scale tiling, which takes the re-expression path, must match
test_tile_once_oracle.py's reference, where the other Aut references are.
"""

import random
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from crystile import linalg as linalg_mod
from crystile import tiling as tiling_mod
from crystile.rational import Q, frac_part
from crystile.linalg import gram_norm2, identity_mat, mat_vec, vadd, vec, vsub
from crystile.isometry import identity_iso, translation_iso
from crystile.groups import PRESET_NAMES, WALLPAPER_NAMES, generic_point, preset, stabilizer
from crystile.polytope import _edges
from crystile.tiling import (_int_cells, _int_vertices, _translation_lattice,
                             automorphism_group_with_embedding, default_candidates, transform_tiling)
from crystile.voronoi import _orbit_contains, cell_with_certificate, voronoi_tiling
from crystile.construction import (ConstructionError, GenericityCertificate, certificate_for,
                                   construct_tiling, generic_apex)

from conftest import is_integral_vec, seed0_construction


def _translate_match(a, b):
    """The int translation v with a + v == b for sorted int vertex tuples,
    or None."""
    v = tuple(map(sub, b[0], a[0]))
    return v if tuple(tuple(map(add, p, v)) for p in a) == b else None


def old_stabilizer(group, x) -> list:
    """All group elements fixing x exactly, as full Seitz pairs (M, v + k)."""
    x = vec(x, group.dim)
    out = []
    for m, v in group.reps:
        k = vsub(x, vadd(mat_vec(m, x), v))
        if is_integral_vec(k):
            out.append((m, vadd(v, k)))
    return out


def old_orbit_contains(group, x, y) -> bool:
    for m, v in group.reps:
        if is_integral_vec(vsub(y, vadd(mat_vec(m, x), v))):
            return True
    return False


def old_certificate_for(cell, apex):
    apex = vec(apex)
    g = cell.frame.gram
    vd = tuple(gram_norm2(g, vsub(apex, v)) for v in cell.vertices)
    el = tuple(gram_norm2(g, vsub(cell.vertices[j], cell.vertices[i])) for i, j in _edges(cell))
    return GenericityCertificate(
        apex=apex, cell=cell, vertex_sq_distances=vd, edge_sq_lengths=tuple(sorted(el))
    )


def old_generic_apex(cell, seed: int):
    """Deterministic interior apex with an exact genericity certificate.

    Sampled as strictly positive rational convex combinations of the
    vertices; the excluded locus is a finite union of spheres and
    hyperplanes, so resampling terminates.
    """
    if cell.dim != cell.frame.dim:
        raise ValueError("cell must be full-dimensional")
    rng = random.Random(seed)
    k = len(cell.vertices)
    for attempt in range(256):
        weights = [Q(rng.randrange(1, 64 + attempt)) for _ in range(k)]
        total = sum(weights)
        apex = tuple(sum(map(mul, weights, col)) / total for col in zip(*cell.vertices))
        try:
            return old_certificate_for(cell, apex)
        except ValueError:
            continue
    raise ConstructionError("no generic apex found (degenerate cell?)")


def old_default_candidates(t1, t2, origin) -> list:
    """Identity pair plus the half-shift pairs for each anchor translation.

    Anchors: from the first vertex of tile 0 of T to that of tile 0 of T',
    and to every tile of T' that is a translate of tile 0 of T (a shift may
    reorder the canonical tiles); each also reduced to [-1/2, 1/2)^n."""
    frame = t1.frame
    pairs = [(identity_iso(frame), identity_iso(frame))]
    anchors = [vsub(t2.cell_tiles[0].vertices[0], t1.cell_tiles[0].vertices[0])]
    d, cells = _int_vertices((t1.cell_tiles[0],) + t2.cell_tiles)
    anchors += [tuple(Q(x, d) for x in v) for pts in cells[1:]
                if (v := _translate_match(cells[0], pts)) is not None]
    taus = set()
    for v in anchors:
        taus.update((v, tuple(frac_part(x + Q(1, 2)) - Q(1, 2) for x in v)))
    for tau in taus:
        if all(x == 0 for x in tau):
            continue
        half = tuple(x / 2 for x in tau)
        pairs.append((translation_iso(frame, half), translation_iso(frame, tuple(-x for x in half))))
    return pairs


CASES = [(name, seed) for name in PRESET_NAMES for seed in range(3)]


@lru_cache(maxsize=None)
def tilings(name, seed):
    """The seed's construction and Voronoi tiling of the preset."""
    g = preset(name)
    return construct_tiling(g, seed), voronoi_tiling(g, generic_point(g, seed))


@pytest.mark.parametrize("name, seed", CASES)
def test_aut_matches_the_full_loop(name, seed):
    # Aut of the construction is the preset, with Fraction translations;
    # its groups against the old loops, and the Voronoi tiling's:
    # test_keys_groups_and_problems_match_the_old_code
    construction, cells = tilings(name, seed)
    group, _ = automorphism_group_with_embedding(construction)
    assert group.reps == preset(name).reps
    assert all(type(c) is Fraction for _, v in group.reps for c in v)
    # periodic_tiling sorts the tiles by their int rows: the order of their vertex tuples
    for t in (construction, cells):
        assert list(t.cell_tiles) == sorted(t.cell_tiles, key=lambda tile: tile.vertices)


def test_aut_matches_the_full_loop_on_the_reexpression_path(half_scale_tiling):
    # its lattice is (1/2) Z^2, so Aut re-expresses it over the dense
    # lattice; the reference is the tile-once oracle's Aut, which the full
    # loop gave way to (imported here, as that module imports this one)
    from test_tile_once_oracle import automorphism_group_with_embedding as old_aut
    assert _translation_lattice(2, *_int_cells(half_scale_tiling)) != identity_mat(2)
    group, embed = automorphism_group_with_embedding(half_scale_tiling)
    old_group, old_embed = old_aut(half_scale_tiling)
    assert group == old_group and group.reps == old_group.reps and group.order() == 8
    assert all(type(c) is Fraction for _, v in group.reps for c in v)
    assert embed == old_embed and embed._ints == old_embed._ints


@pytest.mark.parametrize("name, seed", CASES)
def test_construction_steps_match_the_fraction_code(name, seed):
    g = preset(name)
    x = generic_point(g, seed)
    assert stabilizer(g, x) == old_stabilizer(g, x)
    cell, _ = cell_with_certificate(g, x)
    assert generic_apex(cell, seed) == old_generic_apex(cell, seed)
    construction = tilings(name, seed)[0]
    assert construction.provenance.apex == old_generic_apex(construction.provenance.base_cell,
                                                            seed).apex


# coordinates with small denominators hit the special positions of the
# presets: mirror lines, rotation centres and glide axes
SPECIAL = st.builds(Q, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12]))
GENERAL = st.builds(Q, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_orbit_tests_match_the_fraction_code(data):
    g = preset(data.draw(st.sampled_from(PRESET_NAMES)))
    coords = data.draw(st.sampled_from([SPECIAL, GENERAL]))
    x = data.draw(st.tuples(*[coords] * g.dim))
    got = stabilizer(g, x)
    assert got == old_stabilizer(g, x)
    assert all(type(c) is Fraction for _, v in got for c in v)
    # an orbit point, a translate of one by a rational, and a drawn point
    m, v = data.draw(st.sampled_from(g.reps))
    k = data.draw(st.tuples(*[st.integers(-3, 3)] * g.dim))
    image = vadd(vadd(mat_vec(m, vec(x)), v), vec(k))
    shift = data.draw(st.tuples(*[st.sampled_from([0, Q(1, 2), Q(1, 3), Q(-1, 7)])] * g.dim))
    for y in (image, vadd(image, vec(shift)), data.draw(st.tuples(*[coords] * g.dim))):
        assert _orbit_contains(g, x, vec(y)) == old_orbit_contains(g, vec(x), vec(y))
    assert _orbit_contains(g, x, image)


@lru_cache(maxsize=None)
def seed0_cell(name):
    g = preset(name)
    return cell_with_certificate(g, generic_point(g, 0))[0]


def outcome(certify, cell, apex):
    try:
        return certify(cell, apex)
    except ValueError as err:
        return str(err)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_certificates_match_the_fraction_code(data):
    cell = seed0_cell(data.draw(st.sampled_from(PRESET_NAMES)))
    rows = cell._rows
    kind = data.draw(st.sampled_from(["inside", "boundary", "drawn"]))
    if kind == "drawn":
        apex = data.draw(st.tuples(*[st.builds(Q, st.integers(-40, 40), st.integers(1, 20))]
                                   * cell.dim))
    else:
        low = 0 if kind == "boundary" else 1
        w = data.draw(st.lists(st.integers(low, 9), min_size=len(rows), max_size=len(rows)))
        w[0] = max(w[0], 1)
        apex = tuple(Q(sum(map(mul, w, col)), cell._den * sum(w)) for col in zip(*rows))
    got = outcome(certificate_for, cell, apex)
    assert got == outcome(old_certificate_for, cell, apex)
    if not isinstance(got, str):
        assert all(type(c) is Fraction for c in got.vertex_sq_distances + got.edge_sq_lengths)


def assert_same_candidates(t1, t2, origin):
    got, want = default_candidates(t1, t2, origin), old_default_candidates(t1, t2, origin)
    assert len(got) == len(want)
    for pair, old_pair in zip(got, want):
        for iso, old in zip(pair, old_pair):
            assert (iso.frame, iso.linear, iso.translation, iso.target, iso._ints) == \
                (old.frame, old.linear, old.translation, old.target, old._ints)
            assert all(type(c) is Fraction for c in iso.translation + sum(iso.linear, ()))


@pytest.mark.parametrize("name", ["p1", "p2", "p4m", "p6m", "P222"])
def test_candidates_match_the_public_constructor(name):
    t = seed0_construction(name)
    n = t.dim
    shifts = [(Q(1, 10), Q(1, 7), Q(2, 3))[:n], (Q(-1, 2), Q(5, 4), Q(1, 3))[:n]]
    for s in shifts:
        moved = transform_tiling(t, translation_iso(t.frame, s))
        assert_same_candidates(t, moved, (0,) * n)
        assert_same_candidates(moved, t, s)
    assert_same_candidates(t, t, (0,) * n)


def test_candidates_match_on_the_half_scale_tiling(half_scale_tiling, square_tiling):
    assert_same_candidates(half_scale_tiling, square_tiling, (0, 0))
    assert_same_candidates(square_tiling, half_scale_tiling, (Q(1, 3), 0))


# --- work pins ------------------------------------------------------------------

@pytest.mark.parametrize("name, most", [("Pm-3m", 6), ("p6m", 4)])
def test_aut_checks_only_the_point_parts_outside_the_closure(name, most, count_calls):
    # the full loop checked every point part: 48 for Pm-3m, 12 for p6m
    t = seed0_construction(name)
    calls = count_calls(tiling_mod, "_fixes_tiling")
    group, _ = automorphism_group_with_embedding(t)
    assert group.reps == preset(name).reps
    assert 1 <= len(calls) <= most


def test_aut_grows_its_closure_by_cosets(count_calls):
    # each accepted generator grows the closure by its cosets: one Seitz
    # product per new element and per new coset rep and generator.  The
    # closures rebuilt from the identity after each generator made 223 on
    # the 17 wallpaper constructions and 338 on Pm-3m
    import crystile.groups as groups_mod

    tilings = [seed0_construction(name) for name in WALLPAPER_NAMES + ("Pm-3m",)]
    products = count_calls(groups_mod, "_int_seitz_translation")
    for t in tilings[:-1]:
        automorphism_group_with_embedding(t)
    assert len(products) == 115
    group, _ = automorphism_group_with_embedding(tilings[-1])
    assert group.reps == preset("Pm-3m").reps
    assert len(products) == 115 + 67


def test_construction_calls_no_fraction_orbit_or_norm(count_calls):
    # the stabilizer and orbit tests, the apex and its certificate run on
    # int rows; the Fraction code made 35 mat_vec and 6 gram_norm2 calls here
    g = preset("p6m")
    calls = count_calls(linalg_mod, "mat_vec")
    count_calls(linalg_mod, "gram_norm2", calls)
    construct_tiling(g, 0)
    assert calls == []
