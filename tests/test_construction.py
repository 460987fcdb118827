import hashlib

import pytest

from crystile.rational import Q
from crystile.linalg import gram_norm2, vadd, vsub
from crystile.isometry import Frame, Isometry
from crystile import groups as groups_mod
from crystile import linalg as linalg_mod
from crystile import polytope
from crystile import tiling as tiling_mod
from crystile import voronoi as voronoi_mod
from crystile.groups import PRESET_NAMES, preset, generic_point, validate_group
from crystile.polytope import ConvexPolytope, HalfSpace, faces, volume
from crystile.serialize import dump_json, tiling_from_json, tiling_to_json
from crystile.voronoi import cell_with_certificate, voronoi_tiling
from crystile.tiling import automorphism_group, prototiles, tilings_equal, transform_tiling
from crystile.construction import (
    ConstructionError,
    _cone,
    certificate_for,
    cone_subdivide,
    construct_tiling,
    generic_apex,
)

from conftest import (bare, facet_key_set, from_vertices, old_cone, recovered_facets,
                      seed0_construction)


@pytest.fixture
def centered_square(frame2):
    h = Q(1, 2)
    return ConvexPolytope(frame2, [(-h, -h), (h, -h), (-h, h), (h, h)])


def test_certificate_example(centered_square):
    cert = certificate_for(centered_square, (Q(-1, 10), Q(-1, 4)))
    assert len(set(cert.vertex_sq_distances)) == 4
    assert not set(cert.vertex_sq_distances) & set(cert.edge_sq_lengths)
    assert cert.edge_sq_lengths == (1, 1, 1, 1)


def test_certificate_rejects_pythagorean_apex(centered_square):
    # (-1/10, -3/10) sits at distance exactly 1 (a 3-4-5 triple) from the
    # corner (1/2, 1/2), colliding with the edge length: not generic
    vd = gram_norm2(centered_square.frame.gram, vsub((Q(-1, 10), Q(-3, 10)), (Q(1, 2), Q(1, 2))))
    assert vd == 1
    with pytest.raises(ValueError):
        certificate_for(centered_square, (Q(-1, 10), Q(-3, 10)))


def test_certificate_rejects_center(centered_square):
    with pytest.raises(ValueError):
        certificate_for(centered_square, (0, 0))


def test_certificate_rejects_diagonal_point(centered_square):
    with pytest.raises(ValueError):
        certificate_for(centered_square, (Q(1, 5), Q(1, 5)))


def test_certificate_rejects_exterior(centered_square):
    with pytest.raises(ValueError):
        certificate_for(centered_square, (2, 0))


def test_generic_apex_terminates(centered_square):
    cert = generic_apex(centered_square, 0)
    assert centered_square.strictly_contains(cert.apex)
    cert2 = generic_apex(centered_square, 0)
    assert cert2.apex == cert.apex  # deterministic in the seed


def test_cone_subdivide_square_counts(frame2):
    g = preset("p1")
    cell, _ = cell_with_certificate(g, (0, 0))
    cert = generic_apex(cell, 0)
    sub = cone_subdivide(g, (0, 0), cert)
    assert len(sub.cell_tiles) == 4
    assert len(prototiles(sub)) == 4
    assert sum(volume(t) for t in sub.cell_tiles) == 1


def test_cone_subdivide_hex_cell_counts(frame2):
    # generically the p2 cells are hexagonal: 6 cones per cell
    g = preset("p2")
    x = generic_point(g, 0)
    cell, _ = cell_with_certificate(g, x)
    facets = len(cell.facets())
    assert facets == 6
    cert = generic_apex(cell, 0)
    sub = cone_subdivide(g, x, cert)
    assert len(sub.cell_tiles) == 2 * facets


def test_cone_subdivide_refuses_bad_certificate(frame2):
    # the unit square holds the base point (0, 0) only on its boundary
    g = preset("p1")
    other = ConvexPolytope(frame2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    cert = generic_apex(other, 0)
    with pytest.raises(ValueError):
        cone_subdivide(g, (0, 0), cert)


def test_cone_edge_signatures_distinct(frame2):
    # within one subdivided cell the cones' edge-length lists differ pairwise
    g = preset("p1")
    cell, _ = cell_with_certificate(g, (0, 0))
    cert = generic_apex(cell, 0)
    sub = cone_subdivide(g, (0, 0), cert)
    gm = frame2.gram
    sigs = []
    for t in sub.cell_tiles:
        from crystile.polytope import faces

        sig = sorted(
            gram_norm2(gm, vsub(e.vertices[1], e.vertices[0])) for e in faces(t, 1)
        )
        sigs.append(tuple(sig))
    assert len(set(sigs)) == len(sigs)


def test_construct_p1_kills_d4():
    g = preset("p1")
    t = construct_tiling(g, 0)
    aut = automorphism_group(t)
    assert aut.order() == 1
    assert aut.frame == g.frame
    assert aut.reps == g.reps


def test_construct_on_the_line():
    # the cell is an interval, its one edge, and the cone over each endpoint
    # is the segment to the apex; two cones per cell always admit a
    # reflection, so the trivial group cannot be realized
    frame = Frame(1, [[1]])
    mirror = validate_group(frame, [(((1,),), (0,)), (((-1,),), (0,))])
    t = construct_tiling(mirror, 0)
    assert len(t.cell_tiles) == 4
    aut = automorphism_group(t)
    assert aut.frame == mirror.frame and aut.reps == mirror.reps
    with pytest.raises(ConstructionError):
        construct_tiling(validate_group(frame, [(((1,),), (0,))]), 0)


LINE_MIRROR = validate_group(Frame(1, [[1]]), [(((1,),), (0,)), (((-1,),), (0,))])


@pytest.mark.parametrize("name", [*PRESET_NAMES, "line"])
def test_int_cones_match_nullspace_cones(name):
    # _cone forms each side plane from an int cross product (a perpendicular
    # in the plane) scaled by its last nonzero entry; the old cone took the
    # Fraction nullspace vector of _coordinate_normal.  Both must give the
    # same vertices, the same facets() in order and the same tight sets,
    # over the base cells of seeds 0 to 2
    group = LINE_MIRROR if name == "line" else preset(name)
    n = group.dim
    for seed in range(3):
        cell, _ = cell_with_certificate(group, generic_point(group, seed))
        apex = generic_apex(cell, seed).apex
        for pair, h, fpoly in zip(cell._facets, cell.facets(), faces(cell, n - 1)):
            new, old = _cone(fpoly, pair, apex), old_cone(fpoly, h, apex)
            assert new.vertices == old.vertices
            assert new._facets == old._facets
            assert new.facets() == old.facets()
            assert polytope._tight_sets(new) == polytope._tight_sets(old)


def test_kernel_builds_no_halfspace(monkeypatch):
    # facets made inside the kernel are stored as int pairs: a construction
    # and a Delone certificate build no HalfSpace, so none is checked again
    made = []
    real = HalfSpace.__post_init__
    monkeypatch.setattr(HalfSpace, "__post_init__", lambda self: made.append(1) or real(self))
    construct_tiling(preset("p6m"), 0)
    assert made == []
    voronoi_mod.delone_params(preset("P222"), (Q(18, 47), Q(29, 43), Q(12, 19)))
    assert made == []


def test_construct_p4m_and_p6():
    for name in ("p4m", "p6"):
        g = preset(name)
        t = construct_tiling(g, 0)
        aut = automorphism_group(t)
        assert aut.reps == g.reps and aut.frame == g.frame


def test_construct_p6_has_no_reflections():
    g = preset("p6")
    t = construct_tiling(g, 0)
    aut = automorphism_group(t)
    from crystile.linalg import mat_det

    assert all(mat_det(m) == 1 for m in aut.point_parts())


def test_construct_custom_lattices():
    # non-preset Gram matrices: oblique p2-type and rectangular pg-type
    from crystile.isometry import Frame
    from crystile.groups import span_seitz

    oblique = Frame(2, ((2, Q(1, 2)), (Q(1, 2), 3)))
    g_ob = span_seitz(oblique, [(((-1, 0), (0, -1)), (0, 0))])
    t = construct_tiling(g_ob, 0)
    aut = automorphism_group(t)
    assert aut.reps == g_ob.reps and aut.frame == g_ob.frame

    rect = Frame(2, ((1, 0), (0, 3)))
    g_pg = span_seitz(rect, [(((1, 0), (0, -1)), (Q(1, 2), 0))])
    t = construct_tiling(g_pg, 1)
    aut = automorphism_group(t)
    assert aut.reps == g_pg.reps and aut.frame == g_pg.frame


def test_group_inside_aut_before_verification():
    # equivariance of the pipeline: Gamma fixes the subdivided tiling
    g = preset("p4")
    x = generic_point(g, 1)
    cell, _ = cell_with_certificate(g, x)
    cert = generic_apex(cell, 1)
    sub = cone_subdivide(g, x, cert)
    for m, v in g.reps:
        phi = Isometry(g.frame, m, v)
        assert tilings_equal(transform_tiling(sub, phi), sub)


def test_subdivision_preserves_volume():
    g = preset("p3")
    x = generic_point(g, 2)
    cell, _ = cell_with_certificate(g, x)
    cert = generic_apex(cell, 2)
    sub = cone_subdivide(g, x, cert)
    assert sum(volume(t) for t in sub.cell_tiles) == 1


# sha256 of the tiling JSON of construct_tiling(preset(name), 0), as recorded
# for seed 0 in bench/reference_digests.json (wallpaper groups), for P1 and
# P222 before their cells were built by clipping, and for Pm-3m before the
# cones carried their facets
SEED0_DIGESTS = {
    "p1": "7b3216f017d1100488fdcba5c54af74c78a1cf92e084ef9b9d9a9318b2292d22",
    "p2": "04e3eb5a3cc222b45a9fde64967bdd28f1907532a5bbed82eee401d27be960b1",
    "pm": "515cf3c2d936c407cea619a4d2b41110d717c45ca2a4624acaeae2330c864cef",
    "pg": "d2e76869a2a7130551e4e397845d8b6957f4f3434eb7a08797c02f4e0408eb2b",
    "cm": "7983e151fbb1253b20e2445b9e0460e602603639d824cf5d50133738a56cdc37",
    "pmm": "2c3c2b969b02e6d166e8b35d55c6bb734f4d6e30fb9b572d8eaeb751e7d22e27",
    "pmg": "d25029dc3d8d880d85a1b4bedf7514676feefe62837a5afd304d9d34fe84b02b",
    "pgg": "3df64a2df2fbbbbc58aba81f5530211c8c7950a51abbee98527638e15addc68d",
    "cmm": "99c3d2ca7cff8dfe324dbfec6969583f216bb861145e243eaeadab2d2b3a061a",
    "p4": "76ea8d4adc492ec1d79e1e11de7ba3f8b0b971ad4847d519c2a8c9aa2ef8bfa9",
    "p4m": "30707d0d90a991a4beb2519e007316d56d220ee9ea774074325d2aa08ecdc82c",
    "p4g": "82cd530db3e53bac363db2edec6a971eceaa155ea3969acdee687bcdbd4ff3e4",
    "p3": "df321a965ad6e0a381e9e98aa74438c1c78bf39f572a445fd1f8ecb1cf6a724c",
    "p3m1": "5069cc3689971e11f3c86eef595f04c95a7584dc5500776355d95d25fbae4d71",
    "p31m": "4315a5d2334a23353aa89c14115907d6ebeedd476e70c30ccf19303eee76b16a",
    "p6": "2bb203775255ed58fda1d6c15cc4bee7331f7c559006e7972f4b1a6244d47a49",
    "p6m": "2dbc8803c964718667e15306ae48372c7a5e2c521c56801a98bb94674f82aa46",
    "P1": "42f8b7d5c0e11e80acc10dc8bf34bcda676ab5ec67ac1fe6a79d65fb43e069b8",
    "P222": "796b19544dbcbc9726a7f5c4c1ec61916015f483de153780df9d60cb538c9e08",
    "Pm-3m": "97da9a3c93b3d5ba6055fb2a7c49277256f924cebad883713de8552028c03597",
}


@pytest.mark.parametrize("name", SEED0_DIGESTS)
def test_seed0_construction_digests(name, count_calls):
    # the cones come straight from the certified cell, so the subdivision
    # is the one tiling validated, and Aut is computed once and built from
    # its verified pairs without validate_group
    group = preset(name)
    validations = count_calls(tiling_mod, "validate_tiling")
    auts = count_calls(tiling_mod, "automorphism_group")
    voronoi_tilings = count_calls(voronoi_mod, "voronoi_tiling")
    group_checks = count_calls(groups_mod, "validate_group")
    text = dump_json(tiling_to_json(construct_tiling(group, 0)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEED0_DIGESTS[name]
    assert len(validations) == 1 and voronoi_tilings == []
    assert len(auts) == 1 and group_checks == []


@pytest.mark.parametrize("name", ["p6m", "P222", "Pm-3m"])
def test_saved_construction_loads_back(name):
    # a loaded file's tiles are hulled from their vertices: they serialize
    # to the pinned digest again, with the facets the construction carried
    built = seed0_construction(name)
    loaded = tiling_from_json(tiling_to_json(built))
    text = dump_json(tiling_to_json(loaded))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEED0_DIGESTS[name]
    assert ({t.vertices: facet_key_set(t.facets()) for t in loaded.cell_tiles}
            == {t.vertices: facet_key_set(t.facets()) for t in built.cell_tiles})


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_carried_facets_match_recovery(name):
    # every transformed Voronoi cell and every transformed cone carries the
    # facets that recovery from its vertices finds, each plane once
    g = preset(name)
    tiles = voronoi_tiling(g, generic_point(g, 0)).cell_tiles + construct_tiling(g, 0).cell_tiles
    for t in tiles:
        assert t._facets is not None
        carried = facet_key_set(t.facets())
        assert len(carried) == len(t.facets())
        assert carried == facet_key_set(recovered_facets(g.frame, t))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_carried_tight_sets_match_recomputation(name):
    # transform and translate carry each vertex's tight set, since an
    # isometry keeps incidences: every transformed Voronoi cell and cone
    # holds the sets that a fresh copy of it computes
    g = preset(name)
    tiles = voronoi_tiling(g, generic_point(g, 0)).cell_tiles + seed0_construction(name).cell_tiles
    for t in tiles:
        assert t._tight is not None
        fresh = from_vertices(t.frame, t.vertices, t._facets)
        assert t._tight == polytope._tight_sets(fresh)


def test_construction_moves_tiles_on_ints(count_calls):
    # each cone image is moved once, on the cone's int rows and int facets
    # (polytope._moved), so the p6m construction makes no linalg.vdot or
    # mat_vec call, wherever a module binds those names, and forms the
    # integer L^-T of carried facets once per distinct point part (twelve)
    calls = count_calls(linalg_mod, "vdot")
    count_calls(linalg_mod, "mat_vec", calls)
    moves = count_calls(polytope, "_moved")
    polytope._inverse_transpose.cache_clear()
    group = preset("p6m")
    tiling = construct_tiling(group, 0)
    assert len(moves) == len(tiling.cell_tiles) > 2 * len(group.reps) and calls == []
    assert polytope._inverse_transpose.cache_info().misses == len({m for m, _ in group.reps}) == 12


def test_construction_moves_each_tile_once(count_calls):
    # the floor shift of each image's least vertex is folded into the move,
    # so the images come out canonical: one _moved per cell tile on the
    # seed-0 presets, 572 for 572, where moving again to canonicalize made
    # 1,012
    moves = count_calls(polytope, "_moved")
    tiles = sum(len(construct_tiling(preset(name), 0).cell_tiles) for name in PRESET_NAMES)
    assert len(moves) == tiles == 572


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_translate_keeps_sorted_vertices_and_facets(name):
    # a translation keeps exact vertices distinct and sorted, so translate
    # builds its result without re-sorting; it matches a polytope built from
    # the shifted vertices, with facets recovered from them
    tiling = seed0_construction(name)
    shifts = [(Q(1, 3), Q(-5, 7), 2), (-1, Q(2, 11), Q(1, 2)), (Q(-9, 4), 0, Q(3, 5))]
    for t in tiling.cell_tiles:
        for v in shifts:
            v = v[:tiling.dim]
            moved = t.translate(v)
            ref = bare(t.frame, [vadd(p, tuple(map(Q, v))) for p in t.vertices])
            assert moved.vertices == ref.vertices
            assert len(moved.facets()) == len(ref.facets())
            assert facet_key_set(moved.facets()) == facet_key_set(ref.facets())
