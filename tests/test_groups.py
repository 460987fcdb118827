import hashlib

import pytest

from crystile import groups as groups_mod
from crystile import isometry as isometry_mod
from crystile import linalg as linalg_mod
from crystile.rational import Q
from crystile.linalg import identity_mat, mat_vec, vadd, vsub
from crystile.isometry import Frame, identity_iso
from crystile.groups import (
    CrystalGroup,
    GroupValidationError,
    PRESET_NAMES,
    WALLPAPER_NAMES,
    conjugacy_search,
    generic_point,
    is_conjugate_subgroup,
    is_symmorphic,
    lattice_isometries,
    lattice_points_in_ball,
    orbit_in_ball,
    preset,
    span_seitz,
    stabilizer,
    subgroup_index,
    validate_group,
)

from crystile.serialize import group_to_json
from crystile.tiling import automorphism_group

from conftest import is_integral_vec, seed0_construction

D4_MATRICES = {
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((0, -1), (-1, 0)),
}


def _as_int_sets(mats):
    return {tuple(tuple(int(x) for x in row) for row in m) for m in mats}


def test_validate_square_example(frame2):
    pairs = [(m, (0, 0)) for m in D4_MATRICES]
    g = validate_group(frame2, pairs)
    assert g.order() == 8
    assert _as_int_sets(g.point_parts()) == D4_MATRICES


def test_validate_trivial(frame2):
    g = validate_group(frame2, [(identity_mat(2), (0, 0))])
    assert g.order() == 1


def test_validate_rejects_shear(frame2):
    with pytest.raises(GroupValidationError) as exc:
        validate_group(frame2, [(((1, 1), (0, 1)), (0, 0))])
    assert any("Gram-orthogonal" in v for v in exc.value.violations)


def test_validate_rejects_closure_failure(frame2):
    rot90 = ((0, -1), (1, 0))
    neg = ((-1, 0), (0, -1))
    with pytest.raises(GroupValidationError) as exc:
        validate_group(frame2, [(rot90, (0, 0)), (neg, (Q(1, 2), 0))])
    assert any("closure" in v for v in exc.value.violations)


def test_pm3m_validation_makes_one_int_seitz_product_per_rep_and_generator(count_calls, monkeypatch):
    # the greedy choice grows the point parts' closure by its 1st, 2nd, 3rd
    # and 4th generator (_int_extend), to 2, 4, 16 and 48 elements, and the
    # Seitz pairs' closure grows the same way: each time one product per
    # new element (47) and one per new coset rep and generator (1 + 2 + 9
    # + 8 = 20).  The closures rebuilt from the identity after each
    # generator and the translation pass over every rep and generator made
    # 442
    import crystile.groups as groups_mod

    g = preset("Pm-3m")
    grown = []
    real = groups_mod._int_extend
    monkeypatch.setattr(groups_mod, "_int_extend",
                        lambda elems, gens, d: real(elems, gens, d) or grown.append((len(gens), len(elems))))
    products = count_calls(groups_mod, "_int_seitz_translation")
    assert validate_group(g.frame, g.reps).reps == g.reps
    assert grown == [(1, 2), (2, 4), (3, 16), (4, 48)] * 2
    assert len(products) == 2 * (47 + 20) == 134
    assert not hasattr(groups_mod, "_seitz_mul")


def test_presets_are_built_without_validate_group(count_calls):
    # span_seitz returns its closure, which is a group by construction.
    # Seitz products: 190 to build the 20 presets and 380 to validate their
    # reps, where the breadth-first closures and the translation pass made
    # 285 and 849
    import crystile.groups as groups_mod

    checks = count_calls(groups_mod, "validate_group")
    products = count_calls(groups_mod, "_int_seitz_translation")
    preset.cache_clear()
    groups = [preset(name) for name in PRESET_NAMES]
    assert checks == [] and len(products) == 190
    for g in groups:
        assert validate_group(g.frame, g.reps).reps == g.reps
    assert len(products) == 190 + 380


def test_validate_rejects_a_denominator_the_generators_lack(frame2):
    # pmm's half turn and one mirror generate it; a half translation on the
    # other mirror alone is no product of theirs
    pairs = [(m, (Q(1, 2), 0) if m == ((1, 0), (0, -1)) else v) for m, v in preset("pmm").reps]
    with pytest.raises(GroupValidationError) as exc:
        validate_group(frame2, pairs)
    assert exc.value.violations == ["closure failure: product translation differs mod lattice"]


def test_validate_canonicalizes_translations(frame2):
    g = validate_group(frame2, [(((-1, 0), (0, -1)), (Q(5, 2), Q(-3, 2)))])
    (_, v), = [rv for rv in g.reps if rv[0] != identity_mat(2)]
    assert v == (Q(1, 2), Q(1, 2))


def test_preset_orders():
    expected = {
        "p1": 1, "p2": 2, "pm": 2, "pg": 2, "cm": 2,
        "pmm": 4, "pmg": 4, "pgg": 4, "cmm": 4,
        "p4": 4, "p4m": 8, "p4g": 8,
        "p3": 3, "p3m1": 6, "p31m": 6, "p6": 6, "p6m": 12,
    }
    for name, order in expected.items():
        assert preset(name).order() == order


def test_preset_p4m_signed_permutations():
    assert _as_int_sets(preset("p4m").point_parts()) == D4_MATRICES
    assert all(all(x == 0 for x in v) for _, v in preset("p4m").reps)


def test_preset_hex_gram():
    assert preset("p6m").frame.gram == ((1, Q(-1, 2)), (Q(-1, 2), 1))


def test_presets_share_one_frame_per_gram():
    # standard_frame and hexagonal_frame are cached, so the lru caches keyed
    # by frames match them by identity instead of comparing Gram entries
    assert preset("p4").frame is preset("pmm").frame
    assert preset("p3").frame is preset("p6m").frame
    assert preset("P1").frame is preset("Pm-3m").frame


def test_preset_unknown():
    with pytest.raises(KeyError):
        preset("p5")


def test_orbit_in_ball_p1(frame2):
    orb = orbit_in_ball(preset("p1"), (0, 0), (0, 0), 2)
    assert len(orb.sites) == 9
    assert set(orb.sites) == {(Q(a), Q(b)) for a in (-1, 0, 1) for b in (-1, 0, 1)}


def test_ball_query_refuses_more_points_than_its_cap(frame2):
    # at r2 = 10^12 the plane's query would walk 2 10^6 + 1 lines and the
    # line's would keep 2 10^6 + 1 points, both past 2^20: each is refused
    # before it is made
    for frame, center in ((frame2, (0, 0)), (Frame(1, ((1,),)), (0,))):
        with pytest.raises(ValueError, match="MAX_BALL_POINTS"):
            lattice_points_in_ball(frame, center, 10 ** 12)
    assert len(lattice_points_in_ball(frame2, (0, 0), 100)) == 317


def test_orbit_in_ball_tiny_radius(frame2):
    x = (Q(1, 5), Q(1, 10))
    orb = orbit_in_ball(preset("p4m"), x, x, Q(1, 1000))
    assert orb.sites == (x,)


def test_orbit_in_ball_p4m_eight(frame2):
    x = (Q(1, 5), Q(1, 10))
    orb = orbit_in_ball(preset("p4m"), x, x, Q(1, 4))
    assert len(orb.sites) == 8


def test_orbit_equivariance():
    g = preset("p4m")
    x = (Q(1, 5), Q(1, 10))
    orb = orbit_in_ball(g, x, x, Q(1, 2))
    for m, v in g.reps:
        for s in orb.sites:
            image = vadd(mat_vec(m, s), v)
            # image lies in the full orbit of x: some rep matches mod Z^2
            assert any(
                is_integral_vec(vsub(image, vadd(mat_vec(m2, x), v2)))
                for m2, v2 in g.reps
            )


def test_stabilizer_examples():
    p4m = preset("p4m")
    assert len(stabilizer(p4m, (0, 0))) == 8
    assert len(stabilizer(preset("p1"), (Q(1, 3), Q(2, 7)))) == 1
    assert len(stabilizer(p4m, (Q(1, 5), Q(1, 10)))) == 1


def test_stabilizer_mirror_point():
    # x on the diagonal mirror of p4m keeps the two diagonal elements
    stab = stabilizer(preset("p4m"), (Q(1, 5), Q(1, 5)))
    assert len(stab) == 2


def test_generic_point_all_presets():
    for name in WALLPAPER_NAMES:
        g = preset(name)
        for seed in range(10):
            x = generic_point(g, seed)
            assert len(stabilizer(g, x)) == 1


def test_symmorphic_examples():
    assert is_symmorphic(preset("p4m")) == (0, 0)
    assert is_symmorphic(preset("pg")) is None
    assert is_symmorphic(preset("p1")) == (0, 0)


def test_symmorphic_names():
    nonsymmorphic = {"pg", "pmg", "pgg", "p4g"}
    for name in WALLPAPER_NAMES:
        witness = is_symmorphic(preset(name))
        if name in nonsymmorphic:
            assert witness is None, name
        else:
            assert witness is not None, name


def test_symmorphic_witness_recenters():
    # about the witness P every rep's translation part becomes integral
    for name in ("pmm", "p4m", "p6m", "cmm"):
        g = preset(name)
        p = is_symmorphic(g)
        for m, v in g.reps:
            shifted = vadd(vsub(mat_vec(m, p), p), v)
            assert is_integral_vec(shifted), name


def test_shifted_p4m_symmorphic_about_shift():
    # conjugate p4m by a quarter shift: symmorphic about that shift
    g = preset("p4m")
    s = (Q(1, 4), Q(1, 8))
    pairs = [
        (m, vadd(vsub(s, mat_vec(m, s)), v))
        for m, v in g.reps
    ]
    shifted = validate_group(g.frame, pairs)
    p = is_symmorphic(shifted)
    assert p is not None
    for m, v in shifted.reps:
        assert is_integral_vec(vadd(vsub(mat_vec(m, p), p), v))


def test_conjugacy_search_same_group():
    g = preset("p4m")
    gamma = conjugacy_search(g, g)
    assert gamma is not None
    assert is_conjugate_subgroup(g, g, gamma)


def test_conjugacy_search_scale_mismatch():
    quarter = Frame(2, ((Q(1, 4), 0), (0, Q(1, 4))))
    gens = [(((0, -1), (1, 0)), (0, 0)), (((1, 0), (0, -1)), (0, 0))]
    half_p4m = span_seitz(quarter, gens)
    assert conjugacy_search(preset("p4m"), half_p4m) is None


def test_conjugacy_search_order_mismatch():
    assert conjugacy_search(preset("p2"), preset("p4m")) is None


def test_conjugacy_search_sheared_basis():
    # pgg re-expressed over the basis U = [[1,1],[0,1]] (non-identity Gram)
    from crystile.linalg import mat_inv, mat_mul, mat_vec, transpose
    from crystile.isometry import inverse

    u = ((1, 1), (0, 1))
    ui = mat_inv(u)
    g = preset("pgg")
    gram = mat_mul(transpose(u), mat_mul(g.frame.gram, u))
    pairs = [(mat_mul(ui, mat_mul(m, u)), mat_vec(ui, v)) for m, v in g.reps]
    sheared = validate_group(Frame(2, gram), pairs)
    gamma = conjugacy_search(sheared, g)
    assert gamma is not None
    assert is_conjugate_subgroup(sheared, g, gamma)
    assert is_conjugate_subgroup(g, sheared, inverse(gamma))


def test_conjugacy_distinguishes_p31m_p3m1():
    # same point-group order, same lattice, different mirror orientation
    assert conjugacy_search(preset("p31m"), preset("p3m1")) is None
    assert conjugacy_search(preset("p3m1"), preset("p31m")) is None
    assert conjugacy_search(preset("p31m"), preset("p31m")) is not None


def test_conjugacy_roundtrip_shifted():
    g = preset("p4m")
    s = (Q(1, 3), Q(1, 5))
    pairs = [(m, vadd(vsub(s, mat_vec(m, s)), v)) for m, v in g.reps]
    shifted = validate_group(g.frame, pairs)
    gamma = conjugacy_search(g, shifted)
    assert gamma is not None
    assert is_conjugate_subgroup(g, shifted, gamma)
    from crystile.isometry import inverse

    assert is_conjugate_subgroup(shifted, g, inverse(gamma))


def test_is_conjugate_subgroup_examples():
    p2, p4m = preset("p2"), preset("p4m")
    ident = identity_iso(p2.frame)
    assert is_conjugate_subgroup(p2, p4m, ident)
    assert not is_conjugate_subgroup(p4m, p2, ident)
    g = p4m.element(p4m.point_parts()[3])
    assert is_conjugate_subgroup(p4m, p4m, g)


def test_subgroup_index():
    assert subgroup_index(preset("p2"), preset("p4m")) == 4
    assert subgroup_index(preset("p4"), preset("p4m")) == 2


def test_lattice_vectors_with_norm_hex(hexframe):
    # six unit vectors in the hexagonal lattice: the first columns of its
    # lattice isometries, which lattice_isometries filters by norm
    assert len({(u[0][0], u[1][0]) for u in lattice_isometries(hexframe, hexframe)}) == 6


def test_lattice_isometries_orders(frame2, hexframe):
    assert len(lattice_isometries(frame2, frame2)) == 8
    assert len(lattice_isometries(hexframe, hexframe)) == 12


# sha256 of dump_json(group_to_json(preset(name))), byte for byte the group
# JSON files the presets were once shipped as
PRESET_DIGESTS = {
    "p1": "b1c17b87cc1acb5596dbc50ba048f920097b14b2ee5894b75c447f310fea4da6",
    "p2": "3064e1f23431ca4433e8e73cc70a273c40faeb0697a11749b811395dbc8d2b58",
    "pm": "fa2e5eafe3b64b91ea0509e9d52eb7b18302da67b4dc52413d8f58db62340b02",
    "pg": "21542fc70aea2a3f9d77a3bcf52b2707de423d8586c713cc1eba3ca54abc20b2",
    "cm": "be6b7ab15fce386ef761cef17eacc4da45977d19c29b6da3a4815bf47226eecd",
    "pmm": "84d906c0deec336f68ff0c04800f080004ff4fa5dc465151568e00d17ca75b51",
    "pmg": "46409fab8d3e8897c7071dba1083cf92e7779da4ee3ede38c11434c349969a78",
    "pgg": "9e34b473d5b63f7bfc1a2ccb318599483a3fb32794ede6b98d83bcd0459a849b",
    "cmm": "27fc7526670514fce51aed480d2290c33ac7e956b7ebafb9e6dad339520f5135",
    "p4": "e09a56844bc68d9579c9f531cab8fc4e54f87d35ae4afc77ea2dead0dab55a24",
    "p4m": "ac20b95340bf51e9b7a875990d4f1500f5e3a812ad4ce06df99b08ee6a9a3106",
    "p4g": "17eb6dd3c4c105767e57de9d1dac3ad9f3f9e6b46b8eae56ed65e29411b887d5",
    "p3": "03b776c51cc92afce2359bad9ce67052e91f7b392071977b056e69d7e03bedd8",
    "p3m1": "fa1fd3f6be546d16380a7983f49a3ce5e1e49058c0f7a7b711ab7c94ff2cf812",
    "p31m": "02dd503ac07259ec8f67f28e31937831dfba01b5249af9b679df0be6b6247ef7",
    "p6": "649e78f5722a5c2b3caac7e95ab49642876060723160c7c328471f95b8b956c8",
    "p6m": "36a90bd90a7c338fa4f6800bbad8f44eb074b30cddfee37fd99779cf5a29562b",
    "P1": "ca5678e2a2953cce135b1d92d3217bccfeff1f4a5bcc2596d165a23c33bb8e5c",
    "P222": "631022cb689583b1f59b794b11a03540a34242fdaf87c38b4a3a853bab46ea31",
    "Pm-3m": "e0aa364cd325bd801f118191b95771c8368e92bcdb41db3c13a4810e5d0b1937",
}


def test_preset_group_json_digests():
    from crystile.serialize import dump_json, group_to_json

    assert set(PRESET_DIGESTS) == set(PRESET_NAMES)
    for name in PRESET_NAMES:
        text = dump_json(group_to_json(preset(name)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PRESET_DIGESTS[name], name


def test_span_seitz_rejects_shear(frame2):
    # the generators are checked before they are closed: the shear fails
    # Gram-orthogonality, where its closure once grew past MAX_GROUP_ORDER
    with pytest.raises(GroupValidationError) as exc:
        span_seitz(frame2, [(((1, 1), (0, 1)), (0, 0))])
    assert exc.value.violations == [GENERATOR_NOT_ORTHOGONAL]


GENERATOR_NOT_ORTHOGONAL = "generator 0: point part is not Gram-orthogonal (M^T G M != G)"

SPAN_REFUSALS = {
    "non-integral": ([(((Q(1, 2), 0), (0, 1)), (0, 0))], "generator 0: non-integer point part"),
    # order 2, since its square is the identity, but not Gram-orthogonal
    # in the square frame
    "order-2-oblique": ([(((1, 1), (0, -1)), (0, 0))], GENERATOR_NOT_ORTHOGONAL),
    # the identity's point part with the translations 0 and (1/2, 0)
    "half-translation": ([(((1, 0), (0, 1)), (Q(1, 2), 0))],
                         "duplicate point parts with different translations"),
}


@pytest.mark.parametrize("case", sorted(SPAN_REFUSALS))
def test_span_seitz_refuses(frame2, case):
    gens, message = SPAN_REFUSALS[case]
    with pytest.raises(GroupValidationError) as exc:
        span_seitz(frame2, gens)
    assert exc.value.violations == [message]


def test_demo_3d_presets(frame3):
    assert preset("P1").order() == 1
    assert preset("P222").order() == 4
    assert preset("Pm-3m").order() == 48
    orb = orbit_in_ball(preset("P222"), (Q(1, 5), Q(1, 7), Q(1, 11)), (0, 0, 0), 2)
    assert len(orb.sites) > 4


def test_public_results_keep_q_entries():
    # the ball query yields int tuples; what the package hands out stays Q:
    # lattice isometries, rep translations (point parts are int matrices),
    # orbit sites and cell vertices
    from crystile.voronoi import voronoi_cell

    frame = preset("p6m").frame
    assert all(type(c) is Q for u in lattice_isometries(frame, frame) for row in u for c in row)
    for name in ("p4g", "p6m", "Pm-3m"):
        g = preset(name)
        assert all(type(c) is int for m, _ in g.reps for row in m for c in row)
        assert all(type(c) is Q for _, v in g.reps for c in v)
        x = generic_point(g, 0)
        assert all(type(c) is Q for s in orbit_in_ball(g, x, x, 2).sites for c in s)
        assert all(type(c) is Q for v in voronoi_cell(g, x).vertices for c in v)


def test_groups_are_their_int_pairs():
    # a group is stored as (d, its sorted int Seitz pairs), d least: rebuilt
    # from its rational reps, or from its pairs over a multiple of d, it is
    # the same value, with the same hash, reps and JSON
    groups = [preset(name) for name in PRESET_NAMES]
    groups += [automorphism_group(seed0_construction(name)) for name in PRESET_NAMES]
    for g in groups:
        again = CrystalGroup(g.frame, g.reps, g.name)
        d, pairs = g._ints
        scaled = CrystalGroup._of_ints(g.frame, 6 * d, [(m, tuple(6 * x for x in t)) for m, t in pairs])
        assert again == g == scaled and hash(again) == hash(g) == hash(scaled)
        assert again._ints == g._ints == scaled._ints
        assert repr(again.reps) == repr(g.reps) == repr(scaled.reps)
        assert group_to_json(again) == group_to_json(g)
    assert [preset(name)._ints[0] for name in ("p1", "pg", "p4g", "Pm-3m")] == [1, 2, 2, 1]


def test_conjugacy_and_aut_form_no_rationals(count_calls):
    # conjugacy_search conjugates the int pairs (579 Q were formed in
    # isometry.py for Pm-3m against itself when it conjugated isometries)
    # and solves its congruences on ints (144 Q were formed in groups.py and
    # 147 in linalg.py when solve_mod_lattice took and returned Q), and Aut
    # returns its int closure (156 Q were formed in groups.py on the 17
    # seed-0 wallpaper constructions when groups stored rational reps); Q
    # translations are formed only when reps is read
    g = preset("Pm-3m")
    conjugacy_search(g, g)  # fills the per-frame caches
    formed = count_calls(isometry_mod, "Q")
    count_calls(groups_mod, "Q", formed)
    count_calls(linalg_mod, "Q", formed)
    assert conjugacy_search(g, g).is_identity()
    assert formed == []
    tilings = [seed0_construction(name) for name in WALLPAPER_NAMES]
    want = [preset(name).reps for name in WALLPAPER_NAMES]  # formed before counting
    formed = count_calls(groups_mod, "Q")
    auts = [automorphism_group(t) for t in tilings]
    assert formed == []
    assert [a.reps for a in auts] == want
    assert len(formed) == sum(a.order() * a.dim for a in auts)
