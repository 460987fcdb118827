import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystile import isometry as isometry_mod
from crystile.groups import PRESET_NAMES, preset
from crystile.rational import Q
from crystile.linalg import identity_mat, vsub
from crystile.isometry import (
    Frame,
    FrameError,
    Isometry,
    IsometryError,
    compose,
    decompose,
    _inv_gram_diag,
    embedding,
    hexagonal_frame,
    identity_iso,
    int_gram,
    inverse,
    iso_distance,
    linear_about,
    operator_norm,
    ortho_sqrt,
    standard_frame,
    translation_iso,
)

from conftest import random_rational_isometry, random_rational_point, rational_rotation_2d

ROT90 = ((0, -1), (1, 0))


def test_equal_frames_hash_once_and_share_cache_entries():
    # a frame keys the per-frame caches; its hash is computed once, when it
    # is built, and equal frames built separately find each other's entries
    a, b = hexagonal_frame(), Frame(2, [["1", "-1/2"], [Q(-1, 2), 1]])
    assert a is not b and a == b and hash(a) == hash(b)
    assert int_gram(a) is int_gram(b) and _inv_gram_diag(a) is _inv_gram_diag(b)
    assert embedding(a) is embedding(b)
    # hashing reads the stored value, not the Gram matrix
    gram = a.gram
    object.__setattr__(a, "gram", None)
    try:
        assert hash(a) == hash(b)
    finally:
        object.__setattr__(a, "gram", gram)


def test_frame_rejects_bad_gram():
    with pytest.raises(FrameError):
        Frame(2, ((1, 2), (2, 1)))  # indefinite
    with pytest.raises(FrameError):
        Frame(2, ((1, 2), (3, 1)))  # asymmetric


def test_frame_embedding_consistency(hexframe):
    rng = random.Random(5)
    c = embedding(hexframe)
    for _ in range(50):
        v = random_rational_point(rng, 2)
        exact = hexframe.norm2(v)
        approx = float(np.linalg.norm(c @ np.array([float(x) for x in v])) ** 2)
        assert abs(float(exact) - approx) <= 1e-9 * (1 + float(exact))


def test_compose_rotation_translation(frame2):
    a = linear_about(frame2, ROT90)
    b = translation_iso(frame2, (1, 0))
    conj = compose(a, compose(b, inverse(a)))
    assert conj.is_translation()
    assert conj.translation == (Q(0), Q(1))


def test_compose_identity_and_translations(frame2):
    b = random_rational_isometry(random.Random(1), frame2)
    assert compose(identity_iso(frame2), b) == b
    t1 = translation_iso(frame2, (1, 2))
    t2 = translation_iso(frame2, (3, 4))
    assert compose(t1, t2).translation == (Q(4), Q(6))


def test_a_point_of_another_dimension_is_refused(frame2):
    # zip truncated these: (1, 2, 3) went to (-2, 1) and (1,) to (0, 1)
    quarter = linear_about(frame2, ROT90)
    for x in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError, match="expected a 2-vector"):
            quarter(x)


def test_frame_norms_refuse_a_vector_of_another_dimension(frame2):
    # zip truncated these: norm2 of (3, 4, 12) was 25 and norm 5.0
    assert (frame2.norm2((3, 4)), frame2.norm((3, 4))) == (25, 5.0)
    for norm in (frame2.norm2, frame2.norm):
        for v in ((3, 4, 12), (3,)):
            with pytest.raises(ValueError, match="expected a 2-vector"):
                norm(v)


def test_linear_about_refuses_a_center_of_another_dimension(frame2):
    # the translation (3, 1) of the center (1, 2) came back for (1, 2, 3)
    with pytest.raises(ValueError, match="expected a 2-vector"):
        linear_about(frame2, ROT90, center=(1, 2, 3))


def test_identity_and_translation_tests(frame2):
    # the int form of a shift by (1/2, 0) is m = 2, A = 2 I, B = (1, 0)
    shift = translation_iso(frame2, (Q(1, 2), 0))
    quarter = linear_about(frame2, ROT90, center=(Q(1, 2), 0))
    assert shift.is_translation() and not shift.is_identity()
    assert not quarter.is_translation() and not quarter.is_identity()
    assert identity_iso(frame2).is_identity() and compose(shift, inverse(shift)).is_identity()


def test_isometry_arithmetic_forms_no_rationals(count_calls, hexframe):
    # an isometry holds its int form only: products, inverses, identities and
    # group elements form no Q, and linear forms its n^2 entries once
    a = Isometry(hexframe, ((0, -1), (1, -1)), (Q(1, 3), Q(1, 2)))
    b = translation_iso(hexframe, (Q(1, 5), Q(-2, 7)))
    groups = [preset(name) for name in PRESET_NAMES]
    formed = count_calls(isometry_mod, "Q")
    c = compose(a, inverse(b))
    inverse(c)
    identity_iso(hexframe)
    for g in groups:
        for m in g.point_parts():
            g.element(m)
    assert formed == []
    assert c.linear == ((0, -1), (1, -1))
    assert len(formed) == 4
    c.linear
    assert len(formed) == 4


def test_inverse_examples(frame2):
    t = translation_iso(frame2, (1, 0))
    assert inverse(t).translation == (Q(-1), Q(0))
    r = linear_about(frame2, ROT90)
    assert compose(r, inverse(r)).is_identity()
    glide = Isometry(frame2, ((1, 0), (0, -1)), (Q(1, 2), 0))
    assert compose(glide, inverse(glide)).is_identity()
    assert compose(inverse(glide), glide).is_identity()


def test_decompose_examples(frame2):
    half = (Q(1, 2), Q(1, 2))
    rot180 = linear_about(frame2, ((-1, 0), (0, -1)), center=half)
    d = decompose(rot180, (0, 0))
    assert d.trans_part == (Q(1), Q(1))
    assert d.ortho_part == ((Q(-1), Q(0)), (Q(0), Q(-1)))
    assert d.recompose(frame2) == rot180

    ident = identity_iso(frame2)
    d0 = decompose(ident, (Q(3), Q(7)))
    assert d0.trans_part == (Q(0), Q(0))
    assert d0.ortho_part == identity_mat(2)

    tv = translation_iso(frame2, (2, 5))
    dv = decompose(tv, (Q(1, 3), Q(1, 7)))
    assert dv.trans_part == (Q(2), Q(5))
    assert dv.ortho_part == identity_mat(2)


def test_decompose_recomposes_randomly(frame2, frame3):
    rng = random.Random(7)
    for frame in (frame2, frame3):
        for _ in range(25):
            a = random_rational_isometry(rng, frame)
            o = random_rational_point(rng, frame.dim)
            assert decompose(a, o).recompose(frame) == a


def test_iso_distance_examples(frame2):
    o = (0, 0)
    a = linear_about(frame2, ROT90)
    assert iso_distance(o, a, a) == 0.0
    d = iso_distance(o, a, identity_iso(frame2))
    assert abs(d - math.sqrt(2)) < 1e-9
    t = translation_iso(frame2, (3, 4))
    assert abs(iso_distance(o, t, identity_iso(frame2)) - 5.0) < 1e-9


def test_iso_distance_frame_mismatch(frame2, frame3):
    with pytest.raises(IsometryError):
        iso_distance((0, 0), identity_iso(frame2), identity_iso(frame3))


def test_conjugation_formula_exact(frame2):
    # alpha tau alpha^-1 == translation by alpha(tau(O)) - O, exactly
    rng = random.Random(11)
    o = (0, 0)
    for _ in range(40):
        alpha = random_rational_isometry(rng, frame2)
        alpha = linear_about(frame2, alpha.linear)  # orthogonal about O
        tau = translation_iso(frame2, random_rational_point(rng, 2))
        conj = compose(alpha, compose(tau, inverse(alpha)))
        assert conj.is_translation()
        assert conj.translation == vsub(alpha(tau(o)), o)


def test_conjugation_formula_hexagonal(hexframe):
    # same identity with hexagonal Gram-orthogonal point-group matrices
    rng = random.Random(13)
    o = (0, 0)
    for m in (((1, -1), (1, 0)), ((0, 1), (1, 0)), ((0, -1), (1, -1))):
        alpha = linear_about(hexframe, m)
        tau = translation_iso(hexframe, random_rational_point(rng, 2))
        conj = compose(alpha, compose(tau, inverse(alpha)))
        assert conj.is_translation()
        assert conj.translation == vsub(alpha(tau(o)), o)


def test_operator_norm_rotation(frame2):
    # ||R(theta) - 1||_op = sqrt(2 - 2 cos theta)
    for t in (Q(1, 3), Q(1, 7), Q(2, 5)):
        r = rational_rotation_2d(t)
        tf = float(t)
        theta = 2 * math.atan(tf)
        diff = tuple(
            tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(r, identity_mat(2))
        )
        got = operator_norm(frame2, diff)
        assert abs(got - math.sqrt(2 - 2 * math.cos(theta))) < 1e-9


def test_ortho_sqrt_identity_and_quarter_turn():
    assert np.allclose(ortho_sqrt(np.eye(2)), np.eye(2))
    th = math.pi / 2
    alpha = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    beta = ortho_sqrt(alpha)
    expected = np.array(
        [[math.cos(th / 2), -math.sin(th / 2)], [math.sin(th / 2), math.cos(th / 2)]]
    )
    assert np.allclose(beta, expected, atol=1e-9)


def test_ortho_sqrt_random_rotation():
    th = 0.7
    alpha = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    beta = ortho_sqrt(alpha)
    assert np.allclose(beta @ beta, alpha, atol=1e-9)
    dev_a = np.linalg.svd(alpha - np.eye(2), compute_uv=False)[0]
    dev_b = np.linalg.svd(beta - np.eye(2), compute_uv=False)[0]
    assert dev_b <= dev_a + 1e-9


def test_ortho_sqrt_rejects_half_turn():
    with pytest.raises(ValueError):
        ortho_sqrt(-np.eye(2))


def test_metric_axioms_random(frame2):
    rng = random.Random(23)
    o = (0, 0)
    for _ in range(60):
        a = random_rational_isometry(rng, frame2)
        b = random_rational_isometry(rng, frame2)
        c = random_rational_isometry(rng, frame2)
        dab = iso_distance(o, a, b)
        assert abs(dab - iso_distance(o, b, a)) < 1e-9
        assert dab >= 0
        assert iso_distance(o, a, c) <= dab + iso_distance(o, b, c) + 1e-9
    a = random_rational_isometry(rng, frame2)
    assert iso_distance(o, a, a) == 0.0


def test_identity_of_indiscernibles(frame2):
    # d_O(a, b) == 0 iff a == b exactly; distinct rationals give d > 0
    o = (0, 0)
    a = translation_iso(frame2, (Q(1, 10 ** 6), 0))
    assert iso_distance(o, a, identity_iso(frame2)) > 0


def test_continuity_of_conjugation(frame2):
    # d_O(gamma phi_k gamma^-1, gamma phi gamma^-1) -> 0 along a geometric sequence
    rng = random.Random(3)
    o = (0, 0)
    gamma = random_rational_isometry(rng, frame2)
    phi = random_rational_isometry(rng, frame2)
    prev = None
    for k in (1, 2, 4, 8, 16, 32):
        eps = Q(1, 3 * k)
        phik = compose(translation_iso(frame2, (eps, -eps)), phi)
        lhs = compose(gamma, compose(phik, inverse(gamma)))
        rhs = compose(gamma, compose(phi, inverse(gamma)))
        d = iso_distance(o, lhs, rhs)
        if prev is not None:
            assert d <= prev + 1e-12
        prev = d
    assert prev < 1e-1


iso_seeds = st.integers(0, 10 ** 9)


@given(iso_seeds, iso_seeds)
@settings(max_examples=60, deadline=None)
def test_compose_inverse_roundtrip_property(s1, s2):
    frame = standard_frame(2)
    a = random_rational_isometry(random.Random(s1), frame)
    b = random_rational_isometry(random.Random(s2), frame)
    assert compose(inverse(a), a).is_identity()
    assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))


@given(iso_seeds)
@settings(max_examples=40, deadline=None)
def test_decompose_uniqueness_property(seed):
    # the product decomposition about any origin is unique: both parts agree
    rng = random.Random(seed)
    frame = standard_frame(2)
    a = random_rational_isometry(rng, frame)
    o = random_rational_point(rng, 2)
    d = decompose(a, o)
    assert d.trans_part == vsub(a(o), o)
    about = linear_about(frame, d.ortho_part, center=o)
    assert about(o) == tuple(o)
    assert compose(translation_iso(frame, d.trans_part), about) == a


def test_left_right_multiplication_continuity(frame2):
    o = (0, 0)
    rng = random.Random(9)
    gamma = random_rational_isometry(rng, frame2)
    phi = random_rational_isometry(rng, frame2)
    ds = []
    for k in (1, 4, 16, 64):
        phik = compose(translation_iso(frame2, (Q(1, 5 * k), Q(-1, 7 * k))), phi)
        ds.append(iso_distance(o, compose(gamma, phik), compose(gamma, phi)))
    assert ds == sorted(ds, reverse=True) or max(ds) < 1e-6
    assert ds[-1] < 1e-2
