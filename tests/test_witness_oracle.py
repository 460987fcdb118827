"""Differential oracle for the distance-witness search.

`cap_pair_match_radius` is the search that read one patch pair at the cap
for every pair, kept verbatim (apart from its name); the search that first
compares the tiles holding the origin must return the same (radius, flag),
with two ball queries when they differ and four when they agree, and every
distance bound replayed from the old search's results must come out the
same.  Both take the pair's size cap as an argument, as _pair_match_radius
does.  The 16-round bisection that rebuilt both transformed patches for
every radius agreed with it on the quarter squares, the shift chain and the
shifted p2 Voronoi tiling below and gave way to it; those tests keep their
names.  `old_transformed_patch` is the transformed patch that the pulled-back
keys replaced, built through the public patch and transform.

`old_pulled_back` is the pulled-back patch that formed the centre
iso^-1(O) and every distance as Q, verbatim apart from its name and the
call of the ball query, which it makes with the Q centre and radius it was
given (q_centre_tiles_near).  The cap-only search reads it, and the int
_pulled_back must give the same keys and distances on hypothesis-drawn
isometries, origins and radii (r2 = 0 among them).
"""

import random
from functools import lru_cache
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from crystile import tiling as tiling_mod
from crystile.groups import generic_point, preset
from crystile.isometry import (
    Isometry,
    identity_iso,
    inverse,
    standard_frame,
    translation_iso,
)
from crystile.linalg import int_mat_vec, integral, vec
from crystile.polytope import ConvexPolytope, sq_distance_point
from crystile.rational import Q, ZERO, rat
from crystile.tiling import (
    PATCH_ENUM_RADIUS,
    Patch,
    _image_keys,
    _int_image,
    _int_terms,
    _key,
    _normalizes_lattice,
    _pair_match_radius,
    _pair_size_cap,
    _preimage,
    _pulled_back,
    _tiles_near,
    default_candidates,
    distance_upper_bound,
    patch,
    periodic_tiling,
    transform_tiling,
    verify_witness,
)
from crystile.voronoi import voronoi_tiling

from conftest import isqrt_ceil, random_rational_isometry, random_rational_point, rational_givens


# --- the transformed patch ------------------------------------------------------

def old_transformed_patch(tiling, iso, center, r2) -> Patch:
    """Patch of the transformed tiling iso(T) around `center`, computed via
    the pullback identity [phi T]_{B_r(c)} = phi([T]_{B_r(phi^-1 c)})."""
    center = vec(center)
    pre = inverse(iso)(center)
    base = patch(tiling, pre, r2)
    tiles = tuple(sorted((t.transform(iso) for t in base.tiles), key=lambda t: t.vertices))
    return Patch(tiles=tiles, center=center, sq_radius=rat(r2))


def size_cap(phi, psi, origin):
    """The pair's exact size cap, as distance_upper_bound computes it."""
    o = integral(vec(origin))
    return _pair_size_cap((_int_terms(phi, *o), _int_terms(psi, *o)))


def pulled_back(tiling, iso, center, r2):
    """_pulled_back about iso(c) for a rational centre c within a rational
    r2, its distances as Q."""
    r2 = Q(r2)
    image, centre = _int_image(tiling, iso), _preimage(iso, *integral(vec(center)))
    near = _pulled_back(tiling, image, centre, (r2.numerator, r2.denominator))
    return {key: Q(*d2) for key, d2 in near.items()}


# --- the Q pulled-back patch --------------------------------------------------------

def q_centre_tiles_near(tiling, center, r2):
    """The ball query about a Q centre within a Q r2, as it was called."""
    return _tiles_near(tiling, integral(center), (r2.numerator, r2.denominator))


def old_pulled_back(tiling, iso, center, r2) -> dict:
    """{_key of the vertex tuple: exact squared distance} of the tiles of
    iso(T) within r2 (>= 0) of center: they are iso(t + k) = iso(t) + L k for
    the tiles t + k of T within r2 of iso^-1(center), L the linear part of
    iso.  Each cell tile's image is sorted once, as ints over one
    denominator; a translate keeps that order and adds S k to every vertex."""
    d, s, images = _int_image(tiling, iso)
    flat = {t: (tuple(c for p in pts for c in p), len(pts))
            for t, pts in zip(tiling.cell_tiles, images)}
    out = {}
    for d2, t, k in q_centre_tiles_near(tiling, inverse(iso)(center), r2):
        base, m = flat[t]
        shift = int_mat_vec(s, k)
        out[_key(d, map(add, base, shift * m))] = Q(*d2)
    return out


# --- fixtures ------------------------------------------------------------------

F2 = standard_frame(2)
H = Q(1, 2)


def square(x, y):
    return ConvexPolytope(F2, [(x, y), (x + H, y), (x, y + H), (x + H, y + H)])


def triangles(*tris):
    return [ConvexPolytope(F2, t) for t in tris]


# the unit square cut into four half-size squares (A); A with its top-right
# quarter cut along (1/2,1/2)-(1,1) (B) or along (1,1/2)-(1/2,1) (C)
QUARTERS = [square(0, 0), square(H, 0), square(0, H)]
FIXTURES = {
    "A": periodic_tiling(F2, QUARTERS + [square(H, H)]),
    "B": periodic_tiling(F2, QUARTERS + triangles([(H, H), (1, H), (1, 1)],
                                                  [(H, H), (1, 1), (H, 1)])),
    "C": periodic_tiling(F2, QUARTERS + triangles([(H, H), (1, H), (H, 1)],
                                                  [(1, H), (1, 1), (H, 1)])),
}
SQUARE = periodic_tiling(F2, [ConvexPolytope(F2, [(0, 0), (1, 0), (0, 1), (1, 1)])])


def summary(bound):
    w = bound.witness
    return bound.upper, None if w is None else (w[2], w[3])


@pytest.fixture(scope="module")
def shared_queries():
    """Memoized ball queries, which are pure: the fixture pairs share their
    tilings, origins and candidate pairs, so most queries repeat."""
    real = tiling_mod._tiles_near
    queries = lru_cache(maxsize=None)(lambda *a: tuple(real(*a)))
    yield lambda *a: iter(queries(*a))
    queries.cache_clear()


def assert_same_witnesses(t1, t2, origins, monkeypatch, queries):
    # every candidate pair of the bound runs both searches; the bound is
    # then replayed from the cap-only search's results and must come out the same
    for origin in origins:
        monkeypatch.setattr(tiling_mod, "_tiles_near", queries)
        old_results = []

        def both(*args):
            new, old = _pair_match_radius(*args), cap_pair_match_radius(*args)
            assert new == old and type(new[0]) is type(old[0])
            old_results.append(old)
            return new

        monkeypatch.setattr(tiling_mod, "_pair_match_radius", both)
        bound = distance_upper_bound(origin, t1, t2)
        replay = iter(old_results)
        monkeypatch.setattr(tiling_mod, "_pair_match_radius", lambda *a: next(replay))
        assert summary(bound) == summary(distance_upper_bound(origin, t1, t2))
        monkeypatch.undo()
        assert verify_witness(bound)


ORIGINS = [random_rational_point(random.Random(12), 2, span=4) for _ in range(12)]


@pytest.mark.parametrize("pair", ["AB", "AC", "BC"])
def test_witness_matches_bisection_on_quarter_squares(pair, monkeypatch, shared_queries):
    assert_same_witnesses(FIXTURES[pair[0]], FIXTURES[pair[1]], ORIGINS, monkeypatch,
                          shared_queries)


def test_witness_matches_bisection_on_shift_chain(monkeypatch, shared_queries):
    prev = SQUARE
    for k in range(1, 4):
        nxt = transform_tiling(prev, translation_iso(F2, (Q(k, 37), Q(1, 53 + k))))
        assert_same_witnesses(prev, nxt, [(0, 0), (Q(1, 3), Q(-1, 5))], monkeypatch,
                              shared_queries)
        prev = nxt


def test_witness_matches_bisection_on_shifted_p2_voronoi(monkeypatch, shared_queries):
    g = preset("p2")
    v = voronoi_tiling(g, generic_point(g, 0))
    w = transform_tiling(v, translation_iso(v.frame, (Q(1, 29), Q(-1, 31))))
    assert_same_witnesses(v, w, [(0, 0), (Q(1, 3), Q(1, 5))], monkeypatch, shared_queries)


def int_key(tile):
    """The integer key of a tile's vertex tuple (tiling._key)."""
    d, (pts,) = tiling_mod._int_vertices([tile])
    return tiling_mod._key(d, (c for p in pts for c in p))


def test_pulled_back_keys_match_transformed_patches():
    # random rational rotations and reflections, most of which do not
    # normalize Z^2, exercise the linear part that moves the tile images;
    # each distance must be the transformed tile's distance to the center,
    # and each key must decode to the transformed tile's vertex tuple
    rng = random.Random(9)
    tiling = FIXTURES["B"]
    for _ in range(8):
        iso = random_rational_isometry(rng, F2, span=3)
        center = random_rational_point(rng, 2, span=3)
        for r2 in (Q(1, 9), Q(2)):
            old = old_transformed_patch(tiling, iso, center, r2)
            expected = {int_key(t): sq_distance_point(t, center) for t in old.tiles}
            got = pulled_back(tiling, iso, center, r2)
            assert got == expected == old_pulled_back(tiling, iso, vec(center), r2)
            decoded = {tuple(tuple(Q(c, k[0]) for c in k[i:i + 2]) for i in range(1, len(k), 2))
                       for k in got}
            assert decoded == old.keys()


def test_non_global_pair_runs_two_ball_queries(count_calls):
    # the bisection built 2 patches at the cap and 2 more for each of its
    # 16 rounds (34 in all); the tiles of A and B that hold (1/4, 1/4) are
    # the same, so the search reads that pair at r2 = 0 and then one pair
    # at the cap: 4 ball queries
    calls = count_calls(tiling_mod, "_tiles_near")
    a, b = FIXTURES["A"], FIXTURES["B"]
    phi, psi = default_candidates(a, b, (0, 0))[0]
    origin = (Q(1, 4), Q(1, 4))
    radius, glob = _pair_match_radius(a, phi, b, psi, origin, size_cap(phi, psi, origin))
    assert (radius, glob) == (Q(181, 512), False)
    assert len(calls) == 4


# --- the cap-only search ---------------------------------------------------------

def cap_pair_match_radius(t1, phi, t2, psi, origin, size_cap):
    """(largest certified radius on the grid cap j / 2^16, global flag) for
    one witness pair.  The radius is at most the pair's size cap; a global
    flag marks exact equality of the transformed tilings, which certifies
    patch equality at every radius."""
    if _normalizes_lattice(phi) and _normalizes_lattice(psi):
        # safe to compare the transformed tilings globally: no basis
        # re-expression is involved, so equality is equality in the plane
        if _image_keys(_int_image(t1, phi)) == _image_keys(_int_image(t2, psi)):
            return size_cap, True
    cap = min(size_cap, PATCH_ENUM_RADIUS)
    a = old_pulled_back(t1, phi, origin, cap * cap)
    b = old_pulled_back(t2, psi, origin, cap * cap)
    diff = a.keys() ^ b.keys()
    if not diff:
        return cap, False
    # the patches agree at radius r exactly when r^2 < m (m <= cap^2), so the
    # largest such r on the grid is cap j / 2^16 with j^2 < m 2^32 / cap^2
    m = min(d for key, d in (a | b).items() if key in diff)
    j = max(isqrt_ceil(m * (1 << 32) / (cap * cap)) - 1, 0)
    return cap * j / (1 << 16), False


def same_as_cap_search(t1, phi, t2, psi, origin):
    """The pair's (radius, flag), checked equal to the cap-only search's in
    value and type, and the number of ball queries the search took."""
    calls = []
    real = tiling_mod._tiles_near
    cap = size_cap(phi, psi, origin)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tiling_mod, "_tiles_near", lambda *a: calls.append(a) or real(*a))
        new = _pair_match_radius(t1, phi, t2, psi, origin, cap)
    old = cap_pair_match_radius(t1, phi, t2, psi, origin, cap)
    assert new == old and type(new[0]) is type(old[0])
    return new, len(calls)


# near-identity rotation about the origin: cos = 1599/1601 (tan of the half
# angle 1/40); it does not normalize Z^2, and it maps T to the same tiling
# on both sides, so the patches agree out to the cap
NEAR_ONE = Isometry(F2, rational_givens(2, 0, 1, Q(1, 40)), (0, 0))


def pair_case(name):
    """(t1, phi, t2, psi, origin) of a named witness pair."""
    one = identity_iso(F2)
    if name == "shifted-squares":
        a, b = (transform_tiling(SQUARE, translation_iso(F2, tau))
                for tau in [(Q(1, 10), Q(1, 7)), (Q(-1, 5), Q(1, 3))])
        return a, one, b, one, (0, 0)
    if name == "quarters-AB":
        return FIXTURES["A"], one, FIXTURES["B"], one, (Q(1, 4), Q(1, 4))
    if name == "near-identity":
        return SQUARE, NEAR_ONE, SQUARE, NEAR_ONE, (0, 0)
    g = preset("p2")
    v = voronoi_tiling(g, generic_point(g, 0))
    w = transform_tiling(v, translation_iso(v.frame, (Q(1, 29), Q(-1, 31))))
    return v, one, w, one, (Q(1, 3), Q(1, 5))


@pytest.mark.parametrize("name, expected, queries", [
    ("shifted-squares", (ZERO, False), 2),    # the centre already differs
    ("quarters-AB", (Q(181, 512), False), 4),  # falls through to the cap
    ("near-identity", (Q(8), False), 4),      # agrees out to the cap
    ("p2-voronoi", (ZERO, False), 2),
])
def test_centre_first_search_matches_cap_search(name, expected, queries):
    assert same_as_cap_search(*pair_case(name)) == (expected, queries)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FIXTURES) + ["square"]), st.integers(0, 10**6),
       st.sampled_from(["same", "to B", "unrelated"]))
def test_centre_first_search_matches_cap_search_at_random_isometries(name, seed, kind):
    # phi on T against phi on T agrees everywhere (the search reads the cap);
    # against phi on B it differs at the centre or only farther out; against
    # an unrelated psi on B it mostly differs at the centre
    rng = random.Random(seed)
    t1 = SQUARE if name == "square" else FIXTURES[name]
    phi = random_rational_isometry(rng, F2, span=3)
    origin = random_rational_point(rng, 2, span=3)
    t2, psi = (t1, phi) if kind == "same" else (FIXTURES["B"], phi)
    if kind == "unrelated":
        psi = random_rational_isometry(rng, F2, span=3)
    (radius, glob), queries = same_as_cap_search(t1, phi, t2, psi, origin)
    # the global test needs no ball query; 2 queries means the centre differs
    assert queries == 0 if glob else queries == 4 or (queries == 2 and radius == 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIXTURES) + ["square"]), st.integers(0, 10**6),
       st.sampled_from([ZERO, Q(1, 50), Q(1, 3), Q(2), Q(9, 2)]))
def test_int_pulled_back_matches_the_q_pulled_back(name, seed, r2):
    # rotations, reflections and shifts that mostly do not normalize Z^2,
    # about origins whose pulled-back centres have large denominators
    rng = random.Random(seed)
    tiling = SQUARE if name == "square" else FIXTURES[name]
    iso = random_rational_isometry(rng, F2, span=3)
    origin = random_rational_point(rng, 2, span=3)
    assert pulled_back(tiling, iso, origin, r2) == old_pulled_back(tiling, iso, origin, r2)
