"""Differential oracle for the exact witness-size rule.

old_rational_below and old_size_cap are the float size cap the witness
search took before the exact rule (`_rational_below` and the `delta` lines
of `_pair_match_radius`), verbatim apart from their names; old_iso_distance
and old_iso_size, the d_O bodies before iso_terms, are
test_isometry_oracle's.  old_pair_size_cap and old_size_test are the exact
cap and size test on Q terms (iso_terms) that the int ones replaced,
verbatim apart from their names.  On hypothesis isometries in 1D-3D
(lattice isometries, rotations and rotoreflections over the frames of
test_isometry_oracle: standard, hexagonal, bcc and two non-diagonal ones):

- the exact cap _pair_size_cap always passes the exact test _size_cap;
- it is at least the old cap whenever the old cap passes that test (the
  old cap sometimes over-claims, which the exact test refuses);
- iso_distance equals the old bodies bitwise, also against the identity;
- _int_terms are iso_terms as int pairs, and _pair_size_cap and _size_cap
  on them give what old_pair_size_cap and old_size_test give on the Q
  terms: the same cap, and the same verdict at drawn radii, at the caps and
  at the radii where a side's sqrt p + sqrt q is exactly 1/(2 r) (both
  terms rational squares), where e = s^2 - p - q = 0 or 4pq = e^2.
"""

import math

from hypothesis import given, settings, strategies as st

from crystile.isometry import Isometry, _int_terms, identity_iso, iso_distance, iso_terms, standard_frame
from crystile.linalg import identity_mat, integral
from crystile.rational import Q
from crystile.tiling import RADIUS_CAP, _pair_size_cap, _size_cap

from conftest import isqrt_ceil
from test_isometry_oracle import FRAMES, gram_orthogonal, old_iso_distance, old_iso_size, rationals


# --- the old code, verbatim ----------------------------------------------------

def old_rational_below(x: float):
    """Exact rational strictly below the real intended by the float x."""
    return Q(math.nextafter(x, 0.0))


def old_size_cap(phi, psi, origin):
    delta = max(old_iso_size(origin, phi), old_iso_size(origin, psi))
    size_cap = RADIUS_CAP
    if delta > 0:
        size_cap = min(size_cap, old_rational_below(1.0 / (2.0 * delta)))
    return size_cap


def old_pair_size_cap(terms):
    """min(RADIUS_CAP, 2^79 / (ceil(2^80 sqrt p) + ceil(2^80 sqrt q))) over d_O's
    exact terms (p, q) of a witness pair phi, psi (terms = iso_terms of each):
    1/(2 cap) is at least sqrt p + sqrt q, by less than 2^-79, so the cap
    passes _size_cap by construction."""
    ceils = (isqrt_ceil(p * (1 << 160)) + isqrt_ceil(q * (1 << 160)) for p, q in terms)
    return min([RADIUS_CAP] + [Q(1 << 79, c) for c in ceils if c])


def old_size_test(terms, radius) -> bool:
    """Whether radius > 0 and d_O(phi, 1), d_O(psi, 1) <= s = 1/(2 radius),
    exactly, for the pair's terms (as _pair_size_cap): sqrt p + sqrt q <= s iff
    e = s^2 - p - q >= 0 and 4pq <= e^2."""
    radius = Q(radius)
    if radius <= 0:
        return False
    s2 = 1 / (4 * radius * radius)
    return all((e := s2 - p - q) >= 0 and 4 * p * q <= e * e for p, q in terms)


# --- the oracle ------------------------------------------------------------------

@st.composite
def isometries(draw, name):
    """An isometry of the named frame: a Gram-orthogonal linear part (the
    identity and -1 among them) and a rational translation."""
    frame = FRAMES[name][0]
    n = frame.dim
    neg = tuple(tuple(-x for x in row) for row in identity_mat(n))
    linear = draw(st.one_of(gram_orthogonal(name), st.just(neg), st.just(identity_mat(n))))
    return Isometry(frame, linear, draw(st.tuples(*[rationals] * n)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FRAMES)), st.data())
def test_exact_cap_passes_the_exact_test_and_is_no_lower(name, data):
    n = FRAMES[name][0].dim
    phi, psi = data.draw(isometries(name)), data.draw(isometries(name))
    o = data.draw(st.tuples(*[rationals] * n))
    terms = _int_terms(phi, *integral(o)), _int_terms(psi, *integral(o))
    cap, old = _pair_size_cap(terms), old_size_cap(phi, psi, o)
    assert 0 < cap <= RADIUS_CAP
    assert _size_cap(terms, cap)
    if _size_cap(terms, old):
        assert cap >= old
    assert iso_distance(o, phi, psi).hex() == old_iso_distance(o, phi, psi).hex()
    for iso in (phi, psi):
        assert iso_distance(o, iso, identity_iso(iso.frame)).hex() == old_iso_size(o, iso).hex()


def assert_same_size_rules(phi, psi, o, radii):
    """_int_terms are iso_terms as int pairs; the int cap and size test
    agree with the Q ones on them, at the radii and at both caps."""
    e, eo = integral(o)
    terms = _int_terms(phi, e, eo), _int_terms(psi, e, eo)
    q_terms = iso_terms(o, phi), iso_terms(o, psi)
    assert tuple((Q(*p), Q(*q)) for p, q in terms) == q_terms
    cap = _pair_size_cap(terms)
    assert cap == old_pair_size_cap(q_terms) and type(cap) is Q
    for r in [*radii, cap, old_size_cap(phi, psi, o)]:
        assert _size_cap(terms, r) is old_size_test(q_terms, r)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FRAMES)), st.data())
def test_int_size_rules_match_the_q_rules(name, data):
    n = FRAMES[name][0].dim
    phi, psi = data.draw(isometries(name)), data.draw(isometries(name))
    o = data.draw(st.tuples(*[rationals] * n))
    radii = data.draw(st.lists(st.one_of(rationals, st.integers(-2, 5)), max_size=4))
    assert_same_size_rules(phi, psi, o, radii)


@st.composite
def square_terms(draw, o):
    """x |-> D x + t on Z^n, D diagonal with entries +-1, that moves the
    origin o by a along the first axis: p = a^2, and q is 0 (D = 1) or 4
    (a reflection, or a half turn in 2D or 3D), so sqrt p + sqrt q = |a| + 0 or 2."""
    n = len(o)
    diag = draw(st.tuples(*[st.sampled_from([1, -1])] * n))
    a = draw(rationals)
    t = tuple(c + a * (i == 0) - d * c for i, (c, d) in enumerate(zip(o, diag)))
    iso = Isometry(standard_frame(n), tuple(tuple(d * (i == j) for j in range(n))
                                            for i, d in enumerate(diag)), t)
    return iso, abs(a) + (0 if all(d == 1 for d in diag) else 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_int_size_rules_match_the_q_rules_at_the_equality_edges(n, data):
    # at r = 1/(2 (sqrt p + sqrt q)) a side's size is exactly 1/(2 r): e = 0
    # when q or p is 0, else e > 0 and 4pq = e^2; just inside and outside
    # that radius the verdict flips
    o = data.draw(st.tuples(*[rationals] * n))
    (phi, size_phi), (psi, size_psi) = data.draw(square_terms(o)), data.draw(square_terms(o))
    edges = []
    for iso, size in ((phi, size_phi), (psi, size_psi)):
        if size:
            r, (p, q) = 1 / (2 * size), iso_terms(o, iso)
            e = 1 / (4 * r * r) - p - q
            assert e >= 0 and 4 * p * q == e * e and (e == 0) == (p * q == 0)
            edges.append(r)
    assert_same_size_rules(phi, psi, o, [x * f for x in edges for f in (1, Q(999, 1000), Q(1001, 1000))])
