"""Differential oracle for the exact witness-size rule.

old_rational_below and old_size_cap are the float size cap the witness
search took before the exact rule (`_rational_below` and the `delta` lines
of `_pair_match_radius`), verbatim apart from their names; old_iso_distance
and old_iso_size, the d_O bodies before iso_terms, are
test_isometry_oracle's.  On
hypothesis isometries in 1D-3D (lattice isometries, rotations and
rotoreflections over the frames of test_isometry_oracle: standard,
hexagonal, bcc and two non-diagonal ones):

- the exact cap _pair_size_cap always passes the exact test _size_cap;
- it is at least the old cap whenever the old cap passes that test (the
  old cap sometimes over-claims, which the exact test refuses);
- iso_distance equals the old bodies bitwise, also against the identity.
"""

import math

from hypothesis import given, settings, strategies as st

from crystile.isometry import Isometry, identity_iso, iso_distance, iso_terms
from crystile.linalg import identity_mat
from crystile.rational import Q
from crystile.tiling import RADIUS_CAP, _pair_size_cap, _size_cap

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
    terms = iso_terms(o, phi), iso_terms(o, psi)
    cap, old = _pair_size_cap(terms), old_size_cap(phi, psi, o)
    assert 0 < cap <= RADIUS_CAP
    assert _size_cap(terms, cap)
    if _size_cap(terms, old):
        assert cap >= old
    assert iso_distance(o, phi, psi).hex() == old_iso_distance(o, phi, psi).hex()
    for iso in (phi, psi):
        assert iso_distance(o, iso, identity_iso(iso.frame)).hex() == old_iso_size(o, iso).hex()
