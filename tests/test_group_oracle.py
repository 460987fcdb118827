"""Differential oracle for the int group kernel.

conftest.old_validate_group, old_span_seitz and old_solve_mod_lattice are
the Fraction code that validate_group, span_seitz and solve_mod_lattice ran
before their int rewrite, verbatim.  On preset groups conjugated by random
rational origin shifts, and on mutants of those (one translation perturbed,
one rep dropped, a stray rep added), the new code must accept exactly the
groups the old code accepts, with equal reps, and reject the others with
the same violations.  The one documented difference: when the point parts
are not closed, "missing point part" is reported alone, without the
translation check the old pair loop also ran.  solve_mod_lattice must
return the old solution, or None with it, on random integer systems with
rational right-hand sides.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from crystile.groups import (
    PRESET_NAMES,
    GroupValidationError,
    _demo3d_generators,
    _wallpaper_generators,
    lattice_isometries,
    preset,
    span_seitz,
    validate_group,
)
from crystile.linalg import identity_mat, mat_sub, mat_vec, solve_mod_lattice, vadd, vsub
from crystile.rational import Q

from conftest import old_solve_mod_lattice, old_span_seitz, old_validate_group

MISSING = "closure failure: missing point part for a product"
DIFFERS = "closure failure: product translation differs mod lattice"

rationals = st.builds(Q, st.integers(-40, 40),
                      st.one_of(st.integers(1, 12), st.integers(1, 10 ** 6)))


@lru_cache(maxsize=None)
def _stray_point_parts(frame):
    """Every point part a stray rep may take: the lattice isometries of the
    frame and one shear, which is not Gram-orthogonal."""
    n = frame.dim
    shear = tuple(tuple(1 if i == j or (i, j) == (0, n - 1) else 0 for j in range(n))
                  for i in range(n))
    return tuple(lattice_isometries(frame, frame)) + (shear,)


def _shifted(pairs, s):
    """The Seitz pairs of the group conjugated by the origin shift s."""
    return [(m, vadd(vsub(s, mat_vec(m, s)), v)) for m, v in pairs]


@st.composite
def group_inputs(draw):
    """(frame, Seitz pairs): a shifted preset, reordered, perhaps mutated."""
    g = preset(draw(st.sampled_from(PRESET_NAMES)))
    n = g.dim
    pairs = list(draw(st.permutations(_shifted(g.reps, draw(st.tuples(*[rationals] * n))))))
    kind = draw(st.sampled_from(["none", "perturb", "drop", "stray"]))
    i = draw(st.integers(0, len(pairs) - 1))
    if kind == "perturb":
        m, v = pairs[i]
        k = draw(st.integers(0, n - 1))
        r = draw(rationals)
        pairs[i] = (m, tuple(x + r if j == k else x for j, x in enumerate(v)))
    elif kind == "drop":
        del pairs[i]
    elif kind == "stray":
        m = draw(st.sampled_from(_stray_point_parts(g.frame)))
        pairs.insert(i, (m, draw(st.tuples(*[rationals] * n))))
    return g.frame, pairs


def _verdict(validate, frame, pairs):
    try:
        return "accepted", validate(frame, pairs).reps
    except GroupValidationError as exc:
        return "rejected", exc.violations


@settings(max_examples=150, deadline=None)
@given(group_inputs())
def test_validate_group_matches_old(case):
    frame, pairs = case
    expected = _verdict(old_validate_group, frame, pairs)
    if expected[0] == "rejected" and MISSING in expected[1]:
        expected = ("rejected", [MISSING])
    assert _verdict(validate_group, frame, pairs) == expected


def test_missing_point_part_is_reported_alone(frame2):
    # rot90 squared is the half turn, whose translation differs, and rot90
    # cubed is missing: the old pair loop reported both
    pairs = [(((0, -1), (1, 0)), (0, 0)), (((-1, 0), (0, -1)), (Q(1, 2), 0))]
    with pytest.raises(GroupValidationError) as old:
        old_validate_group(frame2, pairs)
    assert old.value.violations == [MISSING, DIFFERS]
    with pytest.raises(GroupValidationError) as new:
        validate_group(frame2, pairs)
    assert new.value.violations == [MISSING]


def _generators(name):
    wall = _wallpaper_generators()
    return wall[name][1] if name in wall else _demo3d_generators()[name]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRESET_NAMES), st.data())
def test_span_seitz_matches_old(name, data):
    frame = preset(name).frame
    s = data.draw(st.tuples(*[rationals] * frame.dim))
    gens = _shifted([(m, tuple(map(Q, v))) for m, v in _generators(name)], s)
    assert span_seitz(frame, gens).reps == old_span_seitz(frame, gens).reps


@st.composite
def congruence_systems(draw):
    """(A, b): a random integer A, or the stacked M - 1 of a preset's point
    parts as is_symmorphic builds it, and a rational b."""
    if draw(st.booleans()):
        ncols = draw(st.integers(1, 4))
        rows = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * ncols), min_size=1, max_size=10))
    else:
        g = preset(draw(st.sampled_from(PRESET_NAMES)))
        n = g.dim
        rows = [row for m, _ in g.reps for row in mat_sub(m, identity_mat(n))]
    a = tuple(tuple(Q(x) for x in row) for row in rows)
    b = tuple(draw(rationals) for _ in rows)
    return a, b


@settings(max_examples=300, deadline=None)
@given(congruence_systems())
def test_solve_mod_lattice_matches_old(system):
    a, b = system
    assert solve_mod_lattice(a, b) == old_solve_mod_lattice(a, b)
