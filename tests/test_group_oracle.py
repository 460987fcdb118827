"""Differential oracle for the int group kernel.

conftest.old_solve_mod_lattice is the Fraction code that solve_mod_lattice
ran before its int rewrite, verbatim: it must return the old solution, or
None with it, on random integer systems with rational right-hand sides
(passed to solve_mod_lattice as ints over their common denominator, its
solution read back as Q).

conftest.table_validate_group and table_span_seitz are the code that ran
before span_seitz returned its closure and validate_group closed its greedy
generators: the point-part product table.  On preset groups conjugated by
random rational origin shifts, and on mutants of those (one translation
perturbed, one rep dropped, a stray rep added, shape and non-integer
mutants), validate_group must accept exactly the groups the table code
accepts, with equal reps, and reject the others with the same violations;
span_seitz must return its reps on every preset's generators, shifted or
not, and every generator list it refuses stays refused.  The Fraction
validate_group and span_seitz before the int rewrite agreed with the table
code on these inputs, but for "missing point part", which the table code
reports alone, and gave way to it.

old_conjugated_rep, old_conjugacy_search and old_is_conjugate_subgroup are
the Fraction conjugation that LD and MLD ran before they went through
compose, inverse and CrystalGroup.contains, verbatim apart from their
names and the solver old_conjugacy_search calls, now old_solve_mod_lattice
(solve_mod_lattice takes ints).  On every ordered pair of same-dimension presets, and on a preset
and its image under a small unimodular basis change U (Gram U^T G U) and a
rational origin shift, conjugacy_search must return the old gamma, field
for field, or None with it, and is_conjugate_subgroup the old verdict under
the identity, gamma and gamma^-1.  A preset and its image are conjugate
both ways, with subgroup_index 1 under gamma, and is_symmorphic agrees.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from crystile import linalg as linalg_mod
from crystile.groups import (
    PRESET_NAMES,
    GroupValidationError,
    _demo3d_generators,
    _wallpaper_generators,
    conjugacy_search,
    is_conjugate_subgroup,
    is_symmorphic,
    lattice_isometries,
    preset,
    span_seitz,
    subgroup_index,
    validate_group,
)
from crystile.isometry import Frame, Isometry, identity_iso, int_inv_gram, inverse
from crystile.linalg import (
    Mat,
    identity_mat,
    integral,
    is_integral_mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    solve_mod_lattice,
    transpose,
    vadd,
    vdot,
    vsub,
)
from crystile.rational import Q, frac_part

from conftest import is_integral_vec, old_solve_mod_lattice, table_span_seitz, table_validate_group

MISSING = "closure failure: missing point part for a product"

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
    kind = draw(st.sampled_from(["none", "perturb", "drop", "stray", "shape", "non-integer"]))
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
    elif kind == "shape":
        m, v = pairs[i]
        pairs[i] = (m[:-1], v) if draw(st.booleans()) else (m, v[:-1])
    elif kind == "non-integer":
        m, v = pairs[i]
        pairs[i] = (((m[0][0] + Q(1, 2),) + m[0][1:],) + m[1:], v)
    return g.frame, pairs


def _verdict(validate, frame, pairs):
    try:
        return "accepted", validate(frame, pairs).reps
    except GroupValidationError as exc:
        return "rejected", exc.violations


@settings(max_examples=150, deadline=None)
@given(group_inputs())
def test_validate_group_matches_the_table_code(case):
    # the greedy closures report what the product table reported, alone or
    # not, violation for violation
    frame, pairs = case
    assert _verdict(validate_group, frame, pairs) == _verdict(table_validate_group, frame, pairs)


def test_missing_point_part_is_reported_alone(frame2):
    # rot90 squared is the half turn, whose translation differs, and rot90
    # cubed is missing: the Fraction pair loop reported both
    pairs = [(((0, -1), (1, 0)), (0, 0)), (((-1, 0), (0, -1)), (Q(1, 2), 0))]
    for validate in (table_validate_group, validate_group):
        with pytest.raises(GroupValidationError) as exc:
            validate(frame2, pairs)
        assert exc.value.violations == [MISSING]


def _generators(name):
    wall = _wallpaper_generators()
    return wall[name][1] if name in wall else _demo3d_generators()[name]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRESET_NAMES), st.data())
def test_span_seitz_matches_old(name, data):
    frame = preset(name).frame
    s = data.draw(st.tuples(*[rationals] * frame.dim))
    gens = _shifted([(m, tuple(map(Q, v))) for m, v in _generators(name)], s)
    assert span_seitz(frame, gens).reps == table_span_seitz(frame, gens).reps


def test_span_seitz_matches_the_table_code_on_presets():
    for name in PRESET_NAMES:
        g = preset(name)
        assert span_seitz(g.frame, _generators(name)).reps == g.reps
        assert table_span_seitz(g.frame, _generators(name)).reps == g.reps


# generator lists that table_span_seitz refuses, each with the violations
# span_seitz reports now: generators are checked one by one before the
# closure, so a violation names a generator, not a rep of the closure, and a
# clash of translations is reported once
TABLE_REFUSALS = {
    "shear": ([(((1, 1), (0, 1)), (0, 0))],
              ["generator 0: point part is not Gram-orthogonal (M^T G M != G)"]),
    "p4-and-shear": ([(((0, -1), (1, 0)), (0, 0)), (((1, 1), (0, 1)), (0, 0))],
                     ["generator 1: point part is not Gram-orthogonal (M^T G M != G)"]),
    "non-integral": ([(((Q(1, 2), 0), (0, 1)), (0, 0))], ["generator 0: non-integer point part"]),
    "order-2-oblique": ([(((1, 1), (0, -1)), (0, 0))],
                        ["generator 0: point part is not Gram-orthogonal (M^T G M != G)"]),
    "hexagonal-in-square": ([(((1, -1), (1, 0)), (0, 0))],
                            ["generator 0: point part is not Gram-orthogonal (M^T G M != G)"]),
    "short-point-part": ([(((-1, 0),), (0, 0))], ["generator 0: shape mismatch"]),
    "3x3-point-part": ([(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0))], ["generator 0: shape mismatch"]),
    "half-translation": ([(((1, 0), (0, 1)), (Q(1, 2), 0))],
                         ["duplicate point parts with different translations"]),
    "p4-third-glide": ([(((0, -1), (1, 0)), (0, 0)), (((1, 0), (0, -1)), (Q(1, 3), 0))],
                       ["duplicate point parts with different translations"]),
    "large-translation-closure": (
        [(((1, 0), (0, 1)), (Q(1, 97), 0)), (((1, 0), (0, 1)), (0, Q(1, 89)))],
        ["duplicate point parts with different translations"]),
}


@pytest.mark.parametrize("case", sorted(TABLE_REFUSALS))
def test_span_seitz_refuses_what_the_table_code_refuses(frame2, case):
    gens, violations = TABLE_REFUSALS[case]
    with pytest.raises(GroupValidationError):
        table_span_seitz(frame2, gens)
    with pytest.raises(GroupValidationError) as exc:
        span_seitz(frame2, gens)
    assert exc.value.violations == violations


def test_span_seitz_refuses_a_translation_clash_at_once(frame2, count_calls):
    # the first generator, (1, (1/97, 0)), gives the identity's point part a
    # second translation before any product (the breadth-first closure
    # met it at its first product); the closure built 1,025 elements before
    # it refused this input as exceeding MAX_GROUP_ORDER
    import crystile.groups as groups_mod

    products = count_calls(groups_mod, "_int_seitz_translation")
    with pytest.raises(GroupValidationError):
        span_seitz(frame2, TABLE_REFUSALS["large-translation-closure"][0])
    assert len(products) == 0


def test_span_seitz_refuses_a_short_translation(frame2):
    # the table code zipped a 1-entry translation against the 2 rows of M
    # and accepted p2; span_seitz checks each generator's shape first
    gens = [(((-1, 0), (0, -1)), (0,))]
    assert table_span_seitz(frame2, gens).reps == preset("p2").reps
    with pytest.raises(GroupValidationError) as exc:
        span_seitz(frame2, gens)
    assert exc.value.violations == ["generator 0: shape mismatch"]


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
    sol, old = solve_mod_lattice(a, *integral(b)), old_solve_mod_lattice(a, b)
    assert old is None if sol is None else tuple(Q(x, sol[0]) for x in sol[1]) == old


# --- conjugacy: the Fraction code before compose/inverse/contains -------------

def old_conjugated_rep(u: Mat, uinv: Mat, m: Mat, g2):
    """(M', w) for M' = U M U^-1 and g2's rep (M', w), or None if it has none."""
    mprime = mat_mul(u, mat_mul(m, uinv))
    if not is_integral_mat(mprime):
        return None
    w = dict(g2.reps).get(mprime)
    return None if w is None else (mprime, w)


def old_conjugacy_search(g1, g2):
    """An isometry gamma with gamma g1 gamma^-1 == g2 as sets, or None.

    gamma maps g1-frame coordinates to g2-frame coordinates; its linear
    part is an isometric lattice identification, and its translation part
    solves U v_M + (1 - U M U^-1) c = w (mod Z^n) for every rep.
    """
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    if g1.order() != g2.order():
        return None
    sig = lambda g: sorted((mat_det(m), sum(m[i][i] for i in range(g.dim))) for m in g.point_parts())
    if sig(g1) != sig(g2):
        return None
    n = g1.dim
    for u in lattice_isometries(g1.frame, g2.frame):
        uinv = mat_inv(u)
        rows = []
        rhs = []
        for m, v in g1.reps:
            found = old_conjugated_rep(u, uinv, m, g2)
            if found is None:
                break
            mprime, w = found
            rows += mat_sub(identity_mat(n), mprime)
            rhs += (wi - vdot(ui, v) for wi, ui in zip(w, u))
        else:
            c = old_solve_mod_lattice(tuple(rows), tuple(rhs))
            if c is not None:
                c = tuple(frac_part(x) for x in c)
                return Isometry(g1.frame, u, c, target=g2.frame)
    return None


def old_is_conjugate_subgroup(g1, g2, gamma: Isometry) -> bool:
    """Whether gamma g1 gamma^-1 is contained in g2.

    Checked on lattice generators plus all reps, which suffices by closure.
    """
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    if gamma.frame != g1.frame or gamma.target != g2.frame:
        raise ValueError("gamma does not map between the group frames")
    u = gamma.linear
    if not is_integral_mat(u):
        return False  # some conjugated lattice translation is not in g2
    uinv = mat_inv(u)
    c = gamma.translation
    n = g1.dim
    for m, v in g1.reps:
        found = old_conjugated_rep(u, uinv, m, g2)
        if found is None:
            return False
        mprime, w = found
        t = vadd(mat_vec(u, v), mat_vec(mat_sub(identity_mat(n), mprime), c))
        if not is_integral_vec(vsub(t, w)):
            return False
    return True


def _fields(gamma):
    return None if gamma is None else (
        gamma.linear, gamma.translation, gamma.frame, gamma.target, gamma._ints)


def _assert_conjugation_matches_old(g1, g2):
    """conjugacy_search(g1, g2) and the is_conjugate_subgroup verdicts
    under the identity (on one frame), gamma and gamma^-1 match the old code;
    returns gamma."""
    gamma = conjugacy_search(g1, g2)
    assert _fields(gamma) == _fields(old_conjugacy_search(g1, g2))
    checks = [(g1, g2, identity_iso(g1.frame))] if g1.frame == g2.frame else []
    if gamma is not None:
        checks += [(g1, g2, gamma), (g2, g1, inverse(gamma))]
    for a, b, iso in checks:
        assert is_conjugate_subgroup(a, b, iso) == old_is_conjugate_subgroup(a, b, iso)
    return gamma


def _same_dimension_pairs():
    groups = [preset(name) for name in PRESET_NAMES]
    return [(a, b) for a in groups for b in groups if a.dim == b.dim]


def test_conjugacy_matches_old_on_preset_pairs():
    pairs = _same_dimension_pairs()
    found = [_assert_conjugation_matches_old(a, b) for a, b in pairs]
    assert len(pairs) == 298 and sum(g is not None for g in found) == 20


def test_conjugacy_makes_no_mat_inv_call(count_calls):
    # compose and inverse invert on the frames' int Grams (int_inv_gram),
    # so once those are formed the conjugation runs no elimination: no
    # mat_inv call wherever a crystile module binds that name
    pairs = _same_dimension_pairs()
    for a, _ in pairs:
        int_inv_gram(a.frame)
    calls = count_calls(linalg_mod, "mat_inv")
    for a, b in pairs:
        gamma = conjugacy_search(a, b)
        if a.frame == b.frame:
            is_conjugate_subgroup(a, b, identity_iso(a.frame))
        if gamma is not None:
            assert is_conjugate_subgroup(a, b, gamma) and is_conjugate_subgroup(b, a, inverse(gamma))
    assert calls == []


@st.composite
def conjugated_presets(draw):
    """(g, h): a preset g and h = gamma^-1 g gamma for gamma = (U, s), U a
    product of elementary shears and a sign flip (det +-1), over the frame
    with Gram U^T G U."""
    g = preset(draw(st.sampled_from(PRESET_NAMES)))
    n = g.dim
    u = identity_mat(n)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        e = tuple(tuple(int(a == b) + (draw(st.sampled_from((-1, 1))) if (a, b) == (i, j) else 0)
                        for b in range(n)) for a in range(n))
        u = mat_mul(u, e)
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        u = tuple(tuple(-x if b == k else x for b, x in enumerate(row)) for row in u)
    s = draw(st.tuples(*[rationals] * n))
    ui = mat_inv(u)
    frame = Frame(n, mat_mul(transpose(u), mat_mul(g.frame.gram, u)))
    # gamma^-1 (M, v) gamma for gamma(x) = U x + s: (U^-1 M U, U^-1 (M s + v - s))
    pairs = [(mat_mul(ui, mat_mul(m, u)), mat_vec(ui, vsub(vadd(mat_vec(m, s), v), s)))
             for m, v in g.reps]
    return g, validate_group(frame, pairs)


@settings(max_examples=100, deadline=None)
@given(conjugated_presets())
def test_conjugacy_matches_old_on_conjugated_presets(case):
    g, h = case
    assert (is_symmorphic(g) is None) == (is_symmorphic(h) is None)
    for a, b in ((g, h), (h, g)):
        gamma = _assert_conjugation_matches_old(a, b)
        assert gamma is not None
        assert subgroup_index(a, b, gamma) == 1
