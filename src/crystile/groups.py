"""Crystallographic subgroups of Isom(E^n) in lattice-adapted coordinates.

Convention: the group's translation lattice IS the integer span of the
frame basis, so the lattice never appears explicitly.  A group is stored
as its frame plus one int Seitz pair (M, t) per point-group element: M an
integer Gram-orthogonal matrix and t = d v for v in [0,1)^n over the least
common denominator d.  The full group is {x |-> M x + t / d + k, k in Z^n}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .rational import Q, rat, frac_part, isqrt_ceil_ratio
from .linalg import (
    Mat,
    Vec,
    _reduced,
    enumerate_box,
    identity_mat,
    int_dot,
    int_mat_mul,
    int_mat_vec,
    integral,
    integral_rows,
    is_integral_mat,
    mat,
    mat_det,
    mat_sub,
    solve_mod_lattice,
    transpose,
    vec,
    zero_vec,
)
from .isometry import (Frame, Isometry, _inv_gram_diag, compose, hexagonal_frame, identity_iso,
                       int_gram, int_inv_gram, inverse, is_gram_orthogonal, standard_frame)


class GroupValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("group validation failed: " + "; ".join(self.violations))


def _int_seitz_translation(m1, t1, t2, d):
    """(M1 t2 + t1) mod d: the translation over the denominator d of the
    Seitz product (M1, t1 / d)(M2, t2 / d), whose point part is M1 M2."""
    return tuple((int_dot(row, t2) + x) % d for row, x in zip(m1, t1))


@dataclass(frozen=True, init=False)
class CrystalGroup:
    """The group of the module docstring, stored as frame and _ints = (d,
    pairs), its int Seitz pairs (M, t) in sorted order: _of_ints takes them,
    this constructor makes them of reps.  Equality and hashing read those
    two (name is a label); reps, the pairs (M, t / d), is formed when read."""

    frame: Frame
    _ints: tuple
    name: str = field(default=None, compare=False)

    def __init__(self, frame: Frame, reps, name: str = None):
        d, ts = integral_rows([vec(v) for _, v in reps])
        pairs = sorted(zip((tuple(tuple(map(int, r)) for r in m) for m, _ in reps), ts))
        self.__dict__.update(frame=frame, name=name, _ints=(d, tuple(pairs)))

    @classmethod
    def _of_ints(cls, frame: Frame, d, pairs, name: str = None) -> "CrystalGroup":
        """The group of the int Seitz pairs (M, t), 0 <= t < d, d reduced."""
        ms, ts = zip(*sorted(pairs))
        group = object.__new__(cls)
        d, ts = _reduced(d, ts)
        group.__dict__.update(frame=frame, name=name, _ints=(d, tuple(zip(ms, ts))))
        return group

    @cached_property
    def reps(self) -> tuple:
        d, pairs = self._ints
        return tuple((m, tuple(Q(x, d) for x in t)) for m, t in pairs)

    @cached_property
    def _translations(self) -> dict:
        return dict(self._ints[1])

    @property
    def dim(self) -> int:
        return self.frame.dim

    def point_parts(self):
        return tuple(m for m, _ in self._ints[1])

    def order(self) -> int:
        """Point-group order."""
        return len(self._ints[1])

    def rep_for(self, m: Mat):
        """The int translation t = d v of the rep with point part m, or None."""
        return self._translations.get(m)

    def element(self, m: Mat) -> Isometry:
        """The rep with point part m as an isometry, x |-> (d M x + t) / d."""
        d, t = self._ints[0], self.rep_for(m)
        return Isometry._of_ints(self.frame, d, tuple(tuple(d * x for x in r) for r in m), t, self.frame)

    def contains(self, iso: Isometry) -> bool:
        """Exact membership of an isometry of the group's frame."""
        m, a, b = iso._ints
        if iso.frame != self.frame or iso.target != self.frame or any(x % m for r in a for x in r):
            return False
        t, d = self.rep_for(tuple(tuple(x // m for x in r) for r in a)), self._ints[0]
        return t is not None and all((y * d - x * m) % (m * d) == 0 for y, x in zip(b, t))


def _canon_pairs(frame: Frame, pairs, label: str) -> list:
    """The Seitz pairs (M, v), M int and v in [0,1)^n, each checked for its
    shape, an integer M and Gram-orthogonality M^T (E G) M == E G on the
    frame's int_gram (isometry.is_gram_orthogonal, the rule Isometry uses;
    det M = +-1 follows).  Any violation, "<label> <index>: ...", raises."""
    n = frame.dim
    g = int_gram(frame)
    violations, canon = [], []
    for idx, (m, v) in enumerate(pairs):
        m, v = mat(m), vec(v)
        if len(m) != n or any(len(r) != n for r in m) or len(v) != n:
            violations.append(f"{label} {idx}: shape mismatch")
            continue
        if not is_integral_mat(m):
            violations.append(f"{label} {idx}: non-integer point part")
            continue
        m = tuple(tuple(map(int, r)) for r in m)
        if not is_gram_orthogonal(1, m, g, g):
            violations.append(f"{label} {idx}: point part is not Gram-orthogonal (M^T G M != G)")
            continue
        canon.append((m, tuple(frac_part(x) for x in v)))
    if violations:
        raise GroupValidationError(violations)
    return canon


def validate_group(frame: Frame, seitz_pairs, name: str = None) -> CrystalGroup:
    """Canonicalize and check a group description; raises GroupValidationError.

    The checks run in this order, each on ints, and a failing stage raises
    with its violations before the next one runs:

    1. per rep, those of _canon_pairs;
    2. the identity is present and no point part occurs twice;
    3. the point parts are closed.  Generators are taken greedily, as Aut
       takes them (tiling.automorphism_group_with_embedding): each rep whose
       point part the closure of the earlier generators' point parts lacks
       (_int_extend), so there are at most log2 |P|.  A closure with a
       point part the reps lack fails alone ("missing point part");
    4. closure modulo the lattice: every translation of the generators'
       closure lies in (1/d) Z^n for the lcm d of their translation
       denominators, so a rep whose denominator does not divide d fails at
       once; else the int reps over d must be that closure (_int_closure).

    The full-rank lattice condition holds by the basis convention and the
    frame's positive-definiteness check.
    """
    n = frame.dim
    canon = _canon_pairs(frame, seitz_pairs, "rep")
    violations = []
    ident = (tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), (0,) * n)
    if ident not in canon:
        if any(m == ident[0] for m, _ in canon):
            violations.append("pure translation outside the lattice (identity rep has nonzero part)")
        else:
            canon.append(ident)
    seen = {}
    for m, v in canon:
        if m in seen and seen[m] != v:
            violations.append("duplicate point parts with different translations")
        seen[m] = v
    if violations:
        raise GroupValidationError(violations)

    gens, closed = [], _int_closure(n, 1, [])
    for m in sorted(seen):
        if m not in closed:
            gens.append((m, (0,) * n))
            _int_extend(closed, gens, 1)
            if not closed.keys() <= seen.keys():
                raise GroupValidationError(["closure failure: missing point part for a product"])
    differs = ["closure failure: product translation differs mod lattice"]
    d = math.lcm(*(x.denominator for m, _ in gens for x in seen[m]))
    if any(d % x.denominator for v in seen.values() for x in v):
        raise GroupValidationError(differs)
    ints = {m: integral(v, d)[1] for m, v in seen.items()}
    try:
        elems = _int_closure(n, d, [(m, ints[m]) for m, _ in gens])
    except GroupValidationError:  # a point part with two translations
        elems = {}
    if elems != ints:
        raise GroupValidationError(differs)
    return CrystalGroup._of_ints(frame, d, ints.items(), name)


# Largest closure _int_extend builds: crystallographic point groups have
# order at most 48, so a closure past this cap is non-crystallographic input.
MAX_GROUP_ORDER = 1024


def span_seitz(frame: Frame, generators, name: str = None) -> CrystalGroup:
    """The group the Seitz pairs generators generate mod the lattice: the
    generators pass _canon_pairs, and their closure (_int_closure, on int
    pairs over the lcm d of their translation denominators) is a group by
    construction, refused as soon as it gives a point part two translations.
    """
    gens = _canon_pairs(frame, generators, "generator")
    d, ts = integral_rows([v for _, v in gens])
    elems = _int_closure(frame.dim, d, list(zip((m for m, _ in gens), ts)))
    return CrystalGroup._of_ints(frame, d, elems.items(), name)


def _int_closure(n, d, gens) -> dict:
    """The int Seitz pairs {M: t}, t = d v mod d, that the int pairs gens
    over the denominator d generate mod the lattice: the identity, grown by
    one generator at a time (_int_extend)."""
    elems = {tuple(tuple(int(i == j) for j in range(n)) for i in range(n)): (0,) * n}
    for i in range(len(gens)):
        _int_extend(elems, gens[:i + 1], d)
    return elems


def _int_extend(elems: dict, gens, d) -> None:
    """Grow elems, the int Seitz pairs {M: t} of the group H that gens[:-1]
    generate mod the lattice, in place to the group of gens (Dimino's
    algorithm; G. Butler, Fundamental Algorithms for Permutation Groups,
    LNCS 559, 1991): the right cosets H r, each formed once from H, of
    gens[-1] and of each new rep times a generator, which are closed under
    the generators.  A point part met with a second translation is refused
    at once (Aut never meets one), a closure past MAX_GROUP_ORDER as
    non-crystallographic."""
    old = list(elems.items())
    queue = [gens[-1]]
    for m, t in queue:
        if m in elems:
            if elems[m] != t:
                raise GroupValidationError(["duplicate point parts with different translations"])
            continue
        elems.update((int_mat_mul(m1, m), _int_seitz_translation(m1, t1, t, d)) for m1, t1 in old)
        if len(elems) > MAX_GROUP_ORDER:
            raise GroupValidationError(["generator closure exceeded bound (non-crystallographic input?)"])
        queue += [(int_mat_mul(m, m2), _int_seitz_translation(m, t, t2, d)) for m2, t2 in gens]


# --- presets ----------------------------------------------------------------

def _wallpaper_generators():
    half = Q(1, 2)
    R4 = ((0, -1), (1, 0))
    MIRX = ((1, 0), (0, -1))     # reflect across the x-axis
    NEG = ((-1, 0), (0, -1))
    J = ((0, 1), (1, 0))         # diagonal mirror
    NJ = ((0, -1), (-1, 0))
    M6 = ((1, -1), (1, 0))
    M3 = ((0, -1), (1, -1))
    z = (0, 0)
    gx = (half, 0)
    gd = (half, half)
    sq, hx = "square", "hex"
    return {
        "p1":   (sq, []),
        "p2":   (sq, [(NEG, z)]),
        "pm":   (sq, [(MIRX, z)]),
        "pg":   (sq, [(MIRX, gx)]),
        "cm":   (sq, [(J, z)]),
        "pmm":  (sq, [(MIRX, z), (NEG, z)]),
        "pmg":  (sq, [(NEG, z), (MIRX, gx)]),
        "pgg":  (sq, [(NEG, z), (MIRX, gd)]),
        "cmm":  (sq, [(J, z), (NEG, z)]),
        "p4":   (sq, [(R4, z)]),
        "p4m":  (sq, [(R4, z), (MIRX, z)]),
        "p4g":  (sq, [(R4, z), (MIRX, gd)]),
        "p3":   (hx, [(M3, z)]),
        "p3m1": (hx, [(M3, z), (NJ, z)]),
        "p31m": (hx, [(M3, z), (J, z)]),
        "p6":   (hx, [(M6, z)]),
        "p6m":  (hx, [(M6, z), (J, z)]),
    }


WALLPAPER_NAMES = tuple(_wallpaper_generators().keys())

# A few 3D demonstration groups (capitalized, Hermann-Mauguin style).
def _demo3d_generators():
    z3 = (0, 0, 0)
    rot2z = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    rot2y = ((-1, 0, 0), (0, 1, 0), (0, 0, -1))
    cyc = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    mirz = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    return {
        "P1":    [],
        "P222":  [(rot2z, z3), (rot2y, z3)],
        "Pm-3m": [(cyc, z3), (swap, z3), (mirz, z3)],
    }


DEMO3D_NAMES = tuple(_demo3d_generators().keys())
PRESET_NAMES = WALLPAPER_NAMES + DEMO3D_NAMES


@lru_cache(maxsize=None)
def preset(name: str) -> CrystalGroup:
    """One of the 17 wallpaper groups, or a 3D demonstration group.

    Square-lattice presets use the identity Gram matrix; hexagonal ones
    use [[1,-1/2],[-1/2,1]].  Each group is the closure of its generators
    (_wallpaper_generators, _demo3d_generators), built once per process.
    """
    wall = _wallpaper_generators()
    if name in wall:
        kind, gens = wall[name]
        frame = hexagonal_frame() if kind == "hex" else standard_frame(2)
        return span_seitz(frame, gens, name=name)
    if name in DEMO3D_NAMES:
        return span_seitz(standard_frame(3), _demo3d_generators()[name], name=name)
    raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


# --- orbits and stabilizers -------------------------------------------------

class OrbitPointSet:
    """Orbit points of base_point within squared radius sq_radius of center:
    sites, the sorted Q tuples.  orbit_in_ball keeps them as int tuples over
    one common denominator d, _ints = (d, sites), and sites forms the Q
    tuples from those when first read.  As for a frozen dataclass with the
    other fields out of the comparison, equality and hashing run on frame
    and sites, and the fields are read-only."""

    def __init__(self, frame: Frame, sites, group: CrystalGroup, base_point: Vec, center: Vec,
                 sq_radius, _ints=None):
        for name, value in (("frame", frame), ("_sites", sites), ("group", group),
                            ("base_point", base_point), ("center", center),
                            ("sq_radius", sq_radius), ("_ints", _ints)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def sites(self) -> tuple:
        if self._sites is None:
            d, rows = self._ints
            object.__setattr__(self, "_sites", tuple(tuple(Q(c, d) for c in s) for s in rows))
        return self._sites

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.frame, self.sites) == (other.frame, other.sites)

    def __hash__(self):
        return hash((self.frame, self.sites))

    def __repr__(self):
        return (f"OrbitPointSet(frame={self.frame!r}, sites={self.sites!r}, "
                f"group={self.group!r}, base_point={self.base_point!r}, "
                f"center={self.center!r}, sq_radius={self.sq_radius!r})")


# Most lattice points one ball query may walk (its box on all axes but the
# last) or keep: more come from a Gram matrix or radius far outside
# crystallographic scale, such as a Gram entry of 10^-20, and would not end.
MAX_BALL_POINTS = 1 << 20
_TOO_MANY = f"a ball query walks or keeps more than MAX_BALL_POINTS = {MAX_BALL_POINTS} lattice points"


def lattice_points_in_ball(frame: Frame, center: Vec, r2) -> list:
    """All k in Z^n with ||k - center||_G^2 <= r2, by exact box enumeration.

    The box bound |w_i| <= sqrt(r2 * (G^-1)_ii) on the ellipsoid is exact,
    so the enumeration provably covers the ball.  The test runs in integers,
    and on the box's last axis it is solved for an interval (_ball).  The
    kept points, in box order, are int tuples.
    """
    r2 = rat(r2)
    if r2 < 0:
        return []
    return _ball(frame, *integral(center), r2)


def _ball(frame: Frame, d, dc, r2) -> list:
    """lattice_points_in_ball about the centre c = dc / d (ints, d > 0), for
    r2 >= 0.  With D = lcm(d, E) for the Gram denominator E (isometry.int_gram),
    y = Dk - Dc and A = DG, D^3 ||k - c||_G^2 = y.Ay is an int, <= D^3 r2 iff
    <= L = floor(D^3 r2).  For y = (y', y_n), b = A_n'.y', g = y'.A'y' and
    a = A_nn > 0, y.Ay <= L iff (a y_n + b)^2 <= b^2 - a (g - L): the box is
    walked on its first n - 1 axes, and the kept y_n are one interval.  r2
    (an int or Q) is read as its numerator and denominator: no Q is formed.
    A walk or a result of more than MAX_BALL_POINTS points raises ValueError
    before it is made."""
    e, eg = int_gram(frame)
    rn, rd = r2.numerator, r2.denominator
    big = math.lcm(e, d)
    *dc, cn = [c * (big // d) for c in dc]
    *dg, last = [[x * (big // e) for x in row] for row in eg]
    a = last[-1]
    ws = [isqrt_ceil_ratio(rn * gii.numerator, rd * gii.denominator) for gii in _inv_gram_diag(frame)]
    bounds = [(ci // big - w, -(-ci // big) + w) for ci, w in zip(dc, ws)]
    if math.prod(hi - lo + 1 for lo, hi in bounds) > MAX_BALL_POINTS:
        raise ValueError(_TOO_MANY)
    limit = big ** 3 * rn // rd
    out = []
    for k in enumerate_box(bounds):
        y = [big * ki - ci for ki, ci in zip(k, dc)]
        b = int_dot(last, y)
        bound = b * b - a * (int_dot(y, [int_dot(row, y) for row in dg]) - limit)
        if bound >= 0:
            # a y_n + b = a big t + b - a cn for y_n = big t - cn
            s, b = math.isqrt(bound), b - a * cn
            lo, hi = -((s + b) // (a * big)), (s - b) // (a * big)
            if len(out) + hi - lo + 1 > MAX_BALL_POINTS:
                raise ValueError(_TOO_MANY)
            out += [k + (t,) for t in range(lo, hi + 1)]
    return out


def orbit_in_ball(group: CrystalGroup, x, center, r2) -> OrbitPointSet:
    """Exactly the orbit points gamma(x) with squared distance <= r2 to center.

    Over the common denominator d of x, the centre and the group
    (_over_group), the sites are the int vectors M X + T + d k, X = d x,
    for each int Seitz pair (M, T) and each k of the ball query about the
    centre minus (M X + T) / d.  They are deduplicated and sorted as int
    tuples, which is their order as rationals, and stay on the result as
    its private _ints = (d, sites), which the Voronoi localization reads.
    Q values are formed only when a caller reads sites (OrbitPointSet)."""
    x, center = vec(x, group.dim), vec(center, group.dim)
    r2 = rat(r2)
    if r2 <= 0:
        raise ValueError("squared radius must be positive")
    d, (dx, dc), pairs = _over_group(group, (x, center))
    sites = set()
    for m, t in pairs:
        base = [a + b for a, b in zip(int_mat_vec(m, dx), t)]
        for k in _ball(group.frame, d, [c - b for c, b in zip(dc, base)], r2):
            sites.add(tuple(b + d * ki for b, ki in zip(base, k)))
    return OrbitPointSet(
        frame=group.frame,
        sites=None,
        group=group,
        base_point=x,
        center=center,
        sq_radius=r2,
        _ints=(d, tuple(sorted(sites))),
    )


def stabilizer(group: CrystalGroup, x) -> list:
    """All group elements fixing x exactly, as full Seitz pairs (M, v + k).

    Over the common denominator d of x and the group (_over_group), with
    X = d x, the int Seitz pair (M, T) moves x onto a lattice translate of
    itself iff M X + T - X == 0 (mod d) (_int_moves_onto); then v + k is
    (X - M X) / d."""
    d, (dx,), pairs = _over_group(group, (vec(x, group.dim),))
    out = []
    for m, t in pairs:
        mx = int_mat_vec(m, dx)
        if _int_moves_onto(mx, t, dx, d):
            out.append((m, tuple(Q(a - b, d) for a, b in zip(dx, mx))))
    return out


def _over_group(group: CrystalGroup, points):
    """(d, rows, pairs): the points as int rows over the lcm d of their
    denominators and the group's d, and the group's int pairs over d."""
    e, pairs = group._ints
    d = math.lcm(e, *(x.denominator for p in points for x in p))
    return d, integral_rows(points, d)[1], [(m, tuple(d // e * x for x in t)) for m, t in pairs]


def _int_moves_onto(mx, t, y, d) -> bool:
    """Whether (M X + T - Y) / d is an integer vector, given mx = M X and
    the int vectors T and Y over the denominator d."""
    return all((a + b - c) % d == 0 for a, b, c in zip(mx, t, y))


_DENOMS = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


def generic_point(group: CrystalGroup, seed: int) -> Vec:
    """Deterministic rational point with trivial stabilizer.

    Fixed-point sets of the finitely many nontrivial cosets are affine
    subspaces of positive codimension, so resampling with growing
    denominators terminates.  Coordinates use distinct denominators to
    avoid accidental mirror alignments.
    """
    rng = random.Random(seed)
    for attempt in range(64):
        x = []
        for i in range(group.dim):
            q = _DENOMS[(attempt + i) % len(_DENOMS)] * (1 + attempt // len(_DENOMS))
            x.append(Q(rng.randrange(1, q), q))
        x = tuple(x)
        if len(stabilizer(group, x)) == 1:
            return x
    raise RuntimeError("could not find a generic point (malformed group?)")


# --- symmorphic test ---------------------------------------------------------

def is_symmorphic(group: CrystalGroup):
    """A point P about which all reps lose their translation parts, or None.

    Solves the simultaneous congruences (M - 1) P = -t / d (mod Z^n) over
    all int Seitz pairs (M, t), the right-hand side as ints over d.
    """
    d, pairs = group._ints
    rows = tuple(r for m, _ in pairs for r in mat_sub(m, identity_mat(group.dim)))
    sol = solve_mod_lattice(rows, d, tuple(-x for _, t in pairs for x in t))
    if sol is None:
        return None
    den, xs = sol
    return tuple(Q(x % den, den) for x in xs)


# --- conjugacy ---------------------------------------------------------------

def lattice_isometries(source: Frame, target: Frame) -> list:
    """Rational matrices U with U^T G_target U = G_source: the isometric
    lattice identifications of _lattice_isometries, identity-like first."""
    return [mat(u) for u in _lattice_isometries(source, target)]


@lru_cache(maxsize=None)
def _lattice_isometries(source: Frame, target: Frame) -> tuple:
    """The int matrices of lattice_isometries, once per pair of frames.
    Column i is a target ball point u with u.(E_t G_t)u == E_t (G_s)_ii
    (int_gram), pruned on its int products with the columns before it; the
    Grams' equal determinants give det U = +-1."""
    n = source.dim
    if target.dim != n or mat_det(source.gram) != mat_det(target.gram):
        return ()
    e, eg = int_gram(target)
    want = [[e * x for x in row] for row in source.gram]
    found = [()]
    for i in range(n):
        ball = lattice_points_in_ball(target, zero_vec(n), source.gram[i][i])
        cands = [(k, gk) for k in ball if int_dot(k, gk := int_mat_vec(eg, k)) == want[i][i]]
        ei = tuple(int(j == i) for j in range(n))
        cands.sort(key=lambda kg: (kg[0] != ei, kg[0]))
        found = [cols + ((k, gk),) for cols in found for k, gk in cands
                 if all(int_dot(k, gp) == want[i][j] for j, (_, gp) in enumerate(cols))]
    return tuple(transpose(tuple(k for k, _ in cols)) for cols in found)


def conjugacy_search(g1: CrystalGroup, g2: CrystalGroup):
    """An isometry gamma with gamma g1 gamma^-1 == g2 as sets, or None.

    gamma maps g1-frame coordinates to g2-frame coordinates; its linear
    part U is an isometric lattice identification, an int matrix with the
    int inverse U^-1 = G_1^-1 U^T G_2 (the frames' int Grams, as inverse
    forms it).  (U, 0) conjugates each int Seitz pair (M, t) of g1 over d1
    to (M', U t), M' = U M U^-1, and the translation part c solves
    U t / d1 + (1 - M') c = w (mod Z^n) for g2's rep (M', w): over
    d1 d2, with g2's pair (M', T) for T = d2 w, the right-hand side is
    d1 T - d2 U t, and gamma is formed from c's int pair.  No Q is formed.
    """
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    if g1.order() != g2.order():
        return None
    sig = lambda g: sorted((mat_det(m), sum(m[i][i] for i in range(g.dim))) for m in g.point_parts())
    if sig(g1) != sig(g2):
        return None
    n = g1.dim
    (f, fgi), (e, eg) = int_inv_gram(g1.frame), int_gram(g2.frame)
    (d1, pairs), d2 = g1._ints, g2._ints[0]
    for u in _lattice_isometries(g1.frame, g2.frame):
        back = [[x // (f * e) for x in row] for row in int_mat_mul(fgi, int_mat_mul(transpose(u), eg))]
        rows, rhs = [], []
        for m, t in pairs:
            mp = int_mat_mul(u, int_mat_mul(m, back))
            w = g2.rep_for(mp)
            if w is None:
                break
            rows += mat_sub(identity_mat(n), mp)
            rhs += (d1 * a - d2 * b for a, b in zip(w, int_mat_vec(u, t)))
        else:
            c = solve_mod_lattice(tuple(rows), d1 * d2, tuple(rhs))
            if c is not None:
                d, xs = c
                return Isometry._of_ints(g1.frame, d, tuple(tuple(d * x for x in row) for row in u),
                                         tuple(x % d for x in xs), g2.frame)
    return None


def is_conjugate_subgroup(g1: CrystalGroup, g2: CrystalGroup, gamma: Isometry) -> bool:
    """Whether gamma g1 gamma^-1 is contained in g2.

    Checked on lattice generators (an integral linear part) plus all reps,
    conjugated with compose and inverse and tested by g2.contains, which
    suffices by closure.
    """
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    if gamma.frame != g1.frame or gamma.target != g2.frame:
        raise ValueError("gamma does not map between the group frames")
    d, a, _ = gamma._ints
    if any(x % d for r in a for x in r):
        return False  # some conjugated lattice translation is not in g2
    back = inverse(gamma)
    return all(g2.contains(compose(gamma, compose(g1.element(m), back))) for m in g1.point_parts())


def subgroup_index(sub: CrystalGroup, sup: CrystalGroup, gamma: Isometry = None) -> int:
    """Index of gamma sub gamma^-1 in sup (gamma defaults to the identity map).

    Equals (lattice index) * |point group of sup| / |point group of sub|,
    the lattice index of gamma's linear part A / m being |det A| / m^n.
    """
    if gamma is None:
        if sub.frame != sup.frame:
            raise ValueError("same-frame index needs an explicit gamma")
        gamma = identity_iso(sub.frame)
    if not is_conjugate_subgroup(sub, sup, gamma):
        raise ValueError("not a subgroup under the given conjugation")
    m, a, _ = gamma._ints
    index, rest = divmod(abs(int(mat_det(a))) * sup.order(), m ** sub.dim * sub.order())
    if rest:
        raise ArithmeticError("non-integer index; groups are not nested")
    return index
