"""Periodic simple tilings: patches, automorphism groups, LD/MLD, metric bounds.

A PeriodicTiling stores one canonical tile per lattice coset (the lattice
is the frame's integer span).  All comparisons are exact: tiles are
canonicalized mod the lattice and compared as vertex sets, so tiling
equality, patch equality, and automorphism verification involve no
tolerances.  Only the metric values of distance bounds are floats.
Validation is one pass of exact facet matching modulo the lattice plus
unit covolume, and a rejection is explained by what that pass found.

Tile images are compared as integer keys.  Each tile stores its vertices
as reduced int rows (polytope); the cell tiles' rows are brought over
their common denominator d as X = d x, and the image of a tiling under
x -> L x + t over one common denominator D of X, L and t, so each image
vertex is A X + b and a lattice translate adds S k, all as Python ints.
Inside one tiling a key is the sorted int vertex tuple over d, less the
floor shift (X // d) d of its least vertex, flattened, with no gcd
(_flat_key): facet matching, automorphism checks and the translation
lattice hash these, and find translates through the shape index of
_int_cells.  Where denominators differ (image keys, pulled-back patches)
a key is reduced (_key, one gcd), equal exactly when the vertex tuples
are.  A translation found among the keys becomes rational again only for
its Seitz pair.  Aut(T) is closed from verified generators, as int Seitz
pairs over the cell tiles' denominator d: a point part in the closure of
the pairs verified so far needs no check (automorphism_group_with_embedding).
Cell tiles are sorted by their int rows over one denominator, the order
of their vertex tuples.

The hull of a tiling with crystallographic automorphism group Aut(T) is,
as a topological space with its isometry action, the group quotient
Isom(E^n)/Aut(T); it is not modeled here beyond that description.  When
gamma Aut(T) gamma^-1 sits inside Aut(T') with index d (subgroup_index),
the induced map between the hulls is surjective and d-to-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, sub

from .rational import Q, ZERO, rat, rat_str, isqrt_ceil_ratio, sqrt_float
from .linalg import (
    Mat,
    Vec,
    _reduced,
    hermite_column_basis,
    identity_mat,
    int_dot,
    int_mat_vec,
    integral,
    mat_mul,
    transpose,
    vec,
    vsub,
    zero_vec,
)
from .isometry import (
    Frame,
    Isometry,
    IsometryError,
    compose,
    identity_iso,
    inverse,
    _int_terms,
)
from .groups import (
    CrystalGroup,
    _ball,
    _int_closure,
    _int_extend,
    _lattice_isometries,
    conjugacy_search,
    is_conjugate_subgroup,
    span_seitz,
)
from .polytope import (
    ConvexPolytope,
    _centroid_ball,
    _facet_vertices,
    _moved,
    _sq_distance,
    congruent,
    volume,
)
from .voronoi import delone_params

LN_3_2 = math.log(1.5)
PATCH_ENUM_RADIUS = Q(8)   # enumerated patch-equality radii are capped here
RADIUS_CAP = Q(1 << 20)    # stand-in for "arbitrarily large" witness radii


class TilingValidationError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("tiling validation failed: " + "; ".join(map(str, self.problems)))


@dataclass(frozen=True)
class Provenance:
    kind: str
    group: CrystalGroup = field(default=None, compare=False)
    base_point: Vec = field(default=None, compare=False)
    base_cell: ConvexPolytope = field(default=None, compare=False)
    apex: Vec = field(default=None, compare=False)


@dataclass(frozen=True)
class PeriodicTiling:
    frame: Frame
    cell_tiles: tuple
    provenance: Provenance = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.frame.dim


def canonical_tile(tile: ConvexPolytope) -> ConvexPolytope:
    """Translate by a lattice vector so the least vertex P / V lies in [0,1)^n:
    by the int floor shift, on the rows (polytope._moved)."""
    shift = tuple(-(c // tile._den) for c in tile._rows[0])
    return _moved(tile, tile.frame, 1, None, shift) if any(shift) else tile


def _rep_images(group: CrystalGroup, polys) -> list:
    """Each polytope moved by every coset rep, rep by rep (_placed, by the
    rep's int form, CrystalGroup.element), carrying its polytope's volume."""
    for poly in polys:
        volume(poly)  # computed once; the images carry it
    return _placed(group.frame, [group.element(m)._ints for m in group.point_parts()], polys)


def _placed(frame: Frame, forms, polys) -> list:
    """Each polytope moved into frame by every int form (m, A, B), form by
    form (A = None for m I, a translate): moved once (polytope._moved) by
    (m, A, B + m k), k = -(X // m V) for its least row X = min A P + V B
    over the rows P over V (m P[0] + V B for a translate), so that it is
    canonical (canonical_tile)."""
    images = []
    for m, a, b in forms:
        for poly in polys:
            mv = m * poly._den
            if a is None:  # a translate keeps the rows sorted
                low = [m * x for x in poly._rows[0]]
            else:
                low = min(int_mat_vec(a, p) for p in poly._rows)
            least = map(add, low, (poly._den * c for c in b))
            images.append(_moved(poly, frame, m, a, [c - m * (x // mv) for c, x in zip(b, least)]))
    return images


def periodic_tiling(frame: Frame, tiles, provenance=None, validate=True) -> PeriodicTiling:
    # every tile is kept: a repeated tile is a double cover, which validation
    # rejects; it checks the tiles in input order, so a problem names a tile
    # by its index among the given tiles, and then they are sorted
    canon = tuple(canonical_tile(t) for t in tiles)
    if validate:
        problems = validate_tiling(PeriodicTiling(frame=frame, cell_tiles=canon))
        if problems:
            raise TilingValidationError(problems)
    return PeriodicTiling(frame=frame, cell_tiles=_sorted_tiles(canon), provenance=provenance)


def validate_tiling(tiling: PeriodicTiling) -> list:
    """Exact tiling check in one pass; returns [] or the problems it found.

    Accepts when every cell tile is full-dimensional, the cell volumes sum
    to 1 (unit covolume) and every facet is matched modulo the lattice:
    its vertex set, translated by the integer vector that puts its least
    vertex in [0,1)^n (the canonical_tile convention), is the vertex set
    of exactly two cell-tile facets, and their normals point in opposite
    directions.  The problems are each tile that is not full-dimensional,
    or else the volume sum when it is not 1 and each facet key not held
    once from each side, with its tiles and vertices, in tile then facet
    order: the same linear pass accepts and explains.

    The criterion holds iff the tiles cover space with disjoint interiors
    and every two tiles A, B meet in a face of both (or not at all).  Keys
    are canonical mod the lattice, so a key occurring exactly twice says
    that exactly two tiles of the whole tiling have that facet, on
    opposite sides.

    * Covering multiplicity.  Let m(y) count the tiles containing y, for y
      off every tile boundary.  Take x on a hyperplane H, in the relative
      interior of facets and on no other hyperplane or lower face.  Each
      tile with x on its boundary has a facet in H through x, and exactly
      one other tile, across H, has that same facet; no third tile has it.
      So as many tiles end at x from each side of H, and m agrees on both
      sides.  Any two points off the boundaries are joined by a path
      that crosses them only at such points (the rest has codimension
      2), so m is constant, and integrating over a unit cell gives
      m = sum of volumes = 1: the tiles cover space and their interiors
      are disjoint.
    * Shared minimal faces.  Take p in tiles A and B and a ball about p
      that meets only tiles and tile facets through p.  A path in the ball
      from the interior of A to that of B, avoiding the codimension-2
      skeleton, passes from tile C to tile D only through a facet that the
      two share (multiplicity 1 makes D the matched tile), and that facet
      P contains p.  C and D then have the same minimal face containing
      p, namely that of P, so A and B do too; call it F(p).
    * Face-to-face.  Let p be a relative-interior point of the convex set
      A n B.  F(p) lies in A n B, and any point q of A n B lies on a
      segment in A with p inside it, so q lies in the face F(p) of A.
      Hence A n B = F(p), a face of both (any n >= 2; for n = 1 disjoint
      interiors already make every meeting a shared endpoint).

    Conversely, in a face-to-face tiling each facet P of A is A n B for
    the unique tile B across its relative interior; P is a facet of B, and
    no other tile has it as a facet, so each key occurs exactly twice.
    """
    n = tiling.frame.dim
    tiles = tiling.cell_tiles
    problems = [f"tile {i} is not full-dimensional" for i, t in enumerate(tiles) if t.dim != n]
    if problems:
        return problems
    total = sum((volume(t) for t in tiles), ZERO)
    if total != 1:
        problems.append(f"cell volumes sum to {rat_str(total)}, expected 1")
    held = {}
    d, cells = _int_vertices(tiles)
    for i, (t, rows) in enumerate(zip(tiles, cells)):  # a facet's vertices are rows of its tile
        for on, (_, ac) in zip(_facet_vertices(t), t._facets):
            held.setdefault(_flat_key(d, [rows[j] for j in on]), []).append((i, ac[:-1], on))
    # facets with one vertex set lie in one hyperplane, so their (int) covectors
    # are parallel and point opposite ways iff their dot product is negative
    problems += [_facet_problem(tiles, fs) for fs in held.values()
                 if len(fs) != 2 or int_dot(fs[0][1], fs[1][1]) >= 0]
    return problems


def _facet_problem(tiles, held) -> str:
    """The problem of a facet key whose (tile index, int covector, vertex
    indices) entries, held, are not one from each side."""
    i, _, on = held[0]
    where = "facet [" + ", ".join(f"({', '.join(map(rat_str, tiles[i].vertices[j]))})"
                                  for j in on) + "]"
    tiles = ", ".join(str(i) for i, _, _ in held)
    if len(held) == 1:
        return f"{where} of tile {tiles} has no matching facet"
    return f"{where} is held by {len(held)} facets, of tiles {tiles}; expected one from each side"


def tilings_equal(a: PeriodicTiling, b: PeriodicTiling) -> bool:
    return a.frame == b.frame and a.cell_tiles == b.cell_tiles


# --- integer tile keys ----------------------------------------------------------

def _int_vertices(tiles):
    """(d, cells): d > 0 the least common denominator of every vertex
    coordinate of the tiles, and per tile its vertices X = d x as int
    tuples, in the tile's (sorted) order: its rows as they are over d."""
    d = math.lcm(*(t._den for t in tiles))
    return d, tuple(t._rows if t._den == d else tuple(tuple(d // t._den * c for c in p) for p in t._rows)
                    for t in tiles)


def _sorted_tiles(tiles) -> tuple:
    """The tiles sorted by their vertex tuples, compared as int rows over
    one common denominator (_int_vertices)."""
    rows = _int_vertices(tiles)[1]
    return tuple(tiles[i] for i in sorted(range(len(tiles)), key=rows.__getitem__))


def _key(d, flat):
    """The key of the vertex tuple whose coordinates, in order, are
    flat / d (ints, d > 0): the least common denominator and the
    numerators over it (linalg._reduced).  Two keys are equal exactly
    when their vertex tuples are, whatever d each was formed over."""
    d, (flat,) = _reduced(d, (tuple(flat),))
    return (d,) + flat


def _flat_key(d, pts):
    """The sorted int vertex tuples pts / d less the floor shift (X // d) d of
    the least, flattened: over one d, equal exactly mod the lattice."""
    shift = [c // d * d for c in pts[0]]
    if any(shift):
        return tuple(c - s for p in pts for c, s in zip(p, shift))
    return tuple(c for p in pts for c in p)


def _shape(pts):
    """The sorted int vertex tuples pts less the first, flattened: equal, over
    one denominator, exactly for translates."""
    return tuple(c - o for p in pts for c, o in zip(p, pts[0]))


def _affine(m, c, x):
    """m x + c for an int matrix m and int vectors c, x."""
    return tuple(map(add, int_mat_vec(m, x), c))


def _int_image(tiling: PeriodicTiling, iso: Isometry):
    """(D, S, images) for iso(x) = L x + t over one common denominator D:
    iso maps the cell tile t_i onto the sorted int vertex tuples
    images[i] / D, and a lattice vector k to the translation S k / D
    (S = D L, an int matrix).  With the vertices X / d and iso's int form
    (A, B) = m (L, t), iso(X / d) = (A X + d B) / D for D = m d.  iso must be
    an endomorphism of the tiling's frame."""
    if iso.frame != tiling.frame or iso.target != tiling.frame:
        raise IsometryError("isometry incompatible with the tiling frame")
    d, cells = _int_vertices(tiling.cell_tiles)
    m, a, b = iso._ints
    b = tuple(d * c for c in b)
    images = [sorted(_affine(a, b, p) for p in pts) for pts in cells]
    return m * d, tuple(tuple(d * c for c in row) for row in a), images


# --- patches -----------------------------------------------------------------

@dataclass(frozen=True)
class Patch:
    tiles: tuple
    center: Vec
    sq_radius: object

    def keys(self):
        return frozenset(t.vertices for t in self.tiles)


def _tiles_near(tiling: PeriodicTiling, center, r2):
    """Yield ((num, den), cell tile t, lattice vector k) for each tile t + k
    whose squared distance num / den (ints, den > 0) to the centre c is
    <= r2, for c = ec / e and r2 = rn / rd >= 0 given as the int pairs
    center = (e, ec), ec a tuple, and r2 = (rn, rd) (at r2 = 0, the tiles
    that hold c).  t lies within rho of its vertex centroid q = S / w
    (polytope._centroid_ball), so only k within r + rho of c - q qualify;
    the ball query takes an exact bound >= (r + rho)^2, as
    r rho <= (r2 + rho2)/2 and r rho <= ceil(sqrt(r2 rho2)) (rational.isqrt_ceil_ratio),
    which is rho2 at r2 = 0.
    The bound is summed on ints and is the one Q formed per cell tile.  The
    ball query gets c - q as (w ec - e S) / (e w) and yields k as int
    tuples, and each test point c - k goes to polytope._sq_distance as
    ec - e k; its pair is compared with r2 by cross-multiplying."""
    (e, ec), (rn, rd) = center, r2
    for t in tiling.cell_tiles:
        w, s, rho2 = _centroid_ball(t)
        pn, pd = rho2.numerator, rho2.denominator
        # r2 + rho2 = sn / sd, so the bound is 2 (r2 + rho2) or r2 + rho2 + 2 root
        sn, sd, root = rn * pd + pn * rd, rd * pd, isqrt_ceil_ratio(rn * pn, rd * pd)
        bound = Q(2 * sn if sn <= 2 * root * sd else sn + 2 * root * sd, sd)
        for k in _ball(tiling.frame, e * w, [w * c - e * si for c, si in zip(ec, s)], bound):
            # dist(t + k, c) = dist(t, c - k): test the cell tile, whose caches persist
            num, den = _sq_distance(t, e, tuple(c - e * ki for c, ki in zip(ec, k)))
            if num * rd <= rn * den:
                yield (num, den), t, k


def patch(tiling: PeriodicTiling, center, r2) -> Patch:
    """Exactly the tiles whose squared distance to the center is <= r2.

    Each cell tile t found near the centre is moved by its int lattice
    vector k on its rows (polytope._moved), and the tiles are sorted as
    periodic_tiling sorts cell tiles (_sorted_tiles); no Q vertex is
    formed."""
    center = vec(center, tiling.dim)
    r2 = rat(r2)
    if r2 <= 0:
        raise ValueError("squared radius must be positive")
    frame = tiling.frame
    near = _tiles_near(tiling, integral(center), (r2.numerator, r2.denominator))
    tiles = [_moved(t, frame, 1, None, k) for _, t, k in near]
    return Patch(tiles=_sorted_tiles(tiles), center=center, sq_radius=r2)


def _preimage(iso: Isometry, e, eo):
    """iso^-1(O) for the origin O = eo / e (int e > 0, int tuple eo) as the
    int pair (E, X) of the point X / E over its least common denominator:
    with inverse(iso) = (A', B') / m', X / E = (A' eo + e B') / (e m')."""
    m, a, b = inverse(iso)._ints
    e, (x,) = _reduced(e * m, (_affine(a, [e * c for c in b], eo),))
    return e, x


def _pulled_back(tiling: PeriodicTiling, image, center, r2) -> dict:
    """{_key of the vertex tuple: squared distance (num, den)} of the tiles of
    iso(T) within r2 = (rn, rd) of iso(c), for image = _int_image(tiling, iso)
    and the pulled-back centre c = iso^-1(O) as the int pair center (_preimage):
    they are iso(t + k) = iso(t) + L k for the tiles t + k of T within r2 of
    c, L the linear part of iso, at the distance num / den that _tiles_near
    yields.  Each cell tile's image is sorted once, as ints over one
    denominator; a translate keeps that order and adds S k to every vertex.
    No Q is formed."""
    d, s, images = image
    flat = {t: (tuple(c for p in pts for c in p), len(pts))
            for t, pts in zip(tiling.cell_tiles, images)}
    out = {}
    for d2, t, k in _tiles_near(tiling, center, r2):
        base, m = flat[t]
        shift = int_mat_vec(s, k)
        out[_key(d, map(add, base, shift * m))] = d2
    return out


# --- transformation ----------------------------------------------------------

def transform_tiling(tiling: PeriodicTiling, iso: Isometry) -> PeriodicTiling:
    """The tiling iso(T).

    When the linear part normalizes the lattice the result lives in the
    same frame; otherwise it is re-expressed in the image-lattice basis
    (the Gram matrix is unchanged since the linear part is an isometry).
    """
    if iso.frame != tiling.frame or iso.target != tiling.frame:
        raise IsometryError("isometry incompatible with the tiling frame")
    if _normalizes_lattice(iso):
        form = iso._ints
    else:
        # re-express over the image lattice: same Gram, tiles shifted by
        # L^-1 t, which is minus the translation of the inverse
        m, _, b = inverse(iso)._ints
        form = m, None, tuple(-x for x in b)
    return periodic_tiling(tiling.frame, _placed(tiling.frame, [form], tiling.cell_tiles), validate=False)


def _normalizes_lattice(iso: Isometry) -> bool:
    """Whether iso is an endomorphism of one frame whose linear part maps the
    lattice onto itself: L = A / m is integral when m divides every entry
    of A, and Gram-orthogonality on one frame gives det L = +-1, so L^-1 is
    integral too."""
    m, a, _ = iso._ints
    return iso.frame == iso.target and all(x % m == 0 for row in a for x in row)


def _image_keys(image) -> frozenset:
    """The tile keys of transform_tiling(tiling, iso), for iso's image =
    _int_image(tiling, iso) of an iso that normalizes the lattice, without
    building the tiles."""
    d, _, images = image
    return frozenset(_key(d, _flat_key(d, pts)) for pts in images)


# --- prototiles ---------------------------------------------------------------

def prototiles(tiling: PeriodicTiling) -> list:
    """Partition of cell_tiles into congruence classes (lists of indices)."""
    classes = []
    reps = []
    for i, t in enumerate(tiling.cell_tiles):
        for ci, r in enumerate(reps):
            if congruent(r, t) is not None:
                classes[ci].append(i)
                break
        else:
            reps.append(t)
            classes.append([i])
    return classes


def prototile_index(tiling: PeriodicTiling) -> dict:
    out = {}
    for ci, members in enumerate(prototiles(tiling)):
        for i in members:
            out[i] = ci
    return out


# --- automorphisms -------------------------------------------------------------

def _fixes_tiling(d, cells, keys, m, c) -> bool:
    """Whether X -> m X + c, on the cell tiles' int vertices X = d x
    (_int_vertices), maps every cell tile onto a tile: its _flat_key is one
    of the cell keys."""
    return all(_flat_key(d, sorted(_affine(m, c, p) for p in pts)) in keys for pts in cells)


def _int_cells(tiling: PeriodicTiling):
    """(d, cells, keys, shapes): _int_vertices of the cell tiles, their
    _flat_keys and each _shape's cells, in cell order."""
    d, cells = _int_vertices(tiling.cell_tiles)
    shapes = {}
    for pts in cells:
        shapes.setdefault(_shape(pts), []).append(pts)
    return d, cells, frozenset(_flat_key(d, pts) for pts in cells), shapes


def _translation_lattice(n, d, cells, keys, shapes):
    """Basis (columns) of {v : T + v = T} as a superlattice of Z^n, for the
    tiling T with _int_cells (d, cells, keys, shapes).  A translate of cell
    tile 0 gets the full check only when its residue mod d lies outside
    the group that the translations accepted so far generate mod d, which
    grows by the cosets of each one accepted: a k x k grid of 1/k squares
    takes 2 full checks, not k^2 - 1."""
    one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    extra, found = [], {(0,) * n}
    for pts in shapes[_shape(cells[0])]:
        v = tuple(map(sub, pts[0], cells[0][0]))
        if tuple(x % d for x in v) in found or not _fixes_tiling(d, cells, keys, one, v):
            continue
        extra.append(v)
        coset = found
        while (coset := {tuple((a + b) % d for a, b in zip(r, v)) for r in coset}).isdisjoint(found):
            found |= coset
    if not extra:
        return identity_mat(n)
    cols = [tuple(d * x for x in col) for col in one] + extra
    basis = hermite_column_basis(cols)
    return transpose(tuple(tuple(Q(x, d) for x in col) for col in basis))


def reexpress_over_lattice(tiling: PeriodicTiling, basis: Mat):
    """Rewrite the tiling in the coordinates of a denser translation lattice.

    `basis` columns give the new lattice in current coordinates.  Returns
    (tiling', embedding) where embedding maps new coordinates to old.
    """
    frame = tiling.frame
    new_gram = mat_mul(transpose(basis), mat_mul(frame.gram, basis))
    new_frame = Frame(frame.dim, new_gram)
    embed = Isometry(new_frame, basis, zero_vec(frame.dim), target=frame)
    # the old cell holds several cells of the denser lattice: keep one copy
    # of the tiles that agree modulo it
    tiles = set(_placed(new_frame, [inverse(embed)._ints], tiling.cell_tiles))
    out = periodic_tiling(new_frame, tiles, validate=False)
    return out, embed


def automorphism_group_with_embedding(tiling: PeriodicTiling):
    """Aut(T) over its maximal translation lattice, plus the coordinate map
    from the group's frame back into the tiling's frame.

    Aut(T) is found from verified generators (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 4).  The Seitz pairs
    verified so far are closed mod the lattice as int pairs over the cell
    tiles' common denominator d, by point part, starting from the identity.
    A lattice automorphism U whose point part lies in that closure is
    skipped: products of automorphisms are automorphisms.  Any other U gets
    the full check, for the translations that map cell tile 0 onto a cell
    tile, and a U that passes joins the generators and grows the closure by
    its cosets (groups._int_extend).  So Aut(T) is the closure at the end,
    with one translation class per point part, the lattice being maximal,
    and closed: validate_group would only re-prove it.  Each success at
    least doubles the closure, so at most log2 |P| full checks pass."""
    frame = tiling.frame
    d, cells, keys, shapes = _int_cells(tiling)
    basis = _translation_lattice(frame.dim, d, cells, keys, shapes)
    if basis != identity_mat(frame.dim):
        dense, embed = reexpress_over_lattice(tiling, basis)
        group, inner = automorphism_group_with_embedding(dense)
        return group, compose(embed, inner)
    gens, aut = [], _int_closure(frame.dim, d, [])
    for u in _lattice_isometries(frame, frame):
        if u in aut:
            continue
        image = sorted(int_mat_vec(u, p) for p in cells[0])
        for pts in shapes.get(_shape(image), ()):
            c = tuple(map(sub, pts[0], image[0]))
            if _fixes_tiling(d, cells, keys, u, c):
                gens.append((u, c))
                _int_extend(aut, gens, d)
                break
    return CrystalGroup._of_ints(frame, d, aut.items()), identity_iso(frame)


def automorphism_group(tiling: PeriodicTiling) -> CrystalGroup:
    return automorphism_group_with_embedding(tiling)[0]


def is_crystallographic(tiling: PeriodicTiling):
    """Always true for a valid PeriodicTiling; returns the group as witness."""
    group = automorphism_group(tiling)
    return True, group


# --- LD / MLD ------------------------------------------------------------------

def _lattice_covering_sq(frame: Frame):
    """Covering radius^2 of the frame's integer lattice: the circumradius^2
    of the origin's Voronoi cell, which its localization computes."""
    return delone_params(span_seitz(frame, []), zero_vec(frame.dim)).covering_sq_radius


@dataclass(frozen=True)
class LDResult:
    holds: bool
    radius: float = None          # valid LD radius when holds
    covering_sq: object = None    # exact square of the radius


def ld_check(t1: PeriodicTiling, t2: PeriodicTiling, gamma: Isometry) -> LDResult:
    """T' is gamma-LD from T iff gamma Aut(T) gamma^-1 is contained in Aut(T').

    When it holds, a valid LD radius is the covering radius of the
    translation lattice of Aut(T) (the radius making lattice translates
    of a ball cover all of space).
    """
    (g1, e1), (g2, e2) = _aut_pair(t1, t2)
    # gamma : T-frame -> T'-frame, rewritten as a map between the Aut frames
    if not is_conjugate_subgroup(g1, g2, compose(inverse(e2), compose(gamma, e1))):
        return LDResult(holds=False)
    cover_sq = _lattice_covering_sq(g1.frame)
    return LDResult(holds=True, radius=sqrt_float(cover_sq), covering_sq=cover_sq)


def _aut_pair(t1: PeriodicTiling, t2: PeriodicTiling):
    """(Aut(T), embedding) of each tiling (automorphism_group_with_embedding),
    for two tilings of one dimension."""
    if t1.dim != t2.dim:
        raise ValueError("dimension mismatch")
    return automorphism_group_with_embedding(t1), automorphism_group_with_embedding(t2)


def _mld_gamma(aut1, aut2):
    """mld_check from the (group, embedding) pairs of _aut_pair."""
    (g1, e1), (g2, e2) = aut1, aut2
    found = conjugacy_search(g1, g2)
    if found is None:
        return None
    return compose(e2, compose(found, inverse(e1)))


def mld_check(t1: PeriodicTiling, t2: PeriodicTiling):
    """A conjugating isometry gamma making T and T' gamma-MLD, or None.

    Decided exactly through the automorphism groups: the tilings are
    gamma-MLD iff gamma conjugates Aut(T) onto Aut(T')."""
    return _mld_gamma(*_aut_pair(t1, t2))


def _translation_mld(aut1, aut2) -> bool:
    """translation_mld_check from the (group, embedding) pairs of _aut_pair."""
    return bool(_lattice_isometries(aut1[0].frame, aut2[0].frame))


def translation_mld_check(t1: PeriodicTiling, t2: PeriodicTiling) -> bool:
    """Whether Aut(T) and Aut(T') share their translation lattices.

    Exact basis-change test: some integer unimodular matrix must identify
    the two lattices isometrically."""
    return _translation_mld(*_aut_pair(t1, t2))


def _mld_verdicts(t1: PeriodicTiling, t2: PeriodicTiling):
    """(mld_check, translation_mld_check) of the pair from one Aut per tiling."""
    aut1, aut2 = _aut_pair(t1, t2)
    return _mld_gamma(aut1, aut2), _translation_mld(aut1, aut2)


# --- tiling metric: certified upper bounds ---------------------------------------

@dataclass(frozen=True)
class DistanceBound:
    """Certified upper bound on the tiling distance d_O(T, T').

    witness = (phi, psi, radius, global_match): patches of phi(T) and
    psi(T') agree on the ball of that rational radius about the origin,
    with d_O(phi,1), d_O(psi,1) <= 1/(2 radius) exactly; global_match
    marks exact equality of the whole transformed tilings (an
    infinite-radius witness truncated to RADIUS_CAP)."""

    origin: Vec
    upper: float
    witness: tuple = None
    tiling_a: PeriodicTiling = field(default=None, compare=False)
    tiling_b: PeriodicTiling = field(default=None, compare=False)


def _pair_size_cap(terms):
    """min(RADIUS_CAP, 2^79 / (ceil(2^80 sqrt p) + ceil(2^80 sqrt q))) over d_O's
    exact terms (p, q) of a witness pair phi, psi, given as the int pairs of
    _int_terms for each: 1/(2 cap) is at least sqrt p + sqrt q, by less than
    2^-79, so the cap passes _size_cap by construction.  The ceilings are
    integer square roots (rational.isqrt_ceil_ratio), and the least quotient
    has the largest sum; the cap is the one Q formed."""
    c = max(isqrt_ceil_ratio(pn << 160, pd) + isqrt_ceil_ratio(qn << 160, qd)
            for (pn, pd), (qn, qd) in terms)
    return Q(1 << 79, c) if c > 1 << 59 else RADIUS_CAP


def _pair_match_radius(t1, phi, t2, psi, origin, size_cap):
    """(largest certified radius on the grid cap j / 2^16, global flag) for
    one witness pair.  The radius is at most the pair's size cap
    (_pair_size_cap); a global flag marks exact equality of the transformed
    tilings, which certifies patch equality at every radius.

    The patches are compared from the centre out: first the tiles that hold
    the origin (r2 = 0), then, if those agree, one patch pair at the cap.
    A tile's distance to the origin does not depend on the query radius, so
    the keys that differ at r2 = 0 are the keys that differ at the cap at
    distance 0; when there are any, the cap comparison's radius is 0.  Each
    side's image (_int_image) and pulled-back centre are formed once, and
    distances compare as int pairs: the radius is the one Q formed."""
    a, b = _int_image(t1, phi), _int_image(t2, psi)
    if _normalizes_lattice(phi) and _normalizes_lattice(psi):
        # safe to compare the transformed tilings globally: no basis
        # re-expression is involved, so equality is equality in the plane
        if _image_keys(a) == _image_keys(b):
            return size_cap, True
    o = integral(origin)
    ca, cb = _preimage(phi, *o), _preimage(psi, *o)
    if _pulled_back(t1, a, ca, (0, 1)).keys() != _pulled_back(t2, b, cb, (0, 1)).keys():
        return ZERO, False
    cap = min(size_cap, PATCH_ENUM_RADIUS)
    cn, cd = cap.numerator, cap.denominator
    a = _pulled_back(t1, a, ca, (cn * cn, cd * cd))
    b = _pulled_back(t2, b, cb, (cn * cn, cd * cd))
    diff = a.keys() ^ b.keys()
    if not diff:
        return cap, False
    # the patches agree at radius r exactly when r^2 < m = mn / md
    # (m <= cap^2), so the largest such r on the grid is cap j / 2^16 with
    # j^2 < m 2^32 / cap^2
    mn = md = None
    for key in diff:
        num, den = a[key] if key in a else b[key]
        if mn is None or num * md < mn * den:
            mn, md = num, den
    j = max(isqrt_ceil_ratio((mn << 32) * cd * cd, md * cn * cn) - 1, 0)
    return Q(cn * j, cd << 16), False


def _size_cap(terms, radius) -> bool:
    """Whether radius > 0 and d_O(phi, 1), d_O(psi, 1) <= s = 1/(2 radius),
    exactly, for the pair's terms as _pair_size_cap takes them:
    sqrt p + sqrt q <= s iff e = s^2 - p - q >= 0 and 4pq <= e^2.  For
    radius = rn / rd, p = P / K and q = R / K over K = pd qd, the int
    E = 4 rn^2 K e = rd^2 K - 4 rn^2 (P + R) has the sign of e, and
    4pq <= e^2 iff 64 rn^4 P R <= E^2."""
    rn, rd = radius.numerator, radius.denominator
    if rn <= 0:
        return False
    r4 = 4 * rn * rn
    for (pn, pd), (qn, qd) in terms:
        p, q = pn * qd, qn * pd
        e = rd * rd * pd * qd - r4 * (p + q)
        if e < 0 or 4 * r4 * r4 * p * q > e * e:
            return False
    return True


def _upper(radius) -> float:
    """The reported bound min{ln(3/2), ln(1 + 1/r)} of a witness radius r."""
    return min(LN_3_2, math.log1p(1.0 / float(radius)))


def default_candidates(t1: PeriodicTiling, t2: PeriodicTiling, origin) -> list:
    """Identity pair plus the half-shift pairs for each anchor translation.

    Anchors: from the first vertex of tile 0 of T to that of tile 0 of T',
    and to every tile of T' that is a translate of tile 0 of T (a shift may
    reorder the canonical tiles); each also reduced to [-1/2, 1/2)^n."""
    frame = t1.frame
    ident = identity_iso(frame)
    pairs = [(ident, ident)]
    anchors = [vsub(t2.cell_tiles[0].vertices[0], t1.cell_tiles[0].vertices[0])]
    d, cells = _int_vertices((t1.cell_tiles[0],) + t2.cell_tiles)
    anchors += [tuple(Q(x - y, d) for x, y in zip(pts[0], cells[0][0])) for pts in cells[1:]
                if _shape(pts) == _shape(cells[0])]
    taus = set()
    for v in anchors:
        # x - floor(x + 1/2) lies in [-1/2, 1/2)
        taus.update((v, tuple(x - (2 * x.numerator + x.denominator) // (2 * x.denominator)
                              for x in v)))
    for tau in taus:
        if all(x == 0 for x in tau):
            continue
        # x -> x +- tau / 2 is (m x +- T) / m over m = 2 e, for tau = T / e
        e, t = integral(tau)
        a = tuple(tuple(2 * e * x for x in row) for row in ident._ints[1])
        pairs.append((Isometry._of_ints(frame, 2 * e, a, t, frame),
                      Isometry._of_ints(frame, 2 * e, a, tuple(-x for x in t), frame)))
    return pairs


def distance_upper_bound(origin, t1: PeriodicTiling, t2: PeriodicTiling) -> DistanceBound:
    """Certified upper bound for d_O(T, T') from a finite witness set.

    Exact 0 for equal tilings; otherwise the best min{ln(3/2), ln(1+1/r)}
    over the default candidate pairs, r read off one patch pair at the cap
    (on the grid cap j / 2^16) subject to the 1/(2r) size constraint."""
    if t1.frame != t2.frame:
        raise ValueError("tilings must share a frame; conjugate one first")
    origin = vec(origin, t1.dim)
    if tilings_equal(t1, t2):
        w = (identity_iso(t1.frame), identity_iso(t1.frame), RADIUS_CAP, True)
        return DistanceBound(origin, 0.0, witness=w, tiling_a=t1, tiling_b=t2)
    found, o = [], integral(origin)
    for phi, psi in default_candidates(t1, t2, origin):
        terms = _int_terms(phi, *o), _int_terms(psi, *o)
        r, glob = _pair_match_radius(t1, phi, t2, psi, origin, _pair_size_cap(terms))
        if _size_cap(terms, r):
            found.append((phi, psi, r, glob))
    best = min(found, key=lambda w: _upper(w[2]), default=None)  # the first of the least
    upper = LN_3_2 if best is None else _upper(best[2])
    return DistanceBound(origin, upper, witness=best, tiling_a=t1, tiling_b=t2)


class WitnessError(ValueError):
    pass


def verify_witness(bound: DistanceBound) -> bool:
    """Re-verify a distance witness exactly (rational radius, frames, size
    caps, patch equality): False unless phi and psi are endomorphisms of the
    tilings' one frame and the origin has its dimension."""
    if bound.witness is None:
        return True
    phi, psi, radius, glob = bound.witness
    t1, t2, origin = bound.tiling_a, bound.tiling_b, bound.origin
    if isinstance(radius, bool) or not isinstance(radius, (int, Q)):
        return False
    if not (len(origin) == t1.dim and
            t1.frame == t2.frame == phi.frame == phi.target == psi.frame == psi.target):
        return False
    o = integral(vec(origin))
    if not _size_cap((_int_terms(phi, *o), _int_terms(psi, *o)), radius):
        return False
    a, b = _int_image(t1, phi), _int_image(t2, psi)
    if glob:
        return _normalizes_lattice(phi) and _normalizes_lattice(psi) and _image_keys(a) == _image_keys(b)
    r2 = radius.numerator ** 2, radius.denominator ** 2
    return (_pulled_back(t1, a, _preimage(phi, *o), r2).keys()
            == _pulled_back(t2, b, _preimage(psi, *o), r2).keys())


def combine_witnesses(w1: DistanceBound, w2: DistanceBound) -> DistanceBound:
    """Triangle-inequality composition of witnesses for (T,T') and (T',T'').

    Produces the pair (chi phi, (chi psi chi^-1) omega) at the radius
    r0 = r r' / (r + r') and re-verifies it exactly before returning."""
    if w1.witness is None or w2.witness is None:
        raise WitnessError("both inputs need witnesses")
    if vec(w1.origin) != vec(w2.origin):
        raise WitnessError("witnesses must share the origin")
    if not tilings_equal(w1.tiling_b, w2.tiling_a):
        raise WitnessError("witness chains must share the middle tiling")
    phi, psi, r1, g1 = w1.witness
    chi, omega, r2, g2 = w2.witness
    if r1 <= 2 or r2 <= 2:
        raise WitnessError("composition requires both radii > 2")
    r0 = r1 * r2 / (r1 + r2)
    psi_new = compose(compose(chi, compose(psi, inverse(chi))), omega)
    combined = DistanceBound(w1.origin, _upper(r0), (compose(chi, phi), psi_new, r0, g1 and g2),
                             tiling_a=w1.tiling_a, tiling_b=w2.tiling_b)
    if not verify_witness(combined):
        raise WitnessError("combined witness failed exact re-verification")
    return combined
