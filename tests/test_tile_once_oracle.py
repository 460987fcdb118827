"""Differential oracle for construction tiles built once and keyed once.

`validate_tiling`, `_lattice_key`, `_fixes_tiling`, `_int_cells`,
`_translation_lattice`, `automorphism_group_with_embedding`,
`cone_subdivide` and `volume` below are the code before tile keys became
flat int tuples over one denominator, Aut found its translate candidates
through a shape index, cone images came out canonical from one move and
volumes were cached and carried, kept verbatim, names included: they
resolve each other here and the rest of the package through the imports,
so the old validation reads a fresh volume of every tile; their
`_int_closure` is conftest's breadth-first `table_int_closure`, not the
code under test.  `voronoi_tiling`
is the Voronoi pipeline before its cell images were moved once, as the
cones are, verbatim but for its local import.  `old_transform_tiling` and
`old_reexpress_over_lattice` are transform_tiling and the re-expression
before they moved each tile once, verbatim but for their names; they must
give the same tiles and embeddings under every coset rep of every preset's
seed-0 construction and Voronoi tiling with and without a shift, under a
rotation that re-expresses, and on the half-scale and quarter-square
tilings.  The new code must give the
same groups, embeddings, lattices, tiles (rows, facets and tight sets) and
problem lists on every preset's seed 0-2 construction and Voronoi tiling,
the half-scale tiling, the quarter-square tilings of
test_witness_oracle, the rejected tile lists of test_tiling and a rejected
list with tiles of different vertex counts, and on transform_tiling images
of all of those; its keys must decode to the old keys, its shape index must
group exactly the translates, and every carried volume must equal a fresh
one.  The translation lattice, which fully checks only the translates
outside the group of those accepted, must also match on the a x b grids
of 1/a by 1/b rectangles up to 8 x 8.  These references are also the ones that the Fraction-keyed Aut and
the Aut loop that fully checked every lattice automorphism gave way to.  validate_tiling must also reject
five mutants of each seed-0 wallpaper construction and Voronoi tiling,
with the old problem lists and the verdict of conftest.pairwise_problems,
and of the P1, P222 and Pm-3m seed-0 constructions with the old problem
lists.
"""

from math import factorial
from operator import sub

import pytest

from crystile import construction as construction_mod
from crystile import polytope as polytope_mod
from crystile import tiling as tiling_mod
from crystile import voronoi as voronoi_mod
from crystile.rational import Q, ZERO, rat_str
from crystile.linalg import (Mat, hermite_column_basis, identity_mat, int_dot, int_mat_vec,
                             mat_det, mat_mul, transpose, vdot, vec, vsub, zero_vec)
from crystile.isometry import (Frame, Isometry, IsometryError, compose, identity_iso, inverse,
                               standard_frame, translation_iso)
from crystile.groups import (PRESET_NAMES, WALLPAPER_NAMES, CrystalGroup, _lattice_isometries,
                             generic_point, lattice_isometries, preset)
from crystile.polytope import (ConvexPolytope, HalfSpace, PolytopeError, _cross, _facet_edges, _fan,
                               clip, faces)
from crystile.tiling import (PeriodicTiling, Provenance, _affine, _facet_problem, _int_vertices,
                             _key, _normalizes_lattice, _shape,
                             canonical_tile, periodic_tiling, reexpress_over_lattice,
                             transform_tiling)
from crystile.construction import GenericityCertificate, _cone, generic_apex
from crystile.voronoi import cell_with_certificate

from conftest import old_centroid, pairwise_problems, table_int_closure as _int_closure
from test_construction_oracle import CASES, _translate_match, tilings
from test_tiling import F2, REJECTED
from test_witness_oracle import FIXTURES


def _lattice_automorphisms(frame: Frame):
    """The int lattice automorphisms of frame, as the tiling module's
    per-frame cache of them gave them before groups kept them as ints."""
    return _lattice_isometries(frame, frame)


# --- the code before, verbatim ------------------------------------------------------

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
    for i, t in enumerate(tiles):
        vden, rows = t._den, t._rows  # a facet's vertices are rows of its tile
        for (on, _), (_, ac) in zip(_facet_edges(t), t._facets):
            held.setdefault(_lattice_key(vden, [rows[j] for j in on]), []).append((i, ac[:-1], on))
    # facets with one vertex set lie in one hyperplane, so their (int) covectors
    # are parallel and point opposite ways iff their dot product is negative
    problems += [_facet_problem(tiles, fs) for fs in held.values()
                 if len(fs) != 2 or int_dot(fs[0][1], fs[1][1]) >= 0]
    return problems


def _lattice_key(d, pts):
    """_key of the sorted int vertex tuples pts / d translated by the
    integer vector that puts the least of them in [0,1)^n (the floor shift
    (X // d) d): equal for vertex tuples equal mod the lattice."""
    shift = tuple(c // d * d for c in pts[0])
    if any(shift):
        pts = [tuple(map(sub, p, shift)) for p in pts]
    return _key(d, (c for p in pts for c in p))


def _fixes_tiling(d, cells, keys, m, c) -> bool:
    """Whether X -> m X + c, on the cell tiles' int vertices X = d x
    (_int_vertices), maps every cell tile onto a tile: its lattice key is
    one of the cell keys."""
    return all(_lattice_key(d, sorted(_affine(m, c, p) for p in pts)) in keys for pts in cells)


def _int_cells(tiling: PeriodicTiling):
    """(d, cells, keys): _int_vertices of the cell tiles and their keys."""
    d, cells = _int_vertices(tiling.cell_tiles)
    return d, cells, frozenset(_key(d, (c for p in pts for c in p)) for pts in cells)


def _translation_lattice(n, d, cells, keys):
    """maximal_translation_lattice of the tiling with _int_cells (d, cells, keys)."""
    one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    extra = []
    for pts in cells:
        v = _translate_match(cells[0], pts)
        if v is None or all(x % d == 0 for x in v):
            continue
        if _fixes_tiling(d, cells, keys, one, v):
            extra.append(v)
    if not extra:
        return identity_mat(n)
    cols = [tuple(d * x for x in col) for col in one] + extra
    basis = hermite_column_basis(cols)
    return transpose(tuple(tuple(Q(x, d) for x in col) for col in basis))


def automorphism_group_with_embedding(tiling: PeriodicTiling):
    """Aut(T) over its maximal translation lattice, plus the coordinate map
    from the group's frame back into the tiling's frame.

    Aut(T) is found from verified generators (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 4).  The Seitz pairs
    verified so far are closed mod the lattice as int pairs over the cell
    tiles' common denominator d (groups._int_closure), starting from the
    identity.  A lattice automorphism U whose point part lies in that
    closure is skipped: products of automorphisms are automorphisms.  Any
    other U gets the full check, for the translations that map cell tile 0
    onto a cell tile, and a U that passes joins the generators.  So Aut(T)
    is the closure at the end, with one translation class per point part,
    the lattice being maximal, and it is closed, so validate_group's closure
    pass would only re-prove it.  Each success at least doubles the
    closure, so at most log2 |P| full checks pass."""
    frame = tiling.frame
    d, cells, keys = _int_cells(tiling)
    basis = _translation_lattice(frame.dim, d, cells, keys)
    if basis != identity_mat(frame.dim):
        dense, embed = reexpress_over_lattice(tiling, basis)
        group, inner = automorphism_group_with_embedding(dense)
        return group, compose(embed, inner)
    gens, aut = [], _int_closure(frame.dim, d, [])
    for u in _lattice_automorphisms(frame):
        if any(m == u for m, _ in aut):
            continue
        image = sorted(int_mat_vec(u, p) for p in cells[0])
        for pts in cells:
            c = _translate_match(image, pts)
            if c is not None and _fixes_tiling(d, cells, keys, u, c):
                gens.append((u, c))
                aut = _int_closure(frame.dim, d, gens)
                break
    return CrystalGroup._of_ints(frame, d, aut), identity_iso(frame)


def cone_subdivide(group: CrystalGroup, base_point, cert: GenericityCertificate) -> PeriodicTiling:
    """Cut the Voronoi cell of base_point, cert.cell, into the cones over its
    facets from cert.apex, and map the cones by every coset representative.

    The cell must hold base_point strictly inside.  Tiles per unit cell
    become |reps| * (#facets of the cell); the output passes full tiling
    validation, the one check that the cell's images tile space.
    """
    base_point = vec(base_point)
    base = cert.cell
    if not base.strictly_contains(base_point):
        raise ValueError("the certificate's cell does not hold the base point strictly inside")
    n = base.frame.dim
    cones = [_cone(fpoly, h, cert.apex) for h, fpoly in zip(base._facets, faces(base, n - 1))]
    isos = [Isometry(group.frame, m, v) for m, v in group.reps]
    tiles = [cone.transform(iso) for iso in isos for cone in cones]
    return periodic_tiling(
        group.frame,
        tiles,
        provenance=Provenance(
            kind="cone_subdivision",
            group=group,
            base_point=base_point,
            base_cell=base,
            apex=cert.apex,
        ),
        validate=True,
    )


def voronoi_tiling(group: CrystalGroup, x):
    """Periodic Voronoi-cell tiling of the orbit of x (trivial stabilizer).

    Tiles per unit cell are the coset-representative images of the base
    cell; equivariance gives V_{gamma(x)} = gamma(V_x).
    """
    x = vec(x, group.dim)
    cell, _ = cell_with_certificate(group, x)
    tiles = [cell.transform(Isometry(group.frame, m, v)) for m, v in group.reps]
    prov = Provenance(kind="voronoi", group=group, base_point=x, base_cell=cell)
    return periodic_tiling(group.frame, tiles, provenance=prov, validate=True)


def volume(poly: ConvexPolytope):
    """Exact lattice-normalized volume (Euclidean volume / sqrt(det G)): sum
    |det| of the differences of the vertex rows P over V over _fan / n! V^n."""
    n = poly.frame.dim
    if poly.dim != n:
        raise PolytopeError("volume requires a full-dimensional polytope")
    vden, rows = poly._den, poly._rows
    total = 0
    for s in _fan(poly):
        base = rows[s[0]]
        total += abs(mat_det(tuple(tuple(map(sub, rows[i], base)) for i in s[1:])))
    return Q(total, factorial(n) * vden ** n)


def old_transform_tiling(tiling: PeriodicTiling, iso: Isometry) -> PeriodicTiling:
    """The tiling iso(T).

    When the linear part normalizes the lattice the result lives in the
    same frame; otherwise it is re-expressed in the image-lattice basis
    (the Gram matrix is unchanged since the linear part is an isometry).
    """
    if iso.frame != tiling.frame or iso.target != tiling.frame:
        raise IsometryError("isometry incompatible with the tiling frame")
    if _normalizes_lattice(iso):
        tiles = [t.transform(iso) for t in tiling.cell_tiles]
    else:
        # re-express over the image lattice: same Gram, tiles shifted by
        # L^-1 t, which is minus the translation of the inverse
        shift = tuple(-x for x in inverse(iso).translation)
        tiles = [t.translate(shift) for t in tiling.cell_tiles]
    return periodic_tiling(tiling.frame, tiles, validate=False)


def old_reexpress_over_lattice(tiling: PeriodicTiling, basis: Mat):
    """Rewrite the tiling in the coordinates of a denser translation lattice.

    `basis` columns give the new lattice in current coordinates.  Returns
    (tiling', embedding) where embedding maps new coordinates to old.
    """
    frame = tiling.frame
    new_gram = mat_mul(transpose(basis), mat_mul(frame.gram, basis))
    new_frame = Frame(frame.dim, new_gram)
    embed = Isometry(new_frame, basis, zero_vec(frame.dim), target=frame)
    pull = inverse(embed)
    # the old cell holds several cells of the denser lattice: keep one copy
    # of the tiles that agree modulo it
    tiles = {canonical_tile(t.transform(pull)) for t in tiling.cell_tiles}
    out = periodic_tiling(new_frame, tiles, validate=False)
    return out, embed


# --- inputs ---------------------------------------------------------------------------

H = Q(1, 2)
# a triangle and a square whose first three sorted rows have one shape: a
# shape index keyed on fewer rows than a tile has would group them
REJECTS = {**REJECTED, "mixed-counts": [ConvexPolytope(F2, pts) for pts in (
    [(0, 0), (0, H), (H, 0)], [(0, H), (H, 0), (H, H)],
    [(H, 0), (H, H), (1, 0), (1, H)], [(0, H), (0, 1), (1, H), (1, 1)])]}


def images(tiling):
    """transform_tiling images of the tiling: by a translation, and by a
    lattice automorphism of its frame followed by a translation."""
    frame, n = tiling.frame, tiling.dim
    u = lattice_isometries(frame, frame)[-1]
    return [transform_tiling(tiling, translation_iso(frame, (Q(1, 3), Q(-2, 7), Q(1, 5))[:n])),
            transform_tiling(tiling, Isometry(frame, u, (Q(1, 7), Q(2, 9), Q(-1, 4))[:n]))]


def assert_same(tiling):
    """The new keys, shape index, lattice, fixes tests, group, embedding and
    problem list against the old ones, and each carried volume against a
    fresh one."""
    frame, n = tiling.frame, tiling.dim
    carried = [t._volume for t in tiling.cell_tiles]
    d, cells, keys, shapes = tiling_mod._int_cells(tiling)
    old_d, old_cells, old_keys = _int_cells(tiling)
    assert (d, cells) == (old_d, old_cells)
    assert len(keys) == len(old_keys) and frozenset(_key(d, k) for k in keys) == old_keys
    # the index holds every cell once, and two cells share a shape exactly
    # when they are translates
    assert sorted(pts for group in shapes.values() for pts in group) == sorted(cells)
    shape_of = {pts: shape for shape, group in shapes.items() for pts in group}
    assert all(shape_of[pts] == _shape(pts) for pts in cells)
    for a in cells:
        for b in cells:
            assert (shape_of[a] == shape_of[b]) == (_translate_match(a, b) is not None)
    assert (tiling_mod._translation_lattice(n, d, cells, keys, shapes)
            == _translation_lattice(n, d, cells, old_keys))
    for u in _lattice_automorphisms(frame):
        image = sorted(int_mat_vec(u, p) for p in cells[0])
        for pts in cells[:3]:
            c = tuple(map(sub, pts[0], image[0]))
            assert tiling_mod._fixes_tiling(d, cells, keys, u, c) == _fixes_tiling(d, cells, old_keys, u, c)
    group, embed = tiling_mod.automorphism_group_with_embedding(tiling)
    old_group, old_embed = automorphism_group_with_embedding(tiling)
    assert group == old_group and group.reps == old_group.reps
    assert embed == old_embed and embed._ints == old_embed._ints
    assert tiling_mod.validate_tiling(tiling) == validate_tiling(tiling)
    for t, v in zip(tiling.cell_tiles, carried):
        assert v in (None, volume(t)) and polytope_mod.volume(t) == volume(t)


# --- the oracle ---------------------------------------------------------------------

@pytest.mark.parametrize("name, seed", CASES)
def test_keys_groups_and_problems_match_the_old_code(name, seed):
    construction, cells = tilings(name, seed)
    # every construction tile was validated, so each holds its volume
    assert all(t._volume is not None for t in construction.cell_tiles)
    for tiling in (construction, cells):
        for t in (tiling, *images(tiling)):
            assert_same(t)


def test_keys_groups_and_problems_match_on_the_half_scale_tiling(half_scale_tiling):
    # its lattice is (1/2) Z^2, so Aut takes the re-expression path
    assert tiling_mod._translation_lattice(2, *tiling_mod._int_cells(half_scale_tiling)) != identity_mat(2)
    assert tiling_mod.automorphism_group(half_scale_tiling).order() == 8
    for t in (half_scale_tiling, *images(half_scale_tiling)):
        assert_same(t)


def test_keys_groups_and_problems_match_on_the_quarter_squares():
    # four half-size squares per cell (A), with the top-right one cut into
    # two triangles one way (B) or the other (C)
    assert tiling_mod._translation_lattice(2, *tiling_mod._int_cells(FIXTURES["A"])) != identity_mat(2)
    for tiling in FIXTURES.values():
        for t in (tiling, *images(tiling)):
            assert_same(t)


def grid(a, b):
    """The a x b grid of 1/a by 1/b rectangles in the square frame."""
    frame = standard_frame(2)
    return periodic_tiling(frame, [ConvexPolytope(frame, [(Q(i + di, a), Q(j + dj, b))
                                                          for di in (0, 1) for dj in (0, 1)])
                                   for i in range(a) for j in range(b)])


@pytest.mark.parametrize("a", range(1, 9))
def test_translation_lattice_matches_the_old_code_on_grids(a):
    for b in range(1, 9):
        tiling = grid(a, b)
        basis = tiling_mod._translation_lattice(2, *tiling_mod._int_cells(tiling))
        assert basis == _translation_lattice(2, *_int_cells(tiling)) == ((Q(1, a), 0), (0, Q(1, b)))


def test_translation_lattice_fully_checks_two_translates_of_a_grid(count_calls):
    # the first two accepted translates of cell tile 0 generate the other
    # 397 of the 20 x 20 grid mod the lattice; each one took a full check
    cells = tiling_mod._int_cells(grid(20, 20))
    calls = count_calls(tiling_mod, "_fixes_tiling")
    assert tiling_mod._translation_lattice(2, *cells) == ((Q(1, 20), 0), (0, Q(1, 20)))
    assert len(calls) == 2


@pytest.mark.parametrize("case", sorted(REJECTS))
def test_keys_groups_and_problems_match_on_rejects(case):
    tiles = REJECTS[case]
    tiling = periodic_tiling(tiles[0].frame, tiles, validate=False)
    assert validate_tiling(tiling)
    for t in (tiling, *images(tiling)):
        assert_same(t)


def test_reexpressed_tiles_carry_no_volume(half_scale_tiling):
    # the dense lattice has a quarter of the covolume, so a quarter cell
    # has lattice-normalized volume 1 there: re-expression must not carry
    # the old frame's 1/4
    assert all(polytope_mod.volume(t) == H * H for t in half_scale_tiling.cell_tiles)
    dense, _ = reexpress_over_lattice(half_scale_tiling, ((H, 0), (0, H)))
    assert [polytope_mod.volume(t) for t in dense.cell_tiles] == [volume(t) for t in dense.cell_tiles] == [1]


@pytest.mark.parametrize("name, seed", CASES)
def test_cone_images_match_the_two_move_code(name, seed, count_calls):
    # one move per image gives the tiles, facets and tight sets that the
    # transform and the canonical shift gave, and each carries its cone's
    # volume, computed once per cone
    g = preset(name)
    x = generic_point(g, seed)
    cert = generic_apex(cell_with_certificate(g, x)[0], seed)
    moves, fans = count_calls(polytope_mod, "_moved"), count_calls(polytope_mod, "_fan")
    new = construction_mod.cone_subdivide(g, x, cert)
    assert len(moves) == len(new.cell_tiles) == len(fans) * len(g.reps)
    old = cone_subdivide(g, x, cert)
    assert new.cell_tiles == old.cell_tiles
    for a, b in zip(new.cell_tiles, old.cell_tiles):
        assert (a._den, a._rows, a._facets, a._tight) == (b._den, b._rows, b._facets, b._tight)
        assert a._volume == volume(b)
    p, q = new.provenance, old.provenance
    assert (p.kind, p.group, p.base_point, p.base_cell, p.apex) == (q.kind, q.group, q.base_point,
                                                                    q.base_cell, q.apex)


@pytest.mark.parametrize("name, seed", CASES)
def test_voronoi_images_match_the_two_move_code(name, seed, count_calls):
    # one move per cell image gives the tiles, facets and tight sets that the
    # transform and the canonical shift gave, and each carries the cell's
    # volume, computed once
    g = preset(name)
    x = generic_point(g, seed)
    moves, fans = count_calls(polytope_mod, "_moved"), count_calls(polytope_mod, "_fan")
    new = voronoi_mod.voronoi_tiling(g, x)
    assert len(moves) == len(new.cell_tiles) == len(g.reps) and len(fans) == 1
    old = voronoi_tiling(g, x)
    assert new.cell_tiles == old.cell_tiles
    for a, b in zip(new.cell_tiles, old.cell_tiles):
        assert (a._den, a._rows, a._facets, a._tight) == (b._den, b._rows, b._facets, b._tight)
        assert a._volume == volume(b)
    p, q = new.provenance, old.provenance
    assert (p.kind, p.group, p.base_point, p.base_cell) == (q.kind, q.group, q.base_point, q.base_cell)


SHIFT = (Q(1, 29), Q(-1, 31), Q(1, 37))
# a rotation of Z^2 that maps no lattice onto itself: the re-expression branch
ROTATION = ((Q(3, 5), Q(-4, 5)), (Q(4, 5), Q(3, 5)))


def assert_same_tiles(new, old):
    assert new.cell_tiles == old.cell_tiles
    for a, b in zip(new.cell_tiles, old.cell_tiles):
        assert (a._den, a._rows, a._facets, a._tight) == (b._den, b._rows, b._facets, b._tight)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_transformed_tiles_match_the_two_move_code(name):
    # one move per tile, already canonical, gives the tiles, facets and tight
    # sets that the transform and the canonical shift gave: under every coset
    # rep with and without a shift, and on the re-expression branch
    g = preset(name)
    shift = translation_iso(g.frame, SHIFT[:g.dim])
    isos = [iso for m in g.point_parts() for iso in (g.element(m), compose(shift, g.element(m)))]
    if g.frame.gram == identity_mat(2):
        isos += [Isometry(g.frame, ROTATION, (0, 0)), Isometry(g.frame, ROTATION, SHIFT[:2])]
    for tiling in tilings(name, 0):
        for iso in isos:
            assert_same_tiles(transform_tiling(tiling, iso), old_transform_tiling(tiling, iso))


def test_transform_tiling_moves_each_tile_once(count_calls):
    cases = [tilings(name, 0)[0] for name in ("p1", "p2", "p4m", "p6m", "pgg")]
    moves = count_calls(polytope_mod, "_moved")
    for tiling in cases:
        transform_tiling(tiling, translation_iso(tiling.frame, SHIFT[:2]))
    assert len(moves) == sum(len(t.cell_tiles) for t in cases) == 100


def test_reexpression_moves_each_tile_once(half_scale_tiling, count_calls):
    # the same tiles and embedding as the transform and the canonical shift
    # gave, with one move per old cell tile
    for tiling in (half_scale_tiling, FIXTURES["A"]):
        basis = tiling_mod._translation_lattice(2, *tiling_mod._int_cells(tiling))
        moves = count_calls(polytope_mod, "_moved")
        dense, embed = reexpress_over_lattice(tiling, basis)
        assert len(moves) == len(tiling.cell_tiles)
        old_dense, old_embed = old_reexpress_over_lattice(tiling, basis)
        assert embed == old_embed and embed._ints == old_embed._ints
        assert_same_tiles(dense, old_dense)
    assert len(half_scale_tiling.cell_tiles) == 4


# --- mutants ----------------------------------------------------------------------------

def mutants(tiling):
    """Tile lists of the tiling with a tile duplicated, a lattice translate of
    a tile added, a tile dropped, one vertex moved by a small rational, and
    a tile cut in two (cut)."""
    tiles = list(tiling.cell_tiles)
    t, n = tiles[0], tiling.dim
    moved = [tuple(c + Q(1, 101 + i) for i, c in enumerate(p)) for p in t.vertices[:1]]
    return {"duplicate": tiles + [t],
            "translate": tiles + [t.translate((1,) + (0,) * (n - 1))],
            "drop": tiles[1:],
            "moved-vertex": [ConvexPolytope(t.frame, moved + list(t.vertices[1:]))] + tiles[1:],
            "cut": cut(t) + tiles[1:]}


def cut(t):
    """The two parts of t on either side of a hyperplane through the vertex
    centroid f of its first facet F, a point of F's relative interior, and
    through p = c + (u - c) / 5 for t's vertex centroid c and F's first
    vertex u, an interior point off the line from f through c (so that on
    a centrally symmetric tile, whose translate across F has the facet
    opposite F, the cut does not also pass through 2c - f); in space the
    hyperplane also holds a coordinate axis.  It crosses F's hyperplane
    and splits F, whose neighbour then meets each part in a part of its own
    facet.  (A cut that splits no facet, such as a square's diagonal, gives
    a face-to-face tiling.)"""
    facet = faces(t, t.dim - 1)[0].vertices
    c, f = old_centroid(t.vertices), old_centroid(facet)
    d = vsub(tuple(x + (y - x) / 5 for x, y in zip(c, facet[0])), f)
    a = (-d[1], d[0]) if t.dim == 2 else next(filter(any, (_cross(d, e) for e in identity_mat(3))))
    return [clip(t, HalfSpace(a, vdot(a, f))), clip(t, HalfSpace(tuple(-x for x in a), -vdot(a, f)))]


@pytest.mark.parametrize("name", WALLPAPER_NAMES)
def test_validation_rejects_mutants_as_the_old_code_did(name):
    for tiling in tilings(name, 0):
        for kind, tiles in mutants(tiling).items():
            mutant = PeriodicTiling(frame=tiling.frame, cell_tiles=tuple(tiles))
            problems = tiling_mod.validate_tiling(mutant)
            assert problems and problems == validate_tiling(mutant), kind
            assert pairwise_problems(mutant), kind


@pytest.mark.parametrize("name", ["P1", "P222", "Pm-3m"])
def test_validation_rejects_mutants_in_space_as_the_old_code_did(name):
    # without pairwise_problems, which takes too long on these
    tiling = tilings(name, 0)[0]
    for kind, tiles in mutants(tiling).items():
        mutant = PeriodicTiling(frame=tiling.frame, cell_tiles=tuple(tiles))
        problems = tiling_mod.validate_tiling(mutant)
        assert problems and problems == validate_tiling(mutant), kind


def test_aut_finds_translates_through_the_shape_index(count_calls):
    # the translate candidates are read off the shape index, one _shape per
    # cell tile and per checked lattice automorphism; the translate scan,
    # which made one _translate_match call per cell tile and checked lattice
    # automorphism (1,955 in a construct-2d pass), is gone
    assert not hasattr(tiling_mod, "_translate_match")
    tiling = tilings("p6m", 0)[0]
    shapes = count_calls(tiling_mod, "_shape")
    group, _ = tiling_mod.automorphism_group_with_embedding(tiling)
    checked = len(shapes) - len(tiling.cell_tiles) - 1  # the cells and tile 0 for the lattice
    assert 1 <= checked < len(group.reps)
