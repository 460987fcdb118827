from itertools import product

import pytest

from crystile import groups, polytope, voronoi
from crystile.rational import Q, frac_part
from crystile.linalg import gram_norm2, mat_vec, vadd, vsub
from crystile.isometry import Frame, Isometry
from crystile.groups import (
    PRESET_NAMES,
    WALLPAPER_NAMES,
    generic_point,
    orbit_in_ball,
    preset,
    span_seitz,
)
from crystile.polytope import faces, volume
from crystile.voronoi import (
    DegenerateSiteError,
    _cell_with_localization,
    cell_with_certificate,
    delone_params,
    voronoi_cell,
    voronoi_tiling,
)
from crystile.tiling import prototiles

from test_delone_patch_oracle import check_rounds


def test_delone_z2():
    cert = delone_params(preset("p1"), (0, 0))
    assert cert.min_sq_distance == 1
    assert cert.covering_sq_radius == Q(1, 2)


def test_delone_scaled_lattice():
    frame = Frame(2, ((4, 0), (0, 4)))
    g = span_seitz(frame, [])
    cert = delone_params(g, (0, 0))
    assert cert.min_sq_distance == 4
    assert cert.covering_sq_radius == 2


def test_delone_p4m_generic_positive():
    g = preset("p4m")
    x = generic_point(g, 3)
    cert = delone_params(g, x)
    assert cert.min_sq_distance > 0
    assert cert.covering_sq_radius > 0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_delone_min_matches_brute_force(name):
    # the minimum read off the cell's facets against a scan of every site
    # m x + v + k with k in {-2..2}^n, (m x + v) reduced to [0,1)^n: the
    # site x + e_1 bounds the minimum by G_11 = 1, and every site within
    # squared distance 1 of x in [0,1)^n has coordinates within
    # sqrt((G^-1)_ii) <= 2/sqrt(3) of x, so the scan holds the nearest one
    g = preset(name)
    for seed in (0, 1, 2) if g.dim == 2 else (0,):
        x = generic_point(g, seed)
        sites = [vadd(tuple(frac_part(c) for c in vadd(mat_vec(m, x), v)), k)
                 for m, v in g.reps for k in product(range(-2, 3), repeat=g.dim)]
        brute = min(gram_norm2(g.frame.gram, vsub(s, x)) for s in sites if s != x)
        assert delone_params(g, x).min_sq_distance == brute


def test_delone_rejects_degenerate():
    with pytest.raises(DegenerateSiteError):
        delone_params(preset("p4m"), (0, 0))


def test_voronoi_cell_z2():
    cell = voronoi_cell(preset("p1"), (0, 0))
    h = Q(1, 2)
    assert set(cell.vertices) == {(-h, -h), (-h, h), (h, -h), (h, h)}


def test_voronoi_cell_hexagonal_lattice():
    # the lattice over the Gram [[2, -1], [-1, 2]], whose six nearest sites
    # +-(1, 0), +-(0, 1), +-(1, 1) hold the simplex (1, 0), (0, 1), (-1, -1):
    # the cell of the origin is the hexagon they cut, certified at the first
    # radius; forced to that radius, a quarter and a sixteenth of it, the
    # localization certifies exactly where the old box rounds did
    g = span_seitz(Frame(2, ((2, -1), (-1, 2))), [])
    cell, used, rho2 = _cell_with_localization(g, (0, 0), None, None)
    assert (used, rho2) == (8, Q(2, 3))
    t, u = Q(1, 3), Q(2, 3)
    assert set(cell.vertices) == {(t, u), (u, t), (t, -t), (-t, t), (-t, -u), (-u, -t)}
    check_rounds(g, (0, 0))


def test_voronoi_cell_rectangular_sites():
    # 2Z x Z as the lattice over the Gram diag(4, 1): the cell of the origin
    # is the rectangle |x_i| <= 1/2 in lattice coordinates, [-1, 1] x
    # [-1/2, 1/2] in Cartesian ones; the forced radii as above
    g = span_seitz(Frame(2, ((4, 0), (0, 1))), [])
    cell, used, rho2 = _cell_with_localization(g, (0, 0), None, None)
    assert (used, rho2) == (16, Q(5, 4))
    h = Q(1, 2)
    assert set(cell.vertices) == {(-h, -h), (-h, h), (h, -h), (h, h)}
    check_rounds(g, (0, 0))


def test_localization_doubling_stable():
    g = preset("p4m")
    x = generic_point(g, 5)
    cell, used = cell_with_certificate(g, x)
    again = voronoi_cell(g, x, sq_radius=4 * used)
    assert again == cell


def test_voronoi_equivariance():
    g = preset("p4m")
    x = generic_point(g, 2)
    base = voronoi_cell(g, x)
    for m, v in g.reps:
        iso = Isometry(g.frame, m, v)
        assert voronoi_cell(g, x, x0=iso(x)) == base.transform(iso)


def test_voronoi_tiling_p1():
    t = voronoi_tiling(preset("p1"), (0, 0))
    assert len(t.cell_tiles) == 1
    assert volume(t.cell_tiles[0]) == 1


def test_voronoi_tiling_p4m_generic():
    g = preset("p4m")
    t = voronoi_tiling(g, generic_point(g, 1))
    assert len(t.cell_tiles) == 8
    assert len(prototiles(t)) == 1
    assert sum(volume(p) for p in t.cell_tiles) == 1


def test_voronoi_tiling_p2_two_cells():
    g = preset("p2")
    t = voronoi_tiling(g, generic_point(g, 1))
    assert len(t.cell_tiles) == 2


def test_voronoi_tiling_rejects_degenerate():
    with pytest.raises(DegenerateSiteError):
        voronoi_tiling(preset("p4m"), (0, 0))


def test_simplicity_bound_all_presets():
    # prototile count never exceeds the point-group order
    for name in ("p1", "p2", "pm", "p4", "p4m", "p3", "p6"):
        g = preset(name)
        t = voronoi_tiling(g, generic_point(g, 0))
        assert len(prototiles(t)) <= g.order()


def test_group_inside_voronoi_automorphisms():
    # the defining group always embeds in the tiling's automorphism group
    from crystile.isometry import compose, identity_iso, inverse
    from crystile.groups import is_conjugate_subgroup
    from crystile.tiling import automorphism_group_with_embedding

    for name in WALLPAPER_NAMES:
        g = preset(name)
        vt = voronoi_tiling(g, generic_point(g, 1))
        aut, emb = automorphism_group_with_embedding(vt)
        bridge = compose(inverse(emb), identity_iso(g.frame))
        assert is_conjugate_subgroup(g, aut, bridge), name


def test_hexagonal_voronoi_cell_is_hexagon(hexframe):
    g = span_seitz(hexframe, [])
    cell = voronoi_cell(g, (0, 0))
    assert len(cell.vertices) == 6


def test_delone_bounds_cover_grid():
    # every sampled point sits within the covering radius of the orbit,
    # and distinct sites have positive separation, for every preset
    for name in WALLPAPER_NAMES:
        g = preset(name)
        x = generic_point(g, 4)
        cert = delone_params(g, x)
        assert cert.min_sq_distance > 0, name
        for i in range(3):
            for j in range(3):
                y = (Q(i, 3), Q(j, 3))
                near = orbit_in_ball(g, x, y, cert.covering_sq_radius)
                assert near.sites, f"{name}: no orbit point within covering radius of {y}"


def test_voronoi_cell_rejects_foreign_point():
    with pytest.raises(ValueError):
        voronoi_cell(preset("p1"), (0, 0), x0=(Q(1, 3), 0))


def test_p222_cells_carry_their_facets(count_calls):
    # the cell is clipped from the lattice-translate cell with its facets
    # known throughout, so no halfspace intersection runs
    calls = count_calls(polytope, "halfspace_intersection")
    g = preset("P222")
    x = generic_point(g, 0)
    delone_params(g, x)
    assert len(faces(voronoi_cell(g, x), 2)) > 0
    assert calls == []


# the clips of the seed-0 cells that change the cell (clip returns a new polytope);
# from the box the P222 cell took 15, three of them by the bisectors of x0 +- e_i
SEED0_CUTS = {"P222": 12, "Pm-3m": 4, "p6m": 3}


@pytest.mark.parametrize("name, clips", [("P222", 44), ("Pm-3m", 283), ("p6m", 24)])
def test_certified_cell_stops_clipping_beyond_twice_the_circumradius(name, clips, monkeypatch):
    # no site beyond twice the running circumradius can cut the cell, so the
    # clipping stops there; clipping by every site made 123, 1608 and 174
    # calls.  The site order and the stop rule fix both counts.  The cell
    # code clips through the int body _clip.
    real = voronoi._clip
    cut = []

    def counted(poly, h):
        out = real(poly, h)
        cut.append(out is not poly)
        return out

    monkeypatch.setattr(voronoi, "_clip", counted)
    g = preset(name)
    cell_with_certificate(g, generic_point(g, 0))
    assert (len(cut), sum(cut)) == (clips, SEED0_CUTS[name])


def test_delone_params_calls_the_traced_orbit_query_and_clip(monkeypatch):
    # the bench tracer counts voronoi.localization_rounds and
    # voronoi.orbit_sites from the orbit_in_ball calls that delone_params
    # makes through voronoi's binding; a refactor that bypassed it would
    # zero them.  For the first Delone point of the space-3d benchmark at
    # seed 0 the one query at 2 max g_ii = 2 fetches 58 sites, where the
    # box round at 4 fetched 124, and the clips stop after the same 28.
    orbits, clips = [], []
    real_orbit, real_clip = voronoi.orbit_in_ball, voronoi._clip

    def orbit(*args):
        out = real_orbit(*args)
        orbits.append(len(out.sites))
        return out

    monkeypatch.setattr(voronoi, "orbit_in_ball", orbit)
    monkeypatch.setattr(voronoi, "_clip", lambda *args: clips.append(1) or real_clip(*args))
    x = (Q(18, 47), Q(29, 43), Q(12, 19))
    cert = delone_params(preset("P222"), x)
    assert orbits == [58]
    assert len(clips) == 28
    assert cert.localization_sq_radius == 4


def test_delone_params_forms_no_site_fractions_and_rereads_few_radii(count_calls):
    # the localization reads the orbit's int sites, so no site's Q tuple is
    # formed: groups.Q makes only the stabilizer's identity translation (3),
    # where forming the 58 sites would make 174 more.  The circumradius is
    # re-read only when a clip cuts off the farthest vertex: 5 reads, where
    # reading it after every cut would make 13 (the start cell, then 12 of
    # the 28 clips); from the box the same rule read it 10 times
    g = preset("P222")
    q_calls = count_calls(groups, "Q")
    radii = count_calls(voronoi, "_farthest_vertex")
    delone_params(g, (Q(18, 47), Q(29, 43), Q(12, 19)))
    assert len(q_calls) == 3
    assert len(radii) == 5


def test_space3d_pass_fetches_few_sites(monkeypatch):
    # one seed-0 pass of the space-3d benchmark: construct P1, a patch of it
    # and the ten P222 Delone certificates.  From the lattice-translate cell,
    # with a second orbit query only where the sites within 2 max g_ii run
    # out uncertified (once here), the cells fetch 602 orbit sites in 12
    # queries, clip 324 times, cut 120 times and re-read the circumradius 59
    # times; the box rounds fetched 1,338 sites in 11 queries, clipped 324
    # times, cut 150 times and re-read 113.  The second query clips only
    # the sites past the first radius: clipping all of them made 342 clips
    from crystile.construction import construct_tiling
    from crystile.tiling import patch
    from test_voronoi_oracle import DELONE_POINTS

    sites, cuts, reads = [], [], []
    real_orbit, real_clip, real_far = voronoi.orbit_in_ball, voronoi._clip, voronoi._farthest_vertex

    def orbit(*args):
        out = real_orbit(*args)
        sites.append(len(out._ints[1]))
        return out

    def clip(poly, h):
        out = real_clip(poly, h)
        cuts.append(out is not poly)
        return out

    monkeypatch.setattr(voronoi, "orbit_in_ball", orbit)
    monkeypatch.setattr(voronoi, "_clip", clip)
    monkeypatch.setattr(voronoi, "_farthest_vertex", lambda *args: reads.append(1) or real_far(*args))
    patch(construct_tiling(preset("P1"), 0), (Q(15, 17), Q(16, 37), Q(3, 11)), 1)
    for x in DELONE_POINTS:
        delone_params(preset("P222"), tuple(Q(c) for c in x))
    assert (sum(sites), len(sites), len(cuts), sum(cuts), len(reads)) == (602, 12, 324, 120, 59)
