"""Hostile files for every verb that reads a file: the preset group files,
the seed-0 construction files and isometry files with one or two
mutations, each a field dropped, retyped or duplicated, a rational
perturbed, or a rational given a huge denominator.  validate-group reads
mutated preset group files, and construct and voronoi mutated wallpaper
group files as --group; aut, render, ld, mld and distance read a mutated
seed-0 construction file (aut in 3D too), the two-tiling verbs beside the
unmutated file; and ld reads a mutated --gamma isometry file, where the
Gram rule refuses outside values.  Every run ends with exit code 0, 1 or 2
and no traceback.  A JSON object in place of a vector or a matrix, whose
keys iteration would read as one, is an input error for every verb that
reads a file: exit 2."""

import copy
import json
import re
import time
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crystile import polytope as polytope_mod
from crystile.cli import main
from crystile.groups import DEMO3D_NAMES, PRESET_NAMES, WALLPAPER_NAMES, preset
from crystile.rational import Q, rat_json
from crystile.serialize import (MAX_CELL_TILES, MAX_HULL_WORK, MAX_TILE_VERTICES, SchemaError, dump_json,
                                 group_to_json, isometry_to_json, parse_matrix, parse_vector,
                                 tiling_to_json)

from conftest import seed0_construction

# no zero denominator: "1/0" is among OTHER_VALUES, and perturbing it would fail in Q
RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")
OTHER_VALUES = [None, True, 1.5, "x", "1/0", [], {}, 0, -7, [[1, 0], [0, 1]]]
FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@lru_cache(maxsize=None)
def group_text(name):
    return dump_json(group_to_json(preset(name)))


@lru_cache(maxsize=None)
def tiling_text(name):
    return dump_json(tiling_to_json(seed0_construction(name)))


def _paths(node, path=()):
    """The path (keys and indices) of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _is_rational(value):
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, str) and RATIONAL.fullmatch(value) is not None)


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def mutated(draw, text):
    """The JSON of text with one or two mutations."""
    data = json.loads(text)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["drop", "retype", "duplicate", "perturb", "huge"]))
        paths = list(_paths(data))
        if kind == "duplicate":
            paths = [p for p in paths if isinstance(_at(data, p[:-1]), list)]
        elif kind in ("perturb", "huge"):
            paths = [p for p in paths if _is_rational(_at(data, p))]
        if not paths:
            continue
        *head, key = draw(st.sampled_from(paths))
        parent = _at(data, head)
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            # a copy: a shared list from OTHER_VALUES that a later mutation edits
            # could come to hold itself
            parent[key] = copy.deepcopy(draw(st.sampled_from([v for v in OTHER_VALUES
                                                               if type(v) is not type(parent[key])])))
        elif kind == "duplicate":
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            step = (draw(st.sampled_from([Q(1, 7), Q(-1, 3), Q(1, 2), Q(-1)])) if kind == "perturb"
                    else Q(1, 10 ** draw(st.integers(20, 2000)) + 1))
            parent[key] = rat_json(Q(parent[key]) + step)
    return data


def write(tmp_path, name, data):
    """data (JSON text, or a value to dump) in the file tmp_path/name, as a str path."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def run_main(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def run_on(tmp_path, capsys, verb, data):
    run_main(capsys, [verb, write(tmp_path, "hostile.json", data)])


@FUZZ
@given(st.data())
def test_validate_group_survives_mutated_preset_files(tmp_path, capsys, data):
    name = data.draw(st.sampled_from(PRESET_NAMES))
    run_on(tmp_path, capsys, "validate-group", data.draw(mutated(group_text(name))))


@FUZZ
@given(st.data())
def test_aut_survives_mutated_construction_files(tmp_path, capsys, data):
    # the dimension is drawn first, so half the files are P1, P222 or Pm-3m
    name = data.draw(st.sampled_from(data.draw(st.sampled_from([WALLPAPER_NAMES, DEMO3D_NAMES]))))
    run_on(tmp_path, capsys, "aut", data.draw(mutated(tiling_text(name))))


@FUZZ
@given(st.data())
def test_render_survives_mutated_construction_files(tmp_path, capsys, data):
    name = data.draw(st.sampled_from(WALLPAPER_NAMES))
    tiling = write(tmp_path, "hostile.json", data.draw(mutated(tiling_text(name))))
    run_main(capsys, ["render", tiling, "--svg", str(tmp_path / "out.svg")])


@FUZZ
@given(st.data())
def test_construct_and_voronoi_survive_mutated_group_files(tmp_path, capsys, data):
    verb = data.draw(st.sampled_from(["construct", "voronoi"]))
    name = data.draw(st.sampled_from(WALLPAPER_NAMES))
    group = write(tmp_path, "hostile.json", data.draw(mutated(group_text(name))))
    run_main(capsys, [verb, "--group", group])


@FUZZ
@given(st.data())
def test_two_tiling_verbs_survive_one_mutated_construction_file(tmp_path, capsys, data):
    verb = data.draw(st.sampled_from(["ld", "mld", "distance"]))
    name = data.draw(st.sampled_from(WALLPAPER_NAMES))
    files = [write(tmp_path, "a.json", tiling_text(name)),
             write(tmp_path, "b.json", data.draw(mutated(tiling_text(name))))]
    if data.draw(st.booleans()):
        files.reverse()
    run_main(capsys, [verb, *files])


@FUZZ
@given(st.data())
def test_ld_survives_mutated_gamma_files(tmp_path, capsys, data):
    # an element of the tiling's group, so that the unmutated file is gamma-LD
    name = data.draw(st.sampled_from(WALLPAPER_NAMES))
    g = preset(name)
    gamma = dump_json(isometry_to_json(g.element(data.draw(st.sampled_from(g.point_parts())))))
    tiling = write(tmp_path, "a.json", tiling_text(name))
    run_main(capsys, ["ld", tiling, tiling, "--gamma",
                      write(tmp_path, "gamma.json", data.draw(mutated(gamma)))])


def test_construct_and_voronoi_refuse_a_gram_far_outside_crystallographic_scale(tmp_path, capsys):
    # a Gram entry of 10^-20 (the "huge" mutation) made the localization's
    # ball query span about 10^10 lattice points, and the run ended in a
    # MemoryError traceback; the ball query now refuses the box
    data = json.loads(group_text("p1"))
    data["gram"][0][0] = rat_json(Q(1, 10 ** 20 + 1))
    group = write(tmp_path, "tiny.json", data)
    for verb in ("construct", "voronoi"):
        capsys.readouterr()
        assert main([verb, "--group", group]) == 1
        assert "MAX_BALL_POINTS" in capsys.readouterr().err


# --- objects where vectors and matrices go ---------------------------------------

def as_object(value):
    """A JSON object whose keys, iterated, read as the vector or matrix value:
    the keys "0", "00", ... (zeros) of a vector, or each row "a,b" of a
    matrix, made distinct by trailing spaces."""
    if value and isinstance(value[0], list):
        return {",".join(map(str, row)) + " " * i: 0 for i, row in enumerate(value)}
    return {"0" * (i + 1): x for i, x in enumerate(value)}


def test_parse_vector_and_matrix_refuse_objects():
    # iterating an object reads its keys, which parsed as a vector and a matrix
    with pytest.raises(SchemaError, match="JSON array"):
        parse_vector({"0": 0, "1": 0}, 2)
    with pytest.raises(SchemaError, match="JSON array"):
        parse_matrix({"1,0": 0, "0,1": 0}, 2)
    for value in (5, None, ("1", "2")):
        with pytest.raises(SchemaError, match="JSON array"):
            parse_vector(value, 2)
    assert parse_vector("1, -1/2", 2) == parse_vector([1, "-1/2"], 2) == (1, Q(-1, 2))
    assert parse_matrix([[1, 0], "0,1"], 2) == ((1, 0), (0, 1))


GROUP_SPOTS = [("gram",), ("reps", 1, "linear"), ("reps", 1, "translation")]
TILING_SPOTS = [("gram",), ("cell_tiles", 0, "vertices", 0), ("cell_tiles", 0, "vertices"),
                ("provenance", "base_point"), ("provenance", "base_cell", "vertices", 0),
                ("provenance", "apex")] + [("provenance", "group") + p for p in GROUP_SPOTS]


def with_object(text, path):
    """The JSON of text with the value at path made an object (as_object)."""
    data = json.loads(text)
    *head, key = path
    _at(data, head)[key] = as_object(_at(data, path))
    return data


def refused(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, "Traceback" in err, "JSON array" in err) == (2, False, True), (argv, err)


@pytest.mark.parametrize("path", GROUP_SPOTS)
def test_group_verbs_refuse_an_object_for_a_vector_or_matrix(tmp_path, capsys, path):
    # validate-group printed the identity group for a gram and a translation
    # given as objects, with exit 0
    group = write(tmp_path, "g.json", with_object(group_text("p4m"), path))
    for argv in (["validate-group", group], ["construct", "--group", group],
                 ["voronoi", "--group", group],
                 ["orbit", "--group", group, "--point", "1/5,1/10", "--radius2", "1/4"]):
        refused(capsys, argv)


@pytest.mark.parametrize("path", TILING_SPOTS)
def test_tiling_verbs_refuse_an_object_for_a_vector_or_matrix(tmp_path, capsys, path):
    # aut accepted a tiling file with a vertex {"0": 0, "1": 0}, with exit 0
    good = write(tmp_path, "a.json", tiling_text("p4m"))
    bad = write(tmp_path, "b.json", with_object(tiling_text("p4m"), path))
    refused(capsys, ["aut", bad])
    refused(capsys, ["render", bad, "--svg", str(tmp_path / "out.svg")])
    for verb in ("ld", "mld", "distance"):
        refused(capsys, [verb, bad, good])
        refused(capsys, [verb, good, bad])


@pytest.mark.parametrize("key", ["linear", "translation"])
def test_ld_refuses_an_object_in_the_gamma_file(tmp_path, capsys, key):
    g = preset("p4m")
    gamma = write(tmp_path, "gamma.json",
                  with_object(dump_json(isometry_to_json(g.element(g.point_parts()[1]))), (key,)))
    tiling = write(tmp_path, "a.json", tiling_text("p4m"))
    refused(capsys, ["ld", tiling, tiling, "--gamma", gamma])


# --- caps at the file boundary ------------------------------------------------------

def square_listed(count, provenance=None):
    """A p1 tiling file whose one tile, the unit square, lists `count` points
    of its boundary (corners included, 4 <= count <= 256), or, past 256,
    those 256 and count - 256 interior points; with provenance if given."""
    side = [Q(i, 64) for i in range(64)]
    pts = [p for t in side for p in ((t, 0), (1, t), (1 - t, 1), (0, 1 - t))]
    if count < 256:
        pts = pts[:count]
    pts += [(Q(1, 2), Q(i + 1, count)) for i in range(count - 256)]
    data = {"dim": 2, "gram": [[1, 0], [0, 1]],
            "cell_tiles": [{"vertices": [[rat_json(x) for x in p] for p in pts]}]}
    if provenance is not None:
        data["provenance"] = provenance
    return data


def refused_at_once(tmp_path, capsys, count_calls, data, cap):
    """aut on the file exits 2 within 0.5 s with one stderr line naming the
    cap, and hulls nothing."""
    hulls = count_calls(polytope_mod, "_hull")
    path = write(tmp_path, "capped.json", data)
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["aut", path])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert (code, hulls) == (2, [])
    assert elapsed < 0.5
    assert err.count("\n") == 1 and cap in err
    return err


def test_a_tile_past_the_vertex_cap_is_refused_before_any_hull(tmp_path, capsys, count_calls):
    err = refused_at_once(tmp_path, capsys, count_calls, square_listed(MAX_TILE_VERTICES + 1),
                          "MAX_TILE_VERTICES = 256")
    assert "257 vertices" in err


def test_a_base_cell_past_the_vertex_cap_is_refused_before_any_hull(tmp_path, capsys, count_calls):
    # the cell tiles are within the caps; the provenance base cell is not
    base_cell = square_listed(MAX_TILE_VERTICES + 1)["cell_tiles"][0]
    refused_at_once(tmp_path, capsys, count_calls,
                    square_listed(4, {"kind": "voronoi", "base_cell": base_cell}), "MAX_TILE_VERTICES = 256")


def test_a_file_past_the_tile_cap_is_refused_before_any_hull(tmp_path, capsys, count_calls):
    data = square_listed(4)
    data["cell_tiles"] *= MAX_CELL_TILES + 1
    err = refused_at_once(tmp_path, capsys, count_calls, data, "MAX_CELL_TILES = 16384")
    assert "16385 cell tiles" in err


def test_a_file_past_the_hull_work_cap_is_refused_before_any_hull(tmp_path, capsys, count_calls):
    # 16 tiles at the vertex cap make 16 * 256^2 = MAX_HULL_WORK; a 4-vertex
    # base cell, or a 17th tile, passes it
    base_cell = square_listed(4)["cell_tiles"][0]
    data = square_listed(MAX_TILE_VERTICES, {"kind": "voronoi", "base_cell": base_cell})
    data["cell_tiles"] *= 16
    assert 16 * MAX_TILE_VERTICES ** 2 == MAX_HULL_WORK
    err = refused_at_once(tmp_path, capsys, count_calls, data, "MAX_HULL_WORK = 1048576")
    assert "sum to 1048592" in err
    del data["provenance"]
    data["cell_tiles"].append(data["cell_tiles"][0])
    err = refused_at_once(tmp_path, capsys, count_calls, data, "MAX_HULL_WORK = 1048576")
    assert "sum to 1114112" in err


def test_a_tile_at_the_vertex_cap_is_hulled(tmp_path, capsys, count_calls):
    # 256 listed points of the unit square hull to its 4 corners: a valid
    # tiling, whose automorphisms have the point group of the square
    hulls = count_calls(polytope_mod, "_hull")
    data = square_listed(MAX_TILE_VERTICES)
    assert len(data["cell_tiles"][0]["vertices"]) == 256
    capsys.readouterr()
    assert main(["aut", write(tmp_path, "square.json", data)]) == 0
    assert len(hulls) == 1
    assert len(json.loads(capsys.readouterr().out)["group"]["reps"]) == 8
