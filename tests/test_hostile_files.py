"""Hostile files for every verb that reads a file: the preset group files,
the seed-0 construction files and isometry files with one or two
mutations, each a field dropped, retyped or duplicated, a rational
perturbed, or a rational given a huge denominator.  validate-group reads
mutated preset group files, and construct and voronoi mutated wallpaper
group files as --group; aut, render, ld, mld and distance read a mutated
seed-0 construction file (aut in 3D too), the two-tiling verbs beside the
unmutated file; and ld reads a mutated --gamma isometry file, where the
Gram rule refuses outside values.  Every run ends with exit code 0, 1 or 2
and no traceback."""

import copy
import json
import re
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from crystile.cli import main
from crystile.groups import DEMO3D_NAMES, PRESET_NAMES, WALLPAPER_NAMES, preset
from crystile.rational import Q, rat_json
from crystile.serialize import dump_json, group_to_json, isometry_to_json, tiling_to_json

from conftest import seed0_construction

RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
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
