import json
import random
import time
from itertools import product

import pytest

from crystile import cli as cli_mod
from crystile import tiling as tiling_mod
from crystile.cli import main
from crystile.linalg import identity_mat, mat_vec, vadd, vsub
from crystile.rational import Q, rat_json
from crystile.serialize import (
    group_from_json,
    group_to_json,
    isometry_from_json,
    isometry_to_json,
    tiling_from_json,
    tiling_to_json,
    write_json_file,
)
from crystile.groups import preset
from crystile.isometry import translation_iso
from crystile.svg import window_cells
from crystile.tiling import tilings_equal, transform_tiling

from conftest import seed0_construction


@pytest.fixture
def square_file(tmp_path, square_tiling):
    path = tmp_path / "square.json"
    write_json_file(str(path), tiling_to_json(square_tiling))
    return str(path)


@pytest.fixture
def rhomb_file(tmp_path, rhomb_tiling):
    path = tmp_path / "rhomb.json"
    write_json_file(str(path), tiling_to_json(rhomb_tiling))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_serialize_group_roundtrip():
    g = preset("p4g")
    back = group_from_json(group_to_json(g))
    assert back.reps == g.reps and back.frame == g.frame


def test_serialize_tiling_roundtrip(square_tiling):
    back = tiling_from_json(tiling_to_json(square_tiling))
    assert tilings_equal(back, square_tiling)


def test_serialize_isometry_roundtrip(frame2):
    iso = translation_iso(frame2, (Q(1, 3), Q(-2, 7)))
    back = isometry_from_json(isometry_to_json(iso), frame2)
    assert back == iso


def test_preset_list(capsys):
    code, out, _ = run_cli(capsys, "preset-list")
    assert code == 0
    data = json.loads(out)
    names = [p["name"] for p in data["presets"]]
    assert len([n for n in names if n[0].islower()]) == 17


def test_construct_and_aut(tmp_path, capsys):
    out_file = str(tmp_path / "t.json")
    svg_file = str(tmp_path / "t.svg")
    code, out, _ = run_cli(
        capsys, "construct", "--group", "p1", "--seed", "0",
        "--out", out_file, "--svg", svg_file,
    )
    assert code == 0
    assert json.loads(out)["point_group_order"] == 1
    code, out, _ = run_cli(capsys, "aut", out_file)
    assert code == 0
    assert json.loads(out)["point_group_order"] == 1
    svg = open(svg_file).read()
    assert svg.startswith("<svg") and "proto-" in svg


def test_construct_and_aut_on_the_line(tmp_path, capsys):
    group_file = tmp_path / "mirror.json"
    group_file.write_text(json.dumps({
        "dim": 1, "gram": [[1]],
        "reps": [{"linear": [[1]], "translation": [0]},
                 {"linear": [[-1]], "translation": [0]}],
    }))
    out_file = str(tmp_path / "t.json")
    code, _, _ = run_cli(capsys, "construct", "--group", str(group_file), "--out", out_file)
    assert code == 0
    code, out, _ = run_cli(capsys, "aut", out_file)
    assert code == 0
    assert json.loads(out)["point_group_order"] == 2


def test_construct_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run_cli(capsys, "construct", "--group", "p4", "--seed", "3", "--out", a)
    run_cli(capsys, "construct", "--group", "p4", "--seed", "3", "--out", b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_construct_reports_verified_order(capsys, count_calls):
    # the point-group order comes from construct_tiling's verified
    # postcondition, so Aut is computed once; the stdout bytes are pinned
    auts = count_calls(tiling_mod, "automorphism_group")
    code, out, _ = run_cli(capsys, "construct", "--group", "p4g")
    assert code == 0
    assert out == (
        '{\n  "out": null,\n  "point_group_order": 8,\n  "prototiles": 4,\n'
        '  "svg": null,\n  "tiles_per_cell": 32\n}\n'
    )
    assert auts == ["automorphism_group"]


def test_emitted_tiling_revalidates(tmp_path, capsys):
    out_file = str(tmp_path / "v.json")
    code, _, _ = run_cli(
        capsys, "voronoi", "--group", "p4m", "--seed", "1", "--out", out_file
    )
    assert code == 0
    tiling = tiling_from_json(json.load(open(out_file)))  # validates on load
    assert len(tiling.cell_tiles) == 8


def test_mld_square_rhomb(square_file, rhomb_file, capsys):
    code, out, _ = run_cli(capsys, "mld", square_file, rhomb_file)
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] is None
    assert data["translation_mld"] is True


def test_mld_shifted_square(tmp_path, square_tiling, square_file, capsys, frame2):
    shifted = transform_tiling(square_tiling, translation_iso(frame2, (Q(1, 10), 0)))
    other = str(tmp_path / "shifted.json")
    write_json_file(other, tiling_to_json(shifted))
    code, out, _ = run_cli(capsys, "mld", square_file, other)
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] is not None
    assert data["gamma"]["linear"] == [[1, 0], [0, 1]]


@pytest.mark.parametrize("order", ["2d-3d", "3d-2d"])
def test_mld_across_dimensions_is_input_error(tmp_path, order, capsys, count_calls):
    # tilings of different dimension are an input error, as a frame mismatch
    # is for ld and distance, found before any automorphism group is computed
    files = {}
    for name in ("p2", "P1"):
        files[name] = str(tmp_path / f"{name}.json")
        write_json_file(files[name], tiling_to_json(seed0_construction(name)))
    auts = count_calls(tiling_mod, "automorphism_group_with_embedding")
    pair = (files["p2"], files["P1"]) if order == "2d-3d" else (files["P1"], files["p2"])
    code, out, err = run_cli(capsys, "mld", *pair)
    assert code == 2 and out == "" and "input error" in err
    assert auts == []


def test_mld_computes_each_automorphism_group_once(tmp_path, capsys, count_calls, monkeypatch):
    # both verdicts come from one Aut per tiling: 2 calls, where deciding
    # them by mld_check and then translation_mld_check made 4, and the same
    # stdout, byte for byte
    files = []
    for name in ("a", "b"):
        files.append(str(tmp_path / f"{name}.json"))
        write_json_file(files[-1], tiling_to_json(seed0_construction("p4m")))
    auts = count_calls(tiling_mod, "automorphism_group_with_embedding")
    code, out, err = run_cli(capsys, "mld", *files)
    assert code == 0 and err == "" and len(auts) == 2
    monkeypatch.setattr(cli_mod, "_mld_verdicts", lambda a, b: (
        tiling_mod.mld_check(a, b), tiling_mod.translation_mld_check(a, b)))
    auts.clear()
    assert run_cli(capsys, "mld", *files) == (0, out, "")
    assert len(auts) == 4
    assert json.loads(out)["gamma"] is not None and json.loads(out)["translation_mld"] is True


def test_ld_cli(square_file, rhomb_file, capsys):
    code, out, _ = run_cli(capsys, "ld", rhomb_file, square_file)
    assert code == 0
    data = json.loads(out)
    assert data["ld"] is True and data["covering_sq"] == "1/2"


def test_distance_cli(square_file, rhomb_file, capsys):
    code, out, _ = run_cli(
        capsys, "distance", square_file, rhomb_file, "--origin", "1/2,1/2"
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["upper"] - 0.4054651081) < 1e-9


def test_orbit_cli(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--group", "p4m", "--point", "1/5,1/10", "--radius2", "1/4"
    )
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_validate_group_rejects_shear(tmp_path, capsys):
    bad = tmp_path / "shear.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "gram": [[1, 0], [0, 1]],
        "reps": [{"linear": [[1, 1], [0, 1]], "translation": [0, 0]}],
    }))
    code, out, err = run_cli(capsys, "validate-group", str(bad))
    assert code == 2
    assert "Gram-orthogonal" in err


def test_validate_group_accepts_preset_file(tmp_path, capsys):
    path = tmp_path / "p6m.json"
    write_json_file(str(path), group_to_json(preset("p6m")))
    code, out, _ = run_cli(capsys, "validate-group", str(path))
    assert code == 0
    assert len(json.loads(out)["reps"]) == 12


# a group name and a provenance kind are written back as given, so a value
# that is not a string is refused (an object name was echoed with exit 0)
NOT_STRINGS = {"object": {"x": [1, 2]}, "int": 5, "null": None, "list": ["p1"]}


@pytest.mark.parametrize("case", sorted(NOT_STRINGS))
def test_non_string_group_name_is_input_error(tmp_path, case, capsys):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"dim": 2, "gram": [[1, 0], [0, 1]], "reps": [],
                                "name": NOT_STRINGS[case]}))
    code, out, err = run_cli(capsys, "validate-group", str(path))
    assert code == 2 and out == ""
    assert "input error" in err and "name must be a string" in err


@pytest.mark.parametrize("case", sorted(NOT_STRINGS))
def test_non_string_provenance_kind_is_input_error(tmp_path, square_tiling, case, capsys):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({**tiling_to_json(square_tiling),
                                "provenance": {"kind": NOT_STRINGS[case]}}))
    code, out, err = run_cli(capsys, "aut", str(path))
    assert code == 2 and out == ""
    assert "input error" in err and "kind must be a string" in err


def test_string_name_and_kind_are_written_back(square_tiling):
    # an empty name is a name as given too
    for name in ("mine", ""):
        group = group_from_json({**group_to_json(preset("p1")), "name": name})
        assert group.name == name and group_to_json(group)["name"] == name
    data = {**tiling_to_json(square_tiling), "provenance": {"kind": "drawn"}}
    assert tiling_to_json(tiling_from_json(data))["provenance"] == {"kind": "drawn"}


@pytest.mark.parametrize("other", ["P1", "p6"])
def test_provenance_group_over_another_frame_is_input_error(tmp_path, other, capsys):
    # a provenance group must act on the tiling's frame: a 3D group, or a
    # hexagonal-frame group on the square p4 construction, is refused
    data = tiling_to_json(seed0_construction("p4"))
    data["provenance"]["group"] = group_to_json(preset(other))
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "aut", str(path))
    assert code == 2 and out == ""
    assert "input error" in err and "provenance group" in err


def test_degenerate_point_is_domain_failure(capsys):
    code, _, err = run_cli(
        capsys, "voronoi", "--group", "p4m", "--point", "0,0"
    )
    assert code == 1
    assert "domain failure" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "aut", "nope.json")
    assert code == 2


def test_truncated_file_is_input_error(tmp_path, square_file, capsys):
    trunc = tmp_path / "trunc.json"
    trunc.write_text(open(square_file).read()[:40])
    code, _, err = run_cli(capsys, "aut", str(trunc))
    assert code == 2
    assert "input error" in err


def test_render_cli(tmp_path, square_file, capsys):
    svg = str(tmp_path / "out.svg")
    code, out, _ = run_cli(
        capsys, "render", square_file, "--svg", svg, "--window", "-2", "-2", "2", "2"
    )
    assert code == 0
    content = open(svg).read()
    assert content.count("<path") >= 16
    # determinism
    svg2 = str(tmp_path / "out2.svg")
    run_cli(capsys, "render", square_file, "--svg", svg2, "--window", "-2", "-2", "2", "2")
    assert open(svg).read() == open(svg2).read()


@pytest.mark.parametrize("verb", ["aut", "validate-group"])
def test_directory_is_input_error(tmp_path, verb, capsys):
    code, _, err = run_cli(capsys, verb, str(tmp_path))
    assert code == 2
    assert "input error" in err


def valid_body(verb, n):
    # the p1 group or the unit-cube tiling of an n-dimensional frame, so that
    # only the dim or the Gram matrix can make the file malformed
    if verb == "validate-group":
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        return {"reps": [{"linear": eye, "translation": [0] * n}]}
    return {"cell_tiles": [{"vertices": [list(c) for c in product((0, 1), repeat=n)]}]}


EYE4 = [[int(i == j) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("verb,dim,gram", [
    ("validate-group", "x", [[1, 0], [0, 1]]),
    ("validate-group", 2, [[1, 2], [2, 1]]),
    ("validate-group", 0, []),
    ("aut", "x", [[1, 0], [0, 1]]),
    ("aut", 2, [[1, 2], [2, 1]]),
    ("aut", 0, []),
    # int() would truncate 2.5 to 2 and read True as 1
    ("validate-group", 2.5, [[1, 0], [0, 1]]),
    ("validate-group", True, [[1]]),
    ("aut", 2.5, [[1, 0], [0, 1]]),
    ("aut", True, [[1]]),
    # the polytope kernel is for n <= 3: a 4D group or tiling file
    ("validate-group", 4, EYE4),
    ("aut", 4, EYE4),
])
def test_bad_dim_or_gram_is_input_error(tmp_path, verb, dim, gram, capsys):
    body = valid_body(verb, len(gram))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": dim, "gram": gram, **body}))
    code, _, err = run_cli(capsys, verb, str(path))
    assert code == 2
    assert "input error" in err


def test_long_thin_tile_rejection_names_its_two_edges(tmp_path, capsys):
    # a volume-1 tile [0, W] x [0, 1/W] overlaps its W - 1 nearest lattice
    # translates; its ends match each other, its long edges match nothing
    w = 10 ** 4
    verts = [[0, 0], [w, 0], [0, f"1/{w}"], [w, f"1/{w}"]]
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"dim": 2, "gram": [[1, 0], [0, 1]],
                                "cell_tiles": [{"vertices": verts}]}))
    code, _, err = run_cli(capsys, "aut", str(path))
    assert code == 2
    lines = [ln for ln in err.splitlines() if ln.startswith("violation:")]
    assert lines == [
        f"violation: facet [(0, 0), ({w}, 0)] of tile 0 has no matching facet",
        f"violation: facet [(0, 1/{w}), ({w}, 1/{w})] of tile 0 has no matching facet",
    ]


def test_grid_gap_rejection_names_each_open_facet(tmp_path, capsys):
    # k x k boxes of 1/k x 1/(2k) fill the lower half of the cell: the
    # volume defect and the k bottom and k top edges, one line each
    k = 20
    boxes = [[[f"{i + a}/{k}", f"{j + b}/{2 * k}"] for a in (0, 1) for b in (0, 1)]
             for i in range(k) for j in range(k)]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"dim": 2, "gram": [[1, 0], [0, 1]],
                                "cell_tiles": [{"vertices": v} for v in boxes]}))
    code, _, err = run_cli(capsys, "aut", str(path))
    assert code == 2
    lines = [ln for ln in err.splitlines() if ln.startswith("violation:")]
    assert len(lines) == 2 * k + 1
    assert lines[0] == "violation: cell volumes sum to 1/2, expected 1"


@pytest.mark.parametrize("second", [[[0, 0], [1, 0], [0, 1], [1, 1]],
                                    [[1, 0], [2, 0], [1, 1], [2, 1]]],
                         ids=["twice", "translate"])
def test_repeated_tile_is_a_double_cover(tmp_path, second, capsys):
    # the unit square listed twice, or with its lattice translate, covers
    # the plane twice: the volume sum and every facet say so
    square = [[0, 0], [1, 0], [0, 1], [1, 1]]
    path = tmp_path / "double.json"
    path.write_text(json.dumps({"dim": 2, "gram": [[1, 0], [0, 1]],
                                "cell_tiles": [{"vertices": square}, {"vertices": second}]}))
    code, _, err = run_cli(capsys, "aut", str(path))
    assert code == 2
    lines = [ln for ln in err.splitlines() if ln.startswith("violation:")]
    assert lines[0] == "violation: cell volumes sum to 2, expected 1"
    assert len(lines) == 3


def test_violation_names_a_tile_by_its_index_in_the_file(tmp_path, capsys):
    # the file's second tile is a segment; sorted by their vertices, it
    # would come first, and the line said "tile 0"
    tiles = [[["1/2", 0], ["3/2", 0], ["1/2", 1], ["3/2", 1]], [[0, 0], [0, 1]]]
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"dim": 2, "gram": [[1, 0], [0, 1]],
                                "cell_tiles": [{"vertices": v} for v in tiles]}))
    code, _, err = run_cli(capsys, "aut", str(path))
    assert code == 2
    assert [ln for ln in err.splitlines() if ln.startswith("violation:")] == [
        "violation: tile 1 is not full-dimensional"]


@pytest.mark.parametrize("token", ['"1e3000000"', "9" * 5000, '"%s/3"' % ("9" * 5000),
                                   '"%s"' % ("x" * 5000)],
                         ids=["exponent", "digits", "long-numerator", "long-string"])
def test_oversized_rational_is_input_error(tmp_path, token, capsys):
    # "1e3000000" is no documented form, and a 5,000-digit int is past
    # Python's int_max_str_digits: both are refused at once, before any big
    # number is built.  The message echoes a short prefix of a long value
    # and its length, not the whole value (once a 5,000-byte line)
    path = tmp_path / "big.json"
    path.write_text('{"dim": 2, "gram": [[1, 0], [0, 1]], "cell_tiles": '
                    '[{"vertices": [[0, 0], [1, 0], [0, 1], [1, %s]]}]}' % token)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "aut", str(path))
    assert code == 2 and "input error" in err
    assert time.perf_counter() - start < 1
    assert all(len(line.encode()) < 200 for line in err.replace(str(path), "").splitlines())


# fields that replace those of a valid square-tiling file
MALFORMED_TILING = {
    "provenance-int": {"provenance": 5},
    "provenance-list": {"provenance": [1]},
    "base-cell-no-vertices": {"provenance": {"kind": "voronoi", "base_cell": {}}},
    "tile-no-vertices": {"cell_tiles": [{"vertices": []}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TILING))
def test_malformed_tiling_file_is_input_error(tmp_path, square_tiling, case, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**tiling_to_json(square_tiling), **MALFORMED_TILING[case]}))
    code, _, err = run_cli(capsys, "aut", str(path))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("r2", ["0", "-1", "257", "10000"])
def test_orbit_radius_out_of_bounds_is_input_error(r2, capsys):
    code, _, err = run_cli(
        capsys, "orbit", "--group", "p6m", "--point", "1/5,1/10", "--radius2", r2
    )
    assert code == 2
    assert "input error" in err and "256" in err


@pytest.mark.parametrize("argv", [
    ["voronoi", "--group"],
    ["construct", "--group"],
    ["orbit", "--point", "1/5,1/7,1/9,1/11", "--radius2", "1", "--group"],
], ids=["voronoi", "construct", "orbit"])
def test_4d_group_file_is_input_error(tmp_path, argv, capsys):
    # voronoi and construct died in faces with a RecursionError, and orbit
    # certified the orbit with a clip that is exact for n <= 3 only
    path = tmp_path / "g4.json"
    path.write_text(json.dumps({"dim": 4, "gram": EYE4, **valid_body("validate-group", 4)}))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert "input error" in err and "1, 2 or 3" in err


# windows that are not finite, not ordered, or span more than RENDER_MAX_CELLS
# lattice cells (+-10^6 ran for minutes; inf raised OverflowError); the cell
# cap is on renderings, so construct and voronoi are given --svg for it
BAD_WINDOWS = {
    "huge": ["0", "0", "1000000", "1000000"],
    "inf": ["0", "0", "inf", "1"],
    "nan": ["nan", "0", "1", "1"],
    "x-reversed": ["1", "0", "0", "1"],
    "y-empty": ["0", "1", "1", "1"],
}


@pytest.mark.parametrize("case", sorted(BAD_WINDOWS))
@pytest.mark.parametrize("verb", ["voronoi", "construct", "render"])
def test_bad_window_is_input_error(tmp_path, square_file, verb, case, capsys):
    if verb == "render":
        argv = ["render", square_file, "--svg", str(tmp_path / "out.svg")]
    else:
        argv = [verb, "--group", "p6m", *(["--svg", str(tmp_path / "out.svg")] if case == "huge" else [])]
    code, out, err = run_cli(capsys, *argv, "--window", *BAD_WINDOWS[case])
    assert code == 2 and out == ""
    assert "input error" in err and "--window" in err
    assert not (tmp_path / "out.svg").exists()


def test_window_within_the_cell_cap_renders(square_file, tmp_path, capsys):
    # the largest square window within the cap renders; one step more is refused
    frame = preset("p1").frame
    assert window_cells(frame, (-3, -3, 3, 3)) == 121
    assert window_cells(frame, (-29, -29, 29, 29)) == 63 ** 2 <= cli_mod.RENDER_MAX_CELLS
    assert window_cells(frame, (-30, -30, 30, 30)) > cli_mod.RENDER_MAX_CELLS
    svg = str(tmp_path / "out.svg")
    code, _, _ = run_cli(capsys, "render", square_file, "--svg", svg,
                         "--window", "-29", "-29", "29", "29")
    assert code == 0
    code, _, err = run_cli(capsys, "render", square_file, "--svg", svg,
                           "--window", "-30", "-30", "30", "30")
    assert code == 2 and "RENDER_MAX_CELLS" in err


def test_cell_cap_applies_to_renderings_only(tmp_path, capsys):
    # a p2 lattice this oblique spans 18079495 cells in the default window:
    # it constructs without --svg, and only a rendering is refused
    near = "999999/1000000"
    path = tmp_path / "oblique.json"
    path.write_text(json.dumps({**group_to_json(preset("p2")), "gram": [[1, near], [near, 1]]}))
    code, out, _ = run_cli(capsys, "construct", "--group", str(path), "--seed", "0")
    assert code == 0 and json.loads(out)["point_group_order"] == 2
    svg = tmp_path / "out.svg"
    code, out, err = run_cli(capsys, "construct", "--group", str(path), "--svg", str(svg))
    assert code == 2 and out == "" and "RENDER_MAX_CELLS" in err
    assert not svg.exists()


@pytest.mark.parametrize("verb", ["construct", "voronoi", "render"])
def test_svg_of_a_non_planar_tiling_is_input_error(tmp_path, verb, capsys, count_calls):
    # construct built the whole P1 construction before the renderer refused
    # it (exit 1), and render of a 3D file exited 1 through a ValueError
    built = count_calls(cli_mod, "construct_tiling")
    count_calls(cli_mod, "voronoi_tiling", calls=built)
    svg = tmp_path / "out.svg"
    if verb == "render":
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({"dim": 3, "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                    **valid_body("aut", 3)}))
        argv = ["render", str(path)]
    else:
        argv = [verb, "--group", "P1"]
    code, out, err = run_cli(capsys, *argv, "--svg", str(svg))
    assert code == 2 and out == ""
    assert "input error" in err and "--svg" in err
    assert built == [] and not svg.exists()


# each verb's output flag, given a directory: construct wrote --out, and
# voronoi and render wrote --svg, into an IsADirectoryError traceback
OUTPUT_FLAGS = {
    "construct-out": ["construct", "--group", "p1", "--out"],
    "voronoi-svg": ["voronoi", "--group", "p2", "--svg"],
    "render-svg": ["render", "<square>", "--svg"],
}


@pytest.mark.parametrize("case", sorted(OUTPUT_FLAGS))
def test_unwritable_output_path_is_input_error(tmp_path, square_file, case, capsys):
    argv = [square_file if a == "<square>" else a for a in OUTPUT_FLAGS[case]]
    code, out, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 2 and out == ""
    assert "input error:" in err and "Traceback" not in err


def _pm3m_file(path, translation):
    """Pm-3m as a group file whose rep (M, v) has the translation
    translation(M, v)."""
    reps = [{"linear": [[int(x) for x in row] for row in m],
             "translation": [rat_json(x) for x in translation(m, v)]}
            for m, v in preset("Pm-3m").reps]
    path.write_text(json.dumps({"dim": 3, "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                "reps": reps}))


def test_pm3m_file_with_huge_stray_denominators_is_rejected_fast(tmp_path, capsys):
    # each of the 47 non-identity reps gets its own random ~4,000-digit
    # denominator: the Fraction pair loop took about 6 s on them, the
    # generators' common denominator rejects them at once
    rng = random.Random(1)

    def translation(m, v):
        if m == identity_mat(3):
            return v
        q = rng.randrange(10 ** 3999, 10 ** 4000)
        return [Q(rng.randrange(1, q), q) for _ in range(3)]

    path = tmp_path / "hostile.json"
    _pm3m_file(path, translation)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "validate-group", str(path))
    assert code == 2
    assert err.splitlines() == ["violation: closure failure: product translation differs mod lattice"]
    assert time.perf_counter() - start < 3


def test_pm3m_file_shifted_by_a_huge_denominator_is_accepted(tmp_path, capsys):
    # the origin shift s has 2,100-digit denominators, so the translations
    # s - M s have denominators of up to 4,200 digits: the Fraction pair
    # loop took 2-4 s, the int pass over their common denominator less
    rng = random.Random(2)
    qs = [rng.randrange(10 ** 2099, 10 ** 2100) for _ in range(3)]
    s = tuple(Q(rng.randrange(1, q), q) for q in qs)
    path = tmp_path / "shifted.json"
    _pm3m_file(path, lambda m, v: vadd(vsub(s, mat_vec(m, s)), v))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "validate-group", str(path))
    assert code == 0
    assert time.perf_counter() - start < 5
    assert len(json.loads(out)["reps"]) == 48
