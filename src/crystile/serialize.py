"""JSON schemas for groups, tilings, and isometries.

Rationals are written as plain ints when integral, else as "p/q" strings;
both forms (plus integer strings) parse back, and no other string does.
Their digits are capped by Python's int_max_str_digits.  A vector is an
array or an "a,b" string, a matrix an array of them; objects are refused.
A tiling file lists at most MAX_CELL_TILES cell tiles of at most
MAX_TILE_VERTICES vertices, and the squares of the vertex counts of its
tiles and provenance base cell sum to at most MAX_HULL_WORK (a hull of m
points takes about m^2 work), checked before any vertex is parsed or hulled.
"""

from __future__ import annotations

import json
import re

from .rational import rat, rat_json, _ratio_json
from .isometry import Frame, Isometry
from .groups import CrystalGroup, validate_group
from .polytope import ConvexPolytope, PolytopeError
from .tiling import PeriodicTiling, Provenance, periodic_tiling


MAX_TILE_VERTICES = 256
MAX_CELL_TILES = 16384
MAX_HULL_WORK = 1 << 20


class SchemaError(ValueError):
    pass


def _short(text: str) -> str:
    """text, or its first 40 characters and its length when it is longer:
    an error echoes a value without copying a huge one."""
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def parse_rational(value):
    # matched before any conversion, so a form like "1e3000000" costs nothing
    if (isinstance(value, (bool, float))
            or isinstance(value, str) and not re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", value)):
        raise SchemaError(f"rationals must be ints or 'p/q' strings, got {_short(repr(value))}")
    try:
        return rat(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {_short(repr(value))}: {_short(str(exc))}") from exc


def _array(value):
    """value if it is a JSON array (an object would iterate as its keys)."""
    if not isinstance(value, list):
        raise SchemaError(f"expected a JSON array, got {_short(repr(value))}")
    return value


def parse_vector(value, dim=None):
    if isinstance(value, str):  # as CLI flags give it: "a,b"
        value = [p for p in value.replace(" ", "").split(",") if p]
    out = tuple(parse_rational(p) for p in _array(value))
    if dim is not None and len(out) != dim:
        raise SchemaError(f"expected a {dim}-vector, got {len(out)} entries")
    return out


def parse_matrix(value, dim):
    rows = tuple(parse_vector(row, dim) for row in _array(value))
    if len(rows) != dim:
        raise SchemaError(f"expected a {dim}x{dim} matrix")
    return rows


def _frame_from_json(data: dict) -> Frame:
    """The frame of a group or tiling file.  A missing field raises KeyError;
    a dim that is not 1, 2 or 3 (a bool or float included, which int() would
    truncate) or a Gram matrix that is not symmetric positive definite is a
    SchemaError.  The polytope kernel is exact for n <= 3 only (clip's edge
    test, faces)."""
    if isinstance(data["dim"], (bool, float)):
        raise SchemaError(f"bad dim or gram: dim must be an integer, got {data['dim']!r}")
    try:
        dim = int(data["dim"])
        if dim not in (1, 2, 3):
            raise SchemaError(f"bad dim or gram: dim must be 1, 2 or 3, got {dim}")
        return Frame(dim, parse_matrix(data["gram"], dim))
    except SchemaError:
        raise
    except (ValueError, OverflowError) as exc:  # int() of a bad dim, or FrameError
        raise SchemaError(f"bad dim or gram: {exc}") from exc


def _label(data: dict, key: str, default=None):
    """The string data[key] (written back as given), or default if absent."""
    value = data.get(key, default)
    if key in data and not isinstance(value, str):
        raise SchemaError(f"{key} must be a string, got {_short(repr(value))}")
    return value


def vector_json(v):
    return [rat_json(x) for x in v]


def matrix_json(m):
    return [vector_json(row) for row in m]


# --- groups -------------------------------------------------------------------

def group_to_json(group: CrystalGroup) -> dict:
    d, pairs = group._ints
    out = {
        "dim": group.dim,
        "gram": matrix_json(group.frame.gram),
        "reps": [
            {"linear": [list(row) for row in m], "translation": [_ratio_json(x, d) for x in t]}
            for m, t in pairs
        ],
    }
    if group.name is not None:
        out["name"] = group.name
    return out


def group_from_json(data: dict) -> CrystalGroup:
    try:
        frame = _frame_from_json(data)
        dim = frame.dim
        pairs = [
            (parse_matrix(rep["linear"], dim), parse_vector(rep["translation"], dim))
            for rep in data["reps"]
        ]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed group file: {exc}") from exc
    return validate_group(frame, pairs, name=_label(data, "name"))


# --- tilings -------------------------------------------------------------------

def _tile_json(tile: ConvexPolytope) -> dict:
    """A tile's vertices, printed from its int rows over its denominator."""
    return {"vertices": [[_ratio_json(c, tile._den) for c in p] for p in tile._rows]}


def _tile_vertices(data: dict) -> list:
    """A tile's raw vertex array, at most MAX_TILE_VERTICES long."""
    vertices = _array(data["vertices"])
    if len(vertices) > MAX_TILE_VERTICES:
        raise SchemaError(f"a tile lists {len(vertices)} vertices, more than "
                          f"MAX_TILE_VERTICES = {MAX_TILE_VERTICES}")
    return vertices


def _tile_from_json(frame: Frame, vertices: list) -> ConvexPolytope:
    return ConvexPolytope(frame, [parse_vector(p, frame.dim) for p in vertices])


def tiling_to_json(tiling: PeriodicTiling) -> dict:
    out = {
        "dim": tiling.dim,
        "gram": matrix_json(tiling.frame.gram),
        "cell_tiles": [_tile_json(t) for t in tiling.cell_tiles],
    }
    prov = tiling.provenance
    if prov is not None:
        pj = {"kind": prov.kind}
        if prov.group is not None:
            pj["group"] = group_to_json(prov.group)
        if prov.base_point is not None:
            pj["base_point"] = vector_json(prov.base_point)
        if prov.base_cell is not None:
            pj["base_cell"] = _tile_json(prov.base_cell)
        if prov.apex is not None:
            pj["apex"] = vector_json(prov.apex)
        out["provenance"] = pj
    return out


def tiling_from_json(data: dict) -> PeriodicTiling:
    try:
        frame = _frame_from_json(data)
        cells = _array(data["cell_tiles"])
        if len(cells) > MAX_CELL_TILES:
            raise SchemaError(f"the file lists {len(cells)} cell tiles, more than "
                              f"MAX_CELL_TILES = {MAX_CELL_TILES}")
        pj = data.get("provenance")
        if pj is not None and not isinstance(pj, dict):
            raise SchemaError(f"provenance must be an object, got {pj!r}")
        # every cap is checked before a vertex is parsed
        cells = [_tile_vertices(t) for t in cells]
        base_cell = _tile_vertices(pj["base_cell"]) if pj and "base_cell" in pj else None
        work = sum(len(t) ** 2 for t in cells + [base_cell or []])
        if work > MAX_HULL_WORK:
            raise SchemaError(f"the squared vertex counts of the file's tiles sum to {work}, "
                              f"more than MAX_HULL_WORK = {MAX_HULL_WORK}")
        tiles = [_tile_from_json(frame, t) for t in cells]
        prov = None
        if pj:
            group = group_from_json(pj["group"]) if "group" in pj else None
            if group is not None and group.frame != frame:
                raise SchemaError("provenance group is over another frame than the tiling")
            prov = Provenance(
                kind=_label(pj, "kind", "unknown"),
                group=group,
                base_point=parse_vector(pj["base_point"], frame.dim) if "base_point" in pj else None,
                base_cell=None if base_cell is None else _tile_from_json(frame, base_cell),
                apex=parse_vector(pj["apex"], frame.dim) if "apex" in pj else None,
            )
    except (KeyError, TypeError, PolytopeError) as exc:  # PolytopeError: e.g. an empty tile
        raise SchemaError(f"malformed tiling file: {exc}") from exc
    return periodic_tiling(frame, tiles, provenance=prov)


# --- isometries ------------------------------------------------------------------

def isometry_to_json(iso: Isometry) -> dict:
    m, a, b = iso._ints
    return {"linear": [[_ratio_json(x, m) for x in row] for row in a],
            "translation": [_ratio_json(x, m) for x in b]}


def isometry_from_json(data: dict, frame: Frame, target: Frame = None) -> Isometry:
    try:
        dim = frame.dim
        lin = parse_matrix(data["linear"], dim)
        trans = parse_vector(data["translation"], dim)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed isometry: {exc}") from exc
    return Isometry(frame, lin, trans, target=target)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # a directory, an unreadable or a missing file
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    except ValueError as exc:  # an int past Python's int_max_str_digits
        raise SchemaError(f"{path}: {exc}") from exc


def write_json_file(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(obj))
