"""crystile command line: group validation, orbits, Voronoi and constructed
tilings, automorphism groups, LD/MLD decisions, distance bounds, rendering.

One verb per process; composition through JSON files.  Machine-readable
results go to stdout, diagnostics to stderr.  Exit codes: 0 success
(including null "none" results), 1 domain failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .rational import rat_json
from .isometry import IsometryError, identity_iso
from .groups import (
    CrystalGroup,
    GroupValidationError,
    PRESET_NAMES,
    is_symmorphic,
    orbit_in_ball,
    generic_point,
    preset,
    stabilizer,
)
from .voronoi import DegenerateSiteError, UnboundedCellError, voronoi_tiling, delone_params
from .tiling import (
    TilingValidationError,
    _mld_verdicts,
    automorphism_group,
    distance_upper_bound,
    ld_check,
    prototiles,
)
from .construction import ConstructionError, construct_tiling
from . import serialize as io
from .svg import window_cells, write_svg


# Cap on `orbit --radius2` (p6m, Fraction backend, 2-vCPU host: about 2 s at
# 256, over 20 s at 10000).
ORBIT_MAX_RADIUS2 = 256

# Cap on the lattice cells that the `--window` of an SVG spans (svg.window_cells;
# the default window spans 121-195).  Rendering the p6m construction, 36
# tiles per cell, on a 2-vCPU host: about 1 s at 1073 cells (window +-10),
# 7 s at 7575 (+-30).
RENDER_MAX_CELLS = 4096
WINDOW_HELP = (f"Cartesian render window: finite, X0 < X1, Y0 < Y1; with --svg, spanning at most "
               f"{RENDER_MAX_CELLS} lattice cells")


class InputError(Exception):
    pass


def _load_group(spec: str) -> CrystalGroup:
    if spec in PRESET_NAMES:
        return preset(spec)
    if os.path.exists(spec):
        return io.group_from_json(io.load_json_file(spec))
    raise InputError(f"--group {spec!r} is neither a preset nor a file")


def _load_tiling(path: str):
    if not os.path.exists(path):
        raise InputError(f"no such tiling file: {path}")
    return io.tiling_from_json(io.load_json_file(path))


def _emit(payload: dict) -> None:
    sys.stdout.write(io.dump_json(payload))


def _point_flag(args, group, flag_value, seed):
    if flag_value:
        return io.parse_vector(flag_value, group.dim)
    return generic_point(group, seed)


def _check_render(svg, window, frame) -> None:
    """A render window is finite with x0 < x1 and y0 < y1; --svg renders
    planar tilings only, and its window spans at most RENDER_MAX_CELLS
    lattice cells."""
    x0, y0, x1, y1 = window
    if not all(math.isfinite(w) for w in window) or not (x0 < x1 and y0 < y1):
        raise InputError(f"--window needs finite X0 < X1 and Y0 < Y1, got {window}")
    if svg and frame.dim != 2:
        raise InputError(f"--svg renders planar tilings only, not dimension {frame.dim}")
    if svg and (cells := window_cells(frame, window)) > RENDER_MAX_CELLS:
        raise InputError(
            f"--window spans {cells} lattice cells, more than RENDER_MAX_CELLS = {RENDER_MAX_CELLS}"
        )


def cmd_validate_group(args) -> int:
    data = io.load_json_file(args.file)
    group = io.group_from_json(data)
    _emit(io.group_to_json(group))
    return 0


def cmd_preset_list(args) -> int:
    out = []
    for name in PRESET_NAMES:
        g = preset(name)
        sym = is_symmorphic(g)
        out.append(
            {
                "name": name,
                "dim": g.dim,
                "point_group_order": g.order(),
                "symmorphic": sym is not None,
            }
        )
    _emit({"presets": out})
    return 0


def cmd_orbit(args) -> int:
    group = _load_group(args.group)
    x = io.parse_vector(args.point, group.dim)
    center = io.parse_vector(args.origin, group.dim) if args.origin else x
    r2 = io.parse_rational(args.radius2)
    if not 0 < r2 <= ORBIT_MAX_RADIUS2:
        raise InputError(f"--radius2 must lie in (0, {ORBIT_MAX_RADIUS2}], got {args.radius2}")
    orbit = orbit_in_ball(group, x, center, r2)
    cert = None
    if len(stabilizer(group, x)) == 1:
        c = delone_params(group, x)
        cert = {
            "min_sq_distance": rat_json(c.min_sq_distance),
            "covering_sq_radius": rat_json(c.covering_sq_radius),
        }
    _emit(
        {
            "sites": [io.vector_json(s) for s in orbit.sites],
            "count": len(orbit.sites),
            "delone": cert,
        }
    )
    return 0


def cmd_voronoi(args) -> int:
    group = _load_group(args.group)
    _check_render(args.svg, args.window, group.frame)
    x = _point_flag(args, group, args.point, args.seed)
    tiling = voronoi_tiling(group, x)
    _finish_tiling(args, tiling, automorphism_group(tiling).order())
    return 0


def cmd_construct(args) -> int:
    group = _load_group(args.group)
    _check_render(args.svg, args.window, group.frame)
    tiling = construct_tiling(group, args.seed)
    # construct_tiling has verified Aut(tiling) == group
    _finish_tiling(args, tiling, group.order())
    return 0


def _finish_tiling(args, tiling, point_group_order: int) -> None:
    if args.out:
        io.write_json_file(args.out, io.tiling_to_json(tiling))
    if args.svg:
        write_svg(args.svg, tiling, window=tuple(args.window))
    _emit(
        {
            "tiles_per_cell": len(tiling.cell_tiles),
            "prototiles": len(prototiles(tiling)),
            "point_group_order": point_group_order,
            "out": args.out,
            "svg": args.svg,
        }
    )


def cmd_aut(args) -> int:
    tiling = _load_tiling(args.tiling)
    group = automorphism_group(tiling)
    _emit(
        {
            "point_group_order": group.order(),
            "group": io.group_to_json(group),
            "symmorphic_origin": (
                io.vector_json(p) if (p := is_symmorphic(group)) is not None else None
            ),
        }
    )
    return 0


def cmd_ld(args) -> int:
    t1 = _load_tiling(args.a)
    t2 = _load_tiling(args.b)
    if args.gamma:
        gamma = io.isometry_from_json(
            io.load_json_file(args.gamma), t1.frame, target=t2.frame
        )
    else:
        if t1.frame != t2.frame:
            raise InputError("tilings use different frames; pass --gamma")
        gamma = identity_iso(t1.frame)
    res = ld_check(t1, t2, gamma)
    _emit(
        {
            "ld": res.holds,
            "radius": res.radius,
            "covering_sq": rat_json(res.covering_sq) if res.covering_sq is not None else None,
        }
    )
    return 0


def cmd_mld(args) -> int:
    t1 = _load_tiling(args.a)
    t2 = _load_tiling(args.b)
    if t1.dim != t2.dim:
        raise InputError(f"MLD compares tilings of one dimension, not {t1.dim} and {t2.dim}")
    gamma, translation_mld = _mld_verdicts(t1, t2)
    _emit(
        {
            "gamma": io.isometry_to_json(gamma) if gamma is not None else None,
            "translation_mld": translation_mld,
        }
    )
    return 0


def cmd_distance(args) -> int:
    t1 = _load_tiling(args.a)
    t2 = _load_tiling(args.b)
    if t1.frame != t2.frame:
        raise InputError("distance bounds need tilings in one frame")
    origin = io.parse_vector(args.origin, t1.dim) if args.origin else (0,) * t1.dim
    bound = distance_upper_bound(origin, t1, t2)
    witness = None
    if bound.witness is not None:
        phi, psi, radius, glob = bound.witness
        witness = {
            "phi": io.isometry_to_json(phi),
            "psi": io.isometry_to_json(psi),
            "radius": rat_json(radius),
            "global_match": glob,
        }
    _emit({"upper": bound.upper, "witness": witness})
    return 0


def cmd_render(args) -> int:
    tiling = _load_tiling(args.tiling)
    _check_render(args.svg, args.window, tiling.frame)
    write_svg(args.svg, tiling, window=tuple(args.window))
    _emit({"svg": args.svg, "tiles_per_cell": len(tiling.cell_tiles)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crystile", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    def add_common_out(sp):
        sp.add_argument("--out", default=None, help="write tiling JSON here")
        sp.add_argument("--svg", default=None, help="write an SVG rendering here")
        sp.add_argument(
            "--window", nargs=4, type=float, default=[-3.0, -3.0, 3.0, 3.0],
            metavar=("X0", "Y0", "X1", "Y1"), help=WINDOW_HELP,
        )

    sp = sub.add_parser("validate-group", help="canonicalize and check a group file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate_group)

    sp = sub.add_parser("preset-list", help="list built-in groups")
    sp.set_defaults(func=cmd_preset_list)

    sp = sub.add_parser("orbit", help="orbit points inside a ball")
    sp.add_argument("--group", required=True)
    sp.add_argument("--point", required=True, help='base point, e.g. "1/5,1/10"')
    sp.add_argument("--origin", default=None, help="ball center (default: the point)")
    sp.add_argument("--radius2", required=True,
                    help=f"squared radius in (0, {ORBIT_MAX_RADIUS2}], e.g. 1/4")
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("voronoi", help="Voronoi-cell tiling of an orbit")
    sp.add_argument("--group", required=True)
    sp.add_argument("--point", default=None)
    sp.add_argument("--seed", type=int, default=0)
    add_common_out(sp)
    sp.set_defaults(func=cmd_voronoi)

    sp = sub.add_parser("construct", help="tiling with prescribed automorphism group")
    sp.add_argument("--group", required=True)
    sp.add_argument("--seed", type=int, default=0)
    add_common_out(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("aut", help="automorphism group of a tiling file")
    sp.add_argument("tiling")
    sp.set_defaults(func=cmd_aut)

    sp = sub.add_parser("ld", help="local derivability test")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--gamma", default=None, help="isometry JSON file")
    sp.set_defaults(func=cmd_ld)

    sp = sub.add_parser("mld", help="mutual local derivability test")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_mld)

    sp = sub.add_parser("distance", help="certified tiling-distance upper bound")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--origin", default=None, help='origin point, e.g. "0,0"')
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("render", help="SVG rendering of a tiling file")
    sp.add_argument("tiling")
    sp.add_argument("--svg", required=True)
    sp.add_argument(
        "--window", nargs=4, type=float, default=[-3.0, -3.0, 3.0, 3.0],
        metavar=("X0", "Y0", "X1", "Y1"), help=WINDOW_HELP,
    )
    sp.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, io.SchemaError, GroupValidationError, TilingValidationError,
            IsometryError, OSError) as exc:
        if isinstance(exc, GroupValidationError):
            for v in exc.violations:
                print(f"violation: {v}", file=sys.stderr)
        elif isinstance(exc, TilingValidationError):
            for pb in exc.problems:
                print(f"violation: {pb}", file=sys.stderr)
        else:
            print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateSiteError, UnboundedCellError, ConstructionError, ValueError) as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
