#!/usr/bin/env python3
"""Construct a tiling for every wallpaper group and render the gallery.

For each of the 17 groups: build the prescribed-automorphism-group tiling,
verify Aut == Gamma, and write JSON + SVG into gallery/ (or a given dir).
Also renders the undecorated Voronoi tilings for comparison.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from crystile.groups import WALLPAPER_NAMES, generic_point, preset
from crystile.construction import construct_tiling
from crystile.serialize import tiling_to_json, write_json_file
from crystile.svg import write_svg
from crystile.tiling import automorphism_group, prototiles
from crystile.voronoi import voronoi_tiling


def main() -> None:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "gallery")
    out.mkdir(parents=True, exist_ok=True)
    window = (-2.5, -2.5, 2.5, 2.5)
    for name in WALLPAPER_NAMES:
        group = preset(name)
        t0 = time.time()
        tiling = construct_tiling(group, seed=0)
        aut = automorphism_group(tiling)
        assert aut == group
        write_json_file(str(out / f"{name}.json"), tiling_to_json(tiling))
        write_svg(str(out / f"{name}.svg"), tiling, window=window)
        voro = voronoi_tiling(group, generic_point(group, 0))
        write_svg(str(out / f"{name}_voronoi.svg"), voro, window=window)
        print(
            f"{name:5s} tiles/cell={len(tiling.cell_tiles):3d} "
            f"prototiles={len(prototiles(tiling)):3d} "
            f"aut_order={aut.order():2d} ({time.time() - t0:.1f}s)"
        )
    print(f"gallery written to {out}/")


if __name__ == "__main__":
    main()
