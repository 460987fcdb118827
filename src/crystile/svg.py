"""SVG emission for planar tilings: one path per tile, classed by prototile."""

from __future__ import annotations

import math

from .isometry import embedding, embedding_inv
from .tiling import PeriodicTiling, prototile_index

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
    "#86bcb6", "#d37295",
)


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


def _linear(m):
    """(x, y) |-> m (x, y) in floats, for a 2x2 matrix m read once."""
    (a, b), (c, d) = m.tolist()
    return lambda x, y: (a * x + b * y, c * x + d * y)


def _cell_range(frame, window):
    """(lo, hi): per frame axis, the least and greatest lattice-cell offset
    whose cell can reach the Cartesian window (finite) of a planar frame."""
    x0, y0, x1, y1 = (float(w) for w in window)
    corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    to_frame = _linear(embedding_inv(frame))
    pre = [to_frame(*c) for c in corners]
    lo = [math.floor(min(p[i] for p in pre)) - 2 for i in range(2)]
    hi = [math.ceil(max(p[i] for p in pre)) + 2 for i in range(2)]
    return lo, hi


def window_cells(frame, window) -> int:
    """The number of lattice cells tiling_svg visits for a finite window."""
    lo, hi = _cell_range(frame, window)
    return (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)


def tiling_svg(tiling: PeriodicTiling, window=(-3.0, -3.0, 3.0, 3.0)) -> str:
    """Deterministic SVG of the tiles meeting a Cartesian window."""
    if tiling.dim != 2:
        raise ValueError("SVG rendering is for planar tilings")
    x0, y0, x1, y1 = (float(w) for w in window)
    classes = prototile_index(tiling)
    frame = tiling.frame
    lo, hi = _cell_range(frame, window)
    cartesian = _linear(embedding(frame))

    paths = []
    for idx, tile in enumerate(tiling.cell_tiles):
        ring = tile.cyclic_vertices()
        cls = classes[idx]
        for ka in range(lo[0], hi[0] + 1):
            for kb in range(lo[1], hi[1] + 1):
                pts = [cartesian(float(p[0] + ka), float(p[1] + kb)) for p in ring]
                if max(p[0] for p in pts) < x0 or min(p[0] for p in pts) > x1:
                    continue
                if max(p[1] for p in pts) < y0 or min(p[1] for p in pts) > y1:
                    continue
                d = "M " + " L ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in pts) + " Z"
                paths.append((cls, d))
    paths.sort()
    body = "\n".join(
        f'  <path class="proto-{cls}" d="{d}" fill="{PALETTE[cls % len(PALETTE)]}" '
        f'stroke="#222222" stroke-width="0.015"/>'
        for cls, d in paths
    )
    w, h = x1 - x0, y1 - y0
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(w)} {_fmt(h)}" '
        f'width="{_fmt(100 * w)}" height="{_fmt(100 * h)}">\n'
        f'<g transform="scale(1,-1)">\n{body}\n</g>\n</svg>\n'
    )


def write_svg(path: str, tiling: PeriodicTiling, window=(-3.0, -3.0, 3.0, 3.0)) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tiling_svg(tiling, window))
