"""Realize a prescribed crystallographic group as a tiling automorphism group.

Pipeline: pick a generic orbit point, cut its certified Voronoi cell into
cones over its facets from a generic interior apex, and map the cones by
every coset representative.  Genericity (distinct apex-to-vertex distances,
disjoint from the edge lengths) breaks every symmetry the undecorated
Voronoi tiling had beyond the group itself.  The subdivision is validated
once, and Aut(result) == group is verified exactly before returning, so
the operation is self-certifying.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from operator import mul, sub

from .rational import Q
from .linalg import gram_norm2, int_dot, integral, vec, vsub
from .isometry import Isometry
from .groups import CrystalGroup, generic_point
from .polytope import ConvexPolytope, _cross, _edges, _face_indices, _reduced_facet, faces
from .tiling import PeriodicTiling, Provenance, periodic_tiling
from .voronoi import cell_with_certificate

MAX_ATTEMPTS = 8  # seeds construct_tiling tries before it gives up


class ConstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class GenericityCertificate:
    """Exact witness that an apex is generic inside a cell.

    The squared apex-to-vertex distances are pairwise distinct and
    disjoint from the squared edge lengths, all compared as rationals.
    """

    apex: tuple
    cell: ConvexPolytope
    vertex_sq_distances: tuple
    edge_sq_lengths: tuple

    def __post_init__(self):
        if not self.cell.strictly_contains(self.apex):
            raise ValueError("apex is not interior to the cell")
        vd = self.vertex_sq_distances
        if len(set(vd)) != len(vd):
            raise ValueError("apex-to-vertex distances are not pairwise distinct")
        if set(vd) & set(self.edge_sq_lengths):
            raise ValueError("an apex-to-vertex distance equals an edge length")


def certificate_for(cell: ConvexPolytope, apex) -> GenericityCertificate:
    apex = vec(apex)
    g = cell.frame.gram
    vd = tuple(gram_norm2(g, vsub(apex, v)) for v in cell.vertices)
    el = tuple(gram_norm2(g, vsub(cell.vertices[j], cell.vertices[i])) for i, j in _edges(cell))
    return GenericityCertificate(
        apex=apex, cell=cell, vertex_sq_distances=vd, edge_sq_lengths=tuple(sorted(el))
    )


def generic_apex(cell: ConvexPolytope, seed: int) -> GenericityCertificate:
    """Deterministic interior apex with an exact genericity certificate.

    Sampled as strictly positive rational convex combinations of the
    vertices; the excluded locus is a finite union of spheres and
    hyperplanes, so resampling terminates.
    """
    if cell.dim != cell.frame.dim:
        raise ValueError("cell must be full-dimensional")
    rng = random.Random(seed)
    k = len(cell.vertices)
    for attempt in range(256):
        weights = [Q(rng.randrange(1, 64 + attempt)) for _ in range(k)]
        total = sum(weights)
        apex = tuple(sum(map(mul, weights, col)) / total for col in zip(*cell.vertices))
        try:
            return certificate_for(cell, apex)
        except ValueError:
            continue
    raise ConstructionError("no generic apex found (degenerate cell?)")


def _cone(fpoly: ConvexPolytope, h, apex) -> ConvexPolytope:
    """conv(fpoly + apex) with its stored facets (see polytope): the base
    facet h, then the plane a.x >= a.apex through the apex and each ridge of
    fpoly (a ring edge in space, an endpoint in the plane), facing a vertex
    q of fpoly off that ridge, and on the line the plane -a.x >= -a.apex.
    Over D = lcm(V, e), the least common denominator of fpoly's rows and the
    apex (so the merged rows are reduced), a = +-N / k for the int cross
    product N of the apex-to-ridge differences (in the plane their
    perpendicular) and its last nonzero entry k, the sign making a.q >= a.apex."""
    d = lcm(fpoly._den, *(c.denominator for c in apex))
    x = integral(apex, d)[1]
    rows = [tuple(d // fpoly._den * c for c in p) for p in fpoly._rows]
    facets = [h]
    if fpoly.dim == 0:
        # -a.y >= -a.apex for a = A / s is (-A D, -A X) over s D
        s, (a, _) = h
        facets.append(_reduced_facet(s * d, (-a * d, -a * x[0])))
    else:
        for on, _ in _face_indices(fpoly, fpoly.dim - 1):
            u, *w = (tuple(map(sub, rows[i], x)) for i in on)
            nrm = _cross(u, w[0]) if w else (u[1], -u[0])
            k = next(c for c in reversed(nrm) if c)
            q = next(r for i, r in enumerate(rows) if i not in on)
            sign = 1 if int_dot(nrm, tuple(map(sub, q, x))) > 0 else -1
            facets.append(_reduced_facet(d * abs(k), (*(sign * d * c for c in nrm),
                                                      sign * int_dot(nrm, x))))
    return ConvexPolytope._from_rows(fpoly.frame, d, tuple(sorted((*rows, x))), tuple(facets))


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


def construct_tiling(group: CrystalGroup, seed: int) -> PeriodicTiling:
    """A simple tiling whose automorphism group is exactly the given group.

    The postcondition Aut(result) == group is verified exactly before
    returning (same lattice, same Seitz pairs mod the lattice); failed
    attempts resample with the next seed, up to MAX_ATTEMPTS seeds.  On the
    line the trivial group raises ConstructionError: two cones admit a mirror.
    """
    from .tiling import automorphism_group

    last_problem = None
    for attempt in range(MAX_ATTEMPTS):
        s = seed + attempt
        x = generic_point(group, s)
        cell, _ = cell_with_certificate(group, x)
        candidate = cone_subdivide(group, x, generic_apex(cell, s))
        aut = automorphism_group(candidate)
        if aut.frame == group.frame and aut.reps == group.reps:
            return candidate
        last_problem = (
            f"seed {s}: Aut has point order {aut.order()} over gram {aut.frame.gram}, "
            f"wanted order {group.order()} over {group.frame.gram}"
        )
    raise ConstructionError(f"verification failed after {MAX_ATTEMPTS} attempts: {last_problem}")
