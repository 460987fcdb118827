"""Realize a prescribed crystallographic group as a tiling automorphism group.

Pipeline: pick a generic orbit point, cut its certified Voronoi cell into
cones over its facets from a generic interior apex, and map the cones by
every coset representative.  Genericity (distinct apex-to-vertex distances,
disjoint from the edge lengths) breaks every symmetry the undecorated
Voronoi tiling had beyond the group itself.  The subdivision is validated
once, and Aut(result) == group is verified exactly before returning, so
the operation is self-certifying.

Every step runs on int forms: the generic point's stabilizer test, the
Voronoi localization (voronoi), the apex, formed from the cell's vertex
rows, and its certificate, whose squared distances are y.(EG)y over the
frame's integer Gram (isometry.int_gram), one Q each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from operator import sub

from .rational import Q
from .linalg import int_dot, int_mat_vec, integral, vec
from .isometry import int_gram
from .groups import CrystalGroup, generic_point
from .polytope import ConvexPolytope, _cross, _edges, _face_indices, _reduced_facet, faces
from .tiling import PeriodicTiling, Provenance, _rep_images, automorphism_group, periodic_tiling
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
    """The certificate of apex in cell, its distances read off the cell's
    vertex rows P over V: over D = lcm(V, e), e the apex's least common
    denominator, y = (D / V) P - D apex gives E D^2 |v - apex|^2 = y.(EG)y
    (isometry.int_gram), and an edge's y = P_j - P_i gives E V^2 times its
    squared length; each distance is one Q."""
    apex = vec(apex)
    e, eg = int_gram(cell.frame)
    vden, rows = cell._den, cell._rows
    big = lcm(vden, *(c.denominator for c in apex))
    a, xs = big // vden, integral(apex, big)[1]

    def sq(y):
        return int_dot(y, int_mat_vec(eg, y))

    vd = tuple(Q(sq([a * p - x for p, x in zip(row, xs)]), e * big * big) for row in rows)
    el = tuple(Q(sq(tuple(map(sub, rows[j], rows[i]))), e * vden * vden) for i, j in _edges(cell))
    return GenericityCertificate(
        apex=apex, cell=cell, vertex_sq_distances=vd, edge_sq_lengths=tuple(sorted(el))
    )


def generic_apex(cell: ConvexPolytope, seed: int) -> GenericityCertificate:
    """Deterministic interior apex with an exact genericity certificate.

    Sampled as strictly positive rational convex combinations of the
    vertices; the excluded locus is a finite union of spheres and
    hyperplanes, so resampling terminates.  For int weights w_i and the
    vertex rows P_i over V the apex is sum w_i P_i / (V sum w_i), one Q per
    coordinate.
    """
    if cell.dim != cell.frame.dim:
        raise ValueError("cell must be full-dimensional")
    rng = random.Random(seed)
    rows = cell._rows
    for attempt in range(256):
        weights = [rng.randrange(1, 64 + attempt) for _ in rows]
        total = cell._den * sum(weights)
        apex = tuple(Q(int_dot(weights, col), total) for col in zip(*rows))
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
    validation, the one check that the cell's images tile space.  The cones
    are moved by the reps as the Voronoi cell is (tiling._rep_images).
    """
    base_point = vec(base_point)
    base = cert.cell
    if not base.strictly_contains(base_point):
        raise ValueError("the certificate's cell does not hold the base point strictly inside")
    cones = [_cone(f, h, cert.apex) for h, f in zip(base._facets, faces(base, base.dim - 1))]
    prov = Provenance(kind="cone_subdivision", group=group, base_point=base_point, base_cell=base,
                      apex=cert.apex)
    return periodic_tiling(group.frame, _rep_images(group, cones), provenance=prov, validate=True)


def construct_tiling(group: CrystalGroup, seed: int) -> PeriodicTiling:
    """A simple tiling whose automorphism group is exactly the given group.

    The postcondition Aut(result) == group is verified exactly before
    returning (same lattice, same Seitz pairs mod the lattice); failed
    attempts resample with the next seed, up to MAX_ATTEMPTS seeds.  On the
    line the trivial group raises ConstructionError: two cones admit a mirror.
    """
    last_problem = None
    for attempt in range(MAX_ATTEMPTS):
        s = seed + attempt
        x = generic_point(group, s)
        cell, _ = cell_with_certificate(group, x)
        candidate = cone_subdivide(group, x, generic_apex(cell, s))
        aut = automorphism_group(candidate)
        if aut == group:
            return candidate
        last_problem = (
            f"seed {s}: Aut has point order {aut.order()} over gram {aut.frame.gram}, "
            f"wanted order {group.order()} over {group.frame.gram}"
        )
    raise ConstructionError(f"verification failed after {MAX_ATTEMPTS} attempts: {last_problem}")
