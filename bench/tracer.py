"""Spans around calls into crystile's public functions, recorded from outside.

A traced run wraps each function named in ``TRACED`` and replaces it in
every loaded ``crystile`` module namespace that binds it: ``from .x import f``
copies the name, so patching the defining module alone would miss callers.
``uninstall`` puts the originals back.

Each call records one span (name, start, end, parent) in flat arrays that
stay in memory until ``dump`` writes them out.  Wrappers also keep a few
counters that need the call's context or its result (calls made inside a
Voronoi span, non-disjoint meets, patch sizes).  ``layer_metrics`` turns
the spans into the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Functions wrapped in a traced run, by module (= layer).  `rational` has no
# timed function: its arithmetic runs as operators on Q and shows up in the
# self time of linalg and polytope.  `svg` is float-only rendering.
TRACED = {
    "linalg": ("solve_linear", "mat_rank", "mat_inv", "nullspace"),
    "isometry": ("compose", "inverse"),
    "groups": (
        "preset", "validate_group", "orbit_in_ball", "conjugacy_search",
        "lattice_isometries", "is_symmorphic",
    ),
    "polytope": (
        "halfspace_intersection", "meet_face_to_face", "sq_distance_point",
        "faces", "volume", "congruent",
    ),
    "voronoi": ("voronoi_tiling", "delone_params"),
    "tiling": (
        "validate_tiling", "automorphism_group", "patch", "distance_upper_bound",
        "verify_witness", "transform_tiling", "prototiles",
    ),
    "construction": ("construct_tiling", "cone_subdivide", "generic_apex"),
    "serialize": ("tiling_from_json", "group_from_json", "tiling_to_json"),
    "cli": ("main",),
}

VORONOI_SPANS = ("voronoi.voronoi_tiling", "voronoi.delone_params")

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()
        self.enabled = True
        self._stack = []
        self._depth = Counter()
        self._patched = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def inside(self, name: str) -> bool:
        return self._depth[self._ids.get(name, -1)] > 0

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every function in TRACED wherever a crystile module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "crystile" or n.startswith("crystile."))]
        for layer, fnames in TRACED.items():
            defining = sys.modules[f"crystile.{layer}"]
            for fname in fnames:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        on_enter = _ON_ENTER.get(name)
        on_result = _ON_RESULT.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            if on_enter is not None:
                on_enter(tracer)
            stack.append(idx)
            tracer._depth[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._depth[nid] -= 1
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    # --- merging and output -------------------------------------------------

    def export(self) -> dict:
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "counters": dict(self.counters),
        }

    def merge(self, data: dict) -> None:
        """Append the spans and counters another process exported."""
        base = len(self.span_name)
        remap = [self.name_id(n) for n in data["names"]]
        self.span_name.extend(remap[i] for i in data["name"])
        self.span_parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.span_start.extend(data["start"])
        self.span_end.extend(data["end"])
        self.counters.update(data["counters"])

    def dump(self, path) -> None:
        """Write the spans as numpy arrays (.npz), which stays small for millions."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# --- counters that need the call's context or result -------------------------

def _count_in_voronoi(counter):
    def hook(tracer):
        if any(tracer.inside(n) for n in VORONOI_SPANS):
            tracer.counters[counter] += 1
    return hook


def _in_construction(counter):
    def hook(tracer):
        if tracer.inside("construction.construct_tiling"):
            tracer.counters[counter] += 1
    return hook


def _orbit_sites(tracer, result):
    if any(tracer.inside(n) for n in VORONOI_SPANS):
        tracer.counters["voronoi.orbit_sites"] += len(result.sites)


def _meet_useful(tracer, result):
    if result.kind != "disjoint":
        tracer.counters["polytope.meet_face_to_face.useful"] += 1


def _patch_tiles(tracer, result):
    tracer.counters["tiling.patch.tiles"] += len(result.tiles)


_ON_ENTER = {
    "groups.orbit_in_ball": _count_in_voronoi("voronoi.localization_rounds"),
    "polytope.halfspace_intersection": _count_in_voronoi("voronoi.bisector_cuts"),
    "construction.generic_apex": _in_construction("construction.attempts"),
    "tiling.validate_tiling": _in_construction("construction.validations"),
}
_ON_RESULT = {
    "groups.orbit_in_ball": _orbit_sites,
    "polytope.meet_face_to_face": _meet_useful,
    "tiling.patch": _patch_tiles,
}


# --- per-layer metrics ---------------------------------------------------------

def span_totals(tracer: Tracer) -> dict:
    """{name: (calls, incl_s, self_s)} from the span tree.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only outermost spans of a name, so
    recursion is not counted twice.
    """
    n = len(tracer.span_name)
    names, parents = tracer.span_name, tracer.span_parent
    dur = [tracer.span_end[i] - tracer.span_start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]
    calls, incl, self_s = Counter(), Counter(), Counter()
    for i in range(n):
        nid = names[i]
        calls[nid] += 1
        self_s[nid] += dur[i] - child[i]
        p = parents[i]
        while p >= 0 and names[p] != nid:
            p = parents[p]
        if p < 0:
            incl[nid] += dur[i]
    return {
        tracer.names[k]: (calls[k], incl[k], self_s[k]) for k in calls
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cli_startup_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; every ratio's base is listed too."""
    tot = span_totals(tracer)
    c = tracer.counters

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for f in ("solve_linear", "mat_rank", "mat_inv", "nullspace"):
        put(f"linalg.{f}.calls", calls(f"linalg.{f}"), "count")
    put("linalg.self_s", sum(self_(f"linalg.{f}") for f in TRACED["linalg"]), "s")

    put("polytope.halfspace_intersection.calls", calls("polytope.halfspace_intersection"), "count")
    put("polytope.halfspace_intersection.self_s", self_("polytope.halfspace_intersection"), "s")
    meets = calls("polytope.meet_face_to_face")
    useful = c["polytope.meet_face_to_face.useful"]
    put("polytope.meet_face_to_face.calls", meets, "count")
    put("polytope.meet_face_to_face.self_s", self_("polytope.meet_face_to_face"), "s")
    put("polytope.meet_face_to_face.useful", useful, "count")
    put("polytope.meet_face_to_face.useful_ratio", _ratio(useful, meets), "ratio")
    for f in ("sq_distance_point", "faces"):
        put(f"polytope.{f}.calls", calls(f"polytope.{f}"), "count")
        put(f"polytope.{f}.self_s", self_(f"polytope.{f}"), "s")
    put("polytope.volume.self_s", self_("polytope.volume"), "s")
    put("polytope.congruent.calls", calls("polytope.congruent"), "count")

    put("voronoi.voronoi_tiling.calls", calls("voronoi.voronoi_tiling"), "count")
    put("voronoi.voronoi_tiling.incl_s", incl("voronoi.voronoi_tiling"), "s")
    put("voronoi.voronoi_tiling.self_s", self_("voronoi.voronoi_tiling"), "s")
    put("voronoi.delone_params.incl_s", incl("voronoi.delone_params"), "s")
    put("voronoi.localization_rounds", c["voronoi.localization_rounds"], "count")
    put("voronoi.bisector_cuts", c["voronoi.bisector_cuts"], "count")
    put("voronoi.orbit_sites", c["voronoi.orbit_sites"], "count")
    put("voronoi.bisector_useful_ratio",
        _ratio(c["voronoi.bisector_cuts"], c["voronoi.orbit_sites"]), "ratio")

    put("tiling.validate_tiling.calls", calls("tiling.validate_tiling"), "count")
    put("tiling.validate_tiling.incl_s", incl("tiling.validate_tiling"), "s")
    put("tiling.validate_tiling.self_s", self_("tiling.validate_tiling"), "s")
    put("tiling.automorphism_group.calls", calls("tiling.automorphism_group"), "count")
    put("tiling.automorphism_group.incl_s", incl("tiling.automorphism_group"), "s")
    put("tiling.patch.calls", calls("tiling.patch"), "count")
    put("tiling.patch.incl_s", incl("tiling.patch"), "s")
    put("tiling.patch.tiles", c["tiling.patch.tiles"], "count")
    put("tiling.distance_upper_bound.incl_s", incl("tiling.distance_upper_bound"), "s")
    put("tiling.verify_witness.incl_s", incl("tiling.verify_witness"), "s")
    put("tiling.transform_tiling.calls", calls("tiling.transform_tiling"), "count")
    put("tiling.prototiles.incl_s", incl("tiling.prototiles"), "s")

    put("groups.preset.incl_s", incl("groups.preset"), "s")
    put("groups.validate_group.calls", calls("groups.validate_group"), "count")
    put("groups.validate_group.incl_s", incl("groups.validate_group"), "s")
    put("groups.orbit_in_ball.calls", calls("groups.orbit_in_ball"), "count")
    put("groups.orbit_in_ball.self_s", self_("groups.orbit_in_ball"), "s")
    put("groups.conjugacy_search.incl_s", incl("groups.conjugacy_search"), "s")
    put("groups.lattice_isometries.calls", calls("groups.lattice_isometries"), "count")
    put("groups.is_symmorphic.incl_s", incl("groups.is_symmorphic"), "s")

    constructs = calls("construction.construct_tiling")
    put("construction.construct_tiling.calls", constructs, "count")
    put("construction.construct_tiling.incl_s", incl("construction.construct_tiling"), "s")
    put("construction.cone_subdivide.incl_s", incl("construction.cone_subdivide"), "s")
    put("construction.generic_apex.incl_s", incl("construction.generic_apex"), "s")
    put("construction.attempts_per_job", _ratio(c["construction.attempts"], constructs), "ratio")
    put("construction.validate_per_job", _ratio(c["construction.validations"], constructs), "ratio")

    put("serialize.tiling_from_json.incl_s", incl("serialize.tiling_from_json"), "s")
    put("serialize.tiling_from_json.self_s", self_("serialize.tiling_from_json"), "s")
    put("serialize.group_from_json.incl_s", incl("serialize.group_from_json"), "s")
    put("serialize.tiling_to_json.incl_s", incl("serialize.tiling_to_json"), "s")

    put("cli.main.calls", calls("cli.main"), "count")
    put("cli.main.incl_s", incl("cli.main"), "s")
    put("cli.startup_s", cli_startup_s, "s")

    put("isometry.compose.calls", calls("isometry.compose"), "count")
    put("isometry.inverse.calls", calls("isometry.inverse"), "count")

    put("trace.spans", len(tracer.span_name), "count")
    return out
