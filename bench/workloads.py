"""The four benchmark workloads: seeded inputs, fixed job lists, output checks.

Every workload is a closed loop with one client: jobs run one after another
in this process (or, for ``cli-2d``, in one child process at a time), each
starting when the previous one has finished.  Each workload's build function
(``WORKLOADS[name][0](cr, seed, ctx)``) makes the seeded inputs and returns
the job list; it is the set-up the ``setup_s`` metric times.  Jobs call crystile through module attributes
(``cr.tiling.patch``), so a traced run sees every call.

A job's ``check`` runs outside the timed region and raises ``Failed`` for an
operation that went wrong (an unexpected exception or exit code) and
``Wrong`` for a result that came back but is mathematically wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "reference_digests.json")

LN_3_2 = math.log(1.5)

# Point-group order and symmorphy of every preset (International Tables).
PRESET_TABLE = {
    "p1": (1, True), "p2": (2, True), "pm": (2, True), "pg": (2, False),
    "cm": (2, True), "pmm": (4, True), "pmg": (4, False), "pgg": (4, False),
    "cmm": (4, True), "p4": (4, True), "p4m": (8, True), "p4g": (8, False),
    "p3": (3, True), "p3m1": (6, True), "p31m": (6, True), "p6": (6, True),
    "p6m": (12, True), "P1": (1, True), "P222": (4, True), "Pm-3m": (48, True),
}
WALLPAPER = tuple(PRESET_TABLE)[:17]

# Denominators for seeded points: primes >= 7, so no coordinate is 0 or 1/2
# and points avoid the rotation centres and mirrors of p2 and P222.
PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

SQUARE_BOUNDS = 11  # metric-2d: bounds between shifts of the square tiling
DELONE_POINTS = 10  # space-3d: Delone certificates of P222


class Failed(Exception):
    """The operation did not complete as the contract says."""


class Wrong(Exception):
    """The operation completed with a wrong answer."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    """Where a workload may write, and whether CLI children are traced."""

    workdir: str
    traced: bool = False
    tracer: object = None
    cli_startup_s: float = 0.0


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def small_rational(rng, bound=Fraction(1, 5)):
    """Nonzero rational in [-bound, bound] with a prime denominator."""
    d = rng.choice(PRIMES)
    k = max(1, int(bound * d))
    return Fraction(rng.choice([n for n in range(-k, k + 1) if n]), d)


def generic_rational_point(rng, dim):
    out = []
    for _ in range(dim):
        d = rng.choice(PRIMES)
        out.append(Fraction(rng.randrange(1, d), d))
    return tuple(out)


def digest(cr, tiling) -> str:
    text = cr.serialize.dump_json(cr.serialize.tiling_to_json(tiling))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_construction(cr, group, tiling, ref_digest=None) -> None:
    """Aut(result) == group and tiles per cell == order x base-cell facets."""
    aut = cr.tiling.automorphism_group(tiling)
    if aut.frame != group.frame or aut.reps != group.reps:
        raise Wrong(f"Aut has point order {aut.order()}, wanted {group.order()}")
    base = tiling.provenance.base_cell
    facets = len(cr.polytope.faces(base, base.dim - 1))
    if len(tiling.cell_tiles) != group.order() * facets:
        raise Wrong(f"{len(tiling.cell_tiles)} tiles per cell, wanted {group.order()} x {facets}")
    if ref_digest is not None and digest(cr, tiling) != ref_digest:
        raise Wrong("tiling JSON differs from the reference digest")


# --- construct-2d -------------------------------------------------------------

def construct_2d(cr, seed, ctx):
    """construct_tiling(preset(g), seed) for all 17 wallpaper groups.

    For seeds 0-9 the tiling JSON must also match the digests in
    reference_digests.json, recorded when this benchmark was defined, so any
    change to the constructed tilings' bytes shows as a wrong answer.
    """
    for name in cr.groups.PRESET_NAMES:
        cr.groups.preset(name)
    with open(DIGESTS, encoding="utf-8") as fh:
        refs = json.load(fh).get("construct-2d", {}).get(str(seed), {})
    jobs = []
    for g in WALLPAPER:
        group = cr.groups.preset(g)
        jobs.append(Job(
            f"construct {g}",
            lambda g=g: cr.construction.construct_tiling(cr.groups.preset(g), seed),
            lambda t, group=group, g=g: check_construction(cr, group, t, refs.get(g)),
        ))
    return jobs


# --- space-3d -------------------------------------------------------------------

def check_delone(cr, group, x, cert) -> None:
    """The minimum orbit distance agrees with a brute-force scan."""
    g = group.frame.gram
    best = None
    for m, v in group.reps:
        base = [sum(m[i][j] * x[j] for j in range(3)) + v[i] for i in range(3)]
        for k in _box(3, 2):
            d = [base[i] + k[i] - x[i] for i in range(3)]
            if any(d):
                n2 = _gram_norm2(g, d)
                best = n2 if best is None else min(best, n2)
    if cert.min_sq_distance != best:
        raise Wrong(f"min_sq_distance {cert.min_sq_distance}, brute force {best}")
    if not 0 < cert.min_sq_distance <= 4 * cert.covering_sq_radius:
        raise Wrong("packing radius exceeds covering radius")


def check_patch(cr, tiling, center, r2, result) -> None:
    """Distinct lattice translates of cell tiles, one of them holding the centre."""
    cells = set(tiling.cell_tiles)
    keys = [t.vertices for t in result.tiles]
    if not keys or len(set(keys)) != len(keys):
        raise Wrong("patch is empty or repeats a tile")
    if any(cr.tiling.canonical_tile(t) not in cells for t in result.tiles):
        raise Wrong("patch tile is not a translate of a cell tile")
    if not any(t.contains(center) for t in result.tiles):
        raise Wrong("no patch tile contains the centre")


def space_3d(cr, seed, ctx):
    """P1 construction, one patch of it, and Delone certificates of P222.

    Ten one-second Delone jobs next to the two long ones make twelve jobs,
    so job_s.tail is the second fastest rather than an extreme.
    """
    for name in cr.groups.PRESET_NAMES:
        cr.groups.preset(name)
    rng = rng_for("space-3d", seed)
    center = generic_rational_point(rng, 3)
    points = [generic_rational_point(rng, 3) for _ in range(DELONE_POINTS)]
    p1, p222 = cr.groups.preset("P1"), cr.groups.preset("P222")
    built = {}

    def construct():
        built["P1"] = cr.construction.construct_tiling(cr.groups.preset("P1"), seed)
        return built["P1"]

    def one_patch():
        if "P1" not in built:
            raise Failed("P1 construction is missing")
        return cr.tiling.patch(built["P1"], center, 1)

    jobs = [
        Job("construct P1", construct, lambda t: check_construction(cr, p1, t)),
        Job("patch P1 r2=1", one_patch, lambda p: check_patch(cr, built["P1"], center, 1, p)),
    ]
    for x in points:
        jobs.append(Job(
            "delone P222",
            lambda x=x: cr.voronoi.delone_params(cr.groups.preset("P222"), x),
            lambda c, x=x: check_delone(cr, p222, x, c),
        ))
    return jobs


# --- metric-2d -------------------------------------------------------------------

def check_bound(bound, verified) -> None:
    """The witness re-verifies and upper = min(ln 3/2, log1p(1/r))."""
    if not verified:
        raise Wrong("witness did not re-verify")
    if bound.witness is None:
        raise Wrong("no witness for distinct tilings")
    r = bound.witness[2]
    if not r > 0:
        raise Wrong(f"witness radius {r} is not positive")
    want = min(LN_3_2, math.log1p(1.0 / float(r)))
    if abs(bound.upper - want) > 1e-12:
        raise Wrong(f"upper {bound.upper} but witness radius gives {want}")


def order_keeping_shift(rng, tiling):
    """Seeded shift of at most 1/5 per coordinate that keeps every canonical
    cell tile's least vertex inside [0,1)^n, so the tiles keep their order.

    distance_upper_bound's default candidates anchor on the first canonical
    tile of each tiling; a shift that reorders the tiles leaves them without
    the shift's own witness, and composition then has nothing to compose.
    """
    out = []
    for i in range(tiling.dim):
        first = [t.vertices[0][i] for t in tiling.cell_tiles]
        lo, hi = max(-min(first), Fraction(-1, 5)), min(1 - max(first), Fraction(1, 5))
        steps = (lo + Fraction(k, 10) * (hi - lo) for k in range(1, 10))
        out.append(rng.choice([u for u in steps if u != 0]))
    return tuple(out)


def metric_2d(cr, seed, ctx):
    """Distance witnesses on seeded shifts of the square tiling and of a p2 Voronoi tiling.

    The square tiling is shifted SQUARE_BOUNDS + 1 times, S_0 ... S_n.  Job k
    bounds d(S_k-1, S_k) and, from k = 2 on, composes that witness with the
    previous one into a witness for (S_k-2, S_k); every job does the same
    kind of work.  Shifts stay within 1/5 per coordinate so all radii exceed
    2, which composition requires.  One bound on a shifted Voronoi tiling
    closes the list.
    """
    rng = rng_for("metric-2d", seed)
    frame = cr.isometry.standard_frame(2)
    square = cr.tiling.periodic_tiling(
        frame, [cr.polytope.ConvexPolytope(frame, [(0, 0), (1, 0), (0, 1), (1, 1)])])
    voronoi = cr.voronoi.voronoi_tiling(cr.groups.preset("p2"), generic_rational_point(rng, 2))

    def shifted(t, tau):
        return cr.tiling.transform_tiling(t, cr.isometry.translation_iso(frame, tau))

    def bound(a, b):
        out = cr.tiling.distance_upper_bound((0, 0), a, b)
        return out, cr.tiling.verify_witness(out)

    shifts = [order_keeping_shift(rng, square)]
    while len(shifts) <= SQUARE_BOUNDS:
        tau = order_keeping_shift(rng, square)
        if tau != shifts[-1]:
            shifts.append(tau)
    chain = [shifted(square, tau) for tau in shifts]
    witnesses = {}

    def chain_job(k):
        out = bound(chain[k - 1], chain[k])
        witnesses[k] = out[0]
        if k == 1:
            return out, None
        if k - 1 not in witnesses:
            raise Failed("the previous witness of the chain is missing")
        return out, cr.tiling.combine_witnesses(witnesses[k - 1], out[0])

    def check_chain(result):
        out, combined = result
        check_bound(*out)
        if combined is not None:
            check_bound(combined, cr.tiling.verify_witness(combined))

    jobs = [Job(f"bound square{k}", lambda k=k: chain_job(k), check_chain)
            for k in range(1, SQUARE_BOUNDS + 1)]
    v1 = shifted(voronoi, order_keeping_shift(rng, voronoi))
    jobs.append(Job("bound voronoi", lambda: bound(voronoi, v1), lambda out: check_bound(*out)))
    return jobs


# --- cli-2d ---------------------------------------------------------------------

def _box(dim, w):
    if dim == 0:
        yield ()
        return
    for rest in _box(dim - 1, w):
        for k in range(-w, w + 1):
            yield rest + (k,)


def _gram_norm2(g, d):
    return sum(g[i][j] * d[i] * d[j] for i in range(len(d)) for j in range(len(d)))


def brute_orbit_count(group, x, r2) -> int:
    """Orbit points within r2 of x, by scanning a box of lattice translates."""
    g = group.frame.gram
    # |x - (Mx + v)| < 3 per coordinate for x in [0,1)^2, and the ball's
    # half-width sqrt(r2 (G^-1)_ii) is below 2 sqrt(r2) in both frames.
    w = 4 + math.isqrt(int(4 * r2))
    sites = set()
    for m, v in group.reps:
        base = tuple(sum(m[i][j] * x[j] for j in range(2)) + v[i] for i in range(2))
        for k in _box(2, w):
            s = (base[0] + k[0], base[1] + k[1])
            if _gram_norm2(g, (s[0] - x[0], s[1] - x[1])) <= r2:
                sites.add(s)
    return len(sites)


class CliRun:
    """One child process running one CLI verb."""

    def __init__(self, ctx, argv):
        self.ctx, self.argv = ctx, argv

    def __call__(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        if self.ctx.traced:
            spans = os.path.join(self.ctx.workdir, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans, *self.argv]
        else:
            cmd = [sys.executable, "-m", "crystile.cli", *self.argv]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        if self.ctx.traced:
            with open(spans, encoding="utf-8") as fh:
                data = json.load(fh)
            self.ctx.cli_startup_s += data.pop("main_entered") - started
            self.ctx.tracer.merge(data)
            os.remove(spans)
        return proc


def expect(code, *, stderr_has=None):
    def decorator(check_output):
        def check(proc):
            if proc.returncode != code:
                raise Failed(f"exit {proc.returncode}, contract says {code}: "
                             f"{proc.stderr.strip()[-200:]}")
            if stderr_has and stderr_has not in proc.stderr:
                raise Failed(f"stderr lacks {stderr_has!r}")
            if check_output is not None:
                try:
                    data = json.loads(proc.stdout)
                except json.JSONDecodeError as exc:
                    raise Wrong(f"stdout is not JSON: {exc}") from exc
                check_output(data)
        return check
    return decorator


def cli_2d(cr, seed, ctx):
    """CLI verbs in fresh child processes on files written here.

    Five of the eighteen jobs are rejections that must exit 2: a sheared
    group and tilings with a gap, an overlap or offset rows (each with
    violation lines on stderr), and a truncated JSON file.
    """
    rng = rng_for("cli-2d", seed)
    io = cr.serialize
    frame = cr.isometry.standard_frame(2)
    poly = cr.polytope.ConvexPolytope

    def write(name, obj):
        path = os.path.join(ctx.workdir, name)
        io.write_json_file(path, obj)
        return path

    def tiling_file(name, tiles, validate=True):
        t = cr.tiling.periodic_tiling(frame, tiles, validate=validate)
        return write(name, io.tiling_to_json(t))

    def shifted_square(tau):
        return poly(frame, [(tau[0] + a, tau[1] + b) for a in (0, 1) for b in (0, 1)])

    tau_a = (small_rational(rng), small_rational(rng))
    tau_b = (small_rational(rng), small_rational(rng))
    sq = tiling_file("square.json", [shifted_square((0, 0))])
    sq_a = tiling_file("square_a.json", [shifted_square(tau_a)])
    sq_b = tiling_file("square_b.json", [shifted_square(tau_b)])
    k = rng.randint(1, 3)
    rhomb = tiling_file("rhomb.json", [poly(frame, [(0, 0), (1, 0), (1 + k, 1), (k, 1)])])
    h = Fraction(1, 2)
    half = tiling_file("half.json", [
        poly(frame, [(a + tau_b[0] + da, b + tau_b[1] + db) for da in (0, h) for db in (0, h)])
        for a in (0, h) for b in (0, h)])

    # Two constructions of one square-lattice group: Aut is that group for
    # both, so they are MLD and LD with covering_sq 1/2.
    g_c = rng.choice(("p2", "pm", "pg", "cm"))
    built_a, built_b = (cr.construction.construct_tiling(cr.groups.preset(g_c), seed + i)
                        for i in (0, 1))
    cons_a = write("constructed_a.json", io.tiling_to_json(built_a))
    cons_b = write("constructed_b.json", io.tiling_to_json(built_b))

    g_v = rng.choice(WALLPAPER)
    group_ok = write("group.json", io.group_to_json(cr.groups.preset(g_v)))
    group_bad = write("shear.json", {
        "dim": 2, "gram": [[1, 0], [0, 1]],
        "reps": [{"linear": [[1, rng.randint(1, 3)], [0, 1]], "translation": [0, 0]}]})

    w = Fraction(rng.randint(1, 6), 7)
    gap = tiling_file("gap.json", [poly(frame, [(0, 0), (w, 0), (0, 1), (w, 1)])], validate=False)
    c, e = Fraction(rng.randint(2, 5), 7), Fraction(1, rng.choice(PRIMES))
    overlap = tiling_file("overlap.json", [
        poly(frame, [(0, 0), (c, 0), (0, 1), (c, 1)]),
        poly(frame, [(c - e, 0), (1 - e, 0), (c - e, 1), (1 - e, 1)])], validate=False)
    a = Fraction(rng.randint(1, 6), 7)
    offset = tiling_file("offset.json", [poly(frame, [(0, 0), (1, 0), (a, 1), (1 + a, 1)])],
                         validate=False)
    with open(sq, encoding="utf-8") as fh:
        text = fh.read()
    malformed = os.path.join(ctx.workdir, "malformed.json")
    with open(malformed, "w", encoding="utf-8") as fh:
        fh.write(text[: rng.randint(1, len(text) - 3)])

    g_o = rng.choice(WALLPAPER)
    o_group = cr.groups.preset(g_o)
    o_point = generic_rational_point(rng, 2)
    o_r2 = Fraction(rng.randint(2, 8), 4)
    o_count = brute_orbit_count(o_group, o_point, o_r2)

    def vec_arg(v):
        return ",".join(str(x) for x in v)

    def job(name, argv, check):
        return Job(name, CliRun(ctx, argv), check)

    @expect(0)
    def preset_list(data):
        got = {p["name"]: (p["point_group_order"], p["symmorphic"]) for p in data["presets"]}
        if got != PRESET_TABLE:
            raise Wrong("preset-list disagrees with the International Tables")

    def order_is(n):
        @expect(0)
        def check(data):
            if data["point_group_order"] != n:
                raise Wrong(f"point_group_order {data['point_group_order']}, wanted {n}")
        return check

    def mld_is(gamma, translation):
        @expect(0)
        def check(data):
            if (data["gamma"] is not None) != gamma or data["translation_mld"] != translation:
                raise Wrong(f"mld verdict {data}, wanted gamma={gamma} translation={translation}")
        return check

    @expect(0)
    def group_ok_check(data):
        if len(data["reps"]) != PRESET_TABLE[g_v][0]:
            raise Wrong(f"{len(data['reps'])} reps, wanted {PRESET_TABLE[g_v][0]}")

    @expect(0)
    def ld_check(data):
        if data["ld"] is not True or Fraction(data["covering_sq"]) != Fraction(1, 2):
            raise Wrong(f"ld verdict {data}, wanted ld with covering_sq 1/2")

    @expect(0)
    def orbit_check(data):
        if data["count"] != o_count or len(data["sites"]) != o_count:
            raise Wrong(f"orbit count {data['count']}, brute force {o_count}")

    rejected = expect(2, stderr_has="violation:")(None)
    return [
        job("preset-list", ["preset-list"], preset_list),
        job("validate-group", ["validate-group", group_ok], group_ok_check),
        job("validate-group shear", ["validate-group", group_bad], rejected),
        job("aut constructed a", ["aut", cons_a], order_is(PRESET_TABLE[g_c][0])),
        job("aut constructed b", ["aut", cons_b], order_is(PRESET_TABLE[g_c][0])),
        job("aut square", ["aut", sq_a], order_is(8)),
        job("aut rhomb", ["aut", rhomb], order_is(2)),
        job("mld constructed", ["mld", cons_a, cons_b], mld_is(True, True)),
        job("mld square-square", ["mld", sq_a, sq_b], mld_is(True, True)),
        job("mld square-rhomb", ["mld", sq_a, rhomb], mld_is(False, True)),
        job("mld square-half", ["mld", sq, half], mld_is(False, False)),
        job("ld rhomb-square", ["ld", rhomb, sq], ld_check),
        job("ld constructed", ["ld", cons_a, cons_b], ld_check),
        job("orbit", ["orbit", "--group", g_o, "--point", vec_arg(o_point),
                      "--radius2", str(o_r2)], orbit_check),
        job("aut gap", ["aut", gap], rejected),
        job("aut overlap", ["aut", overlap], rejected),
        job("aut offset", ["aut", offset], rejected),
        job("aut malformed", ["aut", malformed], expect(2)(None)),
    ]


WORKLOADS = {
    # name: (build, nominal seconds per pass on the reference machine, in-process)
    "construct-2d": (construct_2d, 18.0, True),
    "cli-2d": (cli_2d, 12.0, False),
    "metric-2d": (metric_2d, 24.0, True),
    "space-3d": (space_3d, 24.0, True),
}
