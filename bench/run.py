"""crystile benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout; crystile is imported from ``src/``.
The workloads are described in ``workloads.py``.  ``--seconds`` sizes the
fixed job list: the workload's pass (its job list) is repeated
floor(S / nominal pass time) times, at least once, so every run of a seed
does identical work and a faster program finishes sooner.

``--trace 0`` prints the end-to-end metrics:

  setup_s      median of three set-ups (import crystile afresh, warm the
               preset catalog for in-process workloads, make the inputs)
  wall_s       median over passes of the summed job times
  job_s.p50    median job time
  job_s.tail   the highest percentile of job time with at least ten jobs
               beyond it (nearest rank); the maximum when there are ten or
               fewer jobs
  peak_rss_mb  peak resident memory (of the CLI children for cli-2d)
  ok_share     share of attempted jobs that passed their output check;
               failed_share = 1 - ok_share, and `failed`/`attempted` carry
               the counts

Times of the in-process workloads are in reference seconds: each measured
time is divided by the machine's slowness, probed just before and after it
with a fixed exact-rational loop that runs no crystile code
(``reference_loop``).  On a shared 2-vCPU host the speed swings by up to 2x
within seconds; the probe takes most of that out.  cli-2d times are not
scaled: they are mostly process start-up, which the probe does not track.
The unscaled times and every probe are recorded in the environment line.

``--trace 1`` runs one untraced pass, then the same pass with every function
in ``tracer.TRACED`` wrapped, and prints the per-layer metrics plus the
tracing overhead (traced minus untraced wall time).

A failed job (unexpected exception or exit code, or a wrong answer) counts
in `failed`; `correct` is false when some job returned a wrong answer.  Jobs
still pending 150 s after start are not run and count as failed, so a run
always ends within the driver's limit.  The last stdout line is the result
JSON; the line before it records the environment and job counts, which are
also written with the per-layer rows to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from types import SimpleNamespace

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# One thread per process: numpy's BLAS would otherwise start a thread pool in
# this process and in every CLI child, which competes for the two CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Stay on one CPU (CLI children inherit it): the two vCPUs of the reference
# host often run at different speeds, and a job that migrates between them
# cannot be scaled by speed probes taken before and after it.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

OUT_DIR = os.path.join(wl.ROOT, ".bench_out")
MODULES = ("rational", "linalg", "isometry", "groups", "polytope", "voronoi",
           "tiling", "construction", "serialize", "cli")
SETUP_REPEATS = 3
TIME_CAP_S = 150.0
REF_ROUNDS = 100
REF_IDLE_S = 0.020   # reference_loop() on the reference machine when idle


def load_crystile(fresh: bool):
    """Import every crystile module; with fresh, drop loaded ones first."""
    if fresh:
        for name in [n for n in sys.modules if n == "crystile" or n.startswith("crystile.")]:
            del sys.modules[name]
    importlib.import_module("crystile")
    return SimpleNamespace(**{m: importlib.import_module(f"crystile.{m}") for m in MODULES})


def set_up(name, seed, ctx, repeats, scaled):
    """Run the set-up `repeats` times; return the last job list and, for each
    set-up, its duration and the slowness probed right after it."""
    build = wl.WORKLOADS[name][0]
    times = []
    for i in range(repeats):
        t0 = START if i == 0 else time.perf_counter()
        cr = load_crystile(fresh=i > 0)
        jobs = build(cr, seed, ctx)
        times.append((time.perf_counter() - t0, slowness() if scaled else 1.0))
    return cr, jobs, times


class Tally:
    def __init__(self):
        self.times, self.pass_times = [], []  # reference seconds when scaled
        self.raw_times, self.raw_pass_times, self.slowness = [], [], []
        self.attempted = self.failed = self.wrong = 0
        self.problems = []

    def record_problem(self, job, kind, msg):
        self.failed += 1
        if kind == "wrong":
            self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(f"{job.name}: {kind}: {msg}")


def reference_loop() -> float:
    """Seconds taken by a fixed exact-rational loop (fraction Gauss-Jordan rank).

    It runs no crystile code, so a change to crystile cannot move it; only the
    machine's speed at that moment can.
    """
    t0 = time.perf_counter()
    for r in range(REF_ROUNDS):
        m = [[Fraction((i * 7 + j * 3 + r) % 11 - 5, (i + j + r) % 7 + 1) for j in range(4)]
             for i in range(4)]
        rank = 0
        for col in range(4):
            piv = next((i for i in range(rank, 4) if m[i][col] != 0), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            for i in range(4):
                if i != rank and m[i][col] != 0:
                    f = m[i][col] / m[rank][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
            rank += 1
    return time.perf_counter() - t0


def slowness() -> float:
    """How much slower the machine runs now than the reference machine idle."""
    return statistics.median(reference_loop() for _ in range(5)) / REF_IDLE_S


def run_pass(jobs, tally, scaled, tracer=None):
    """Run the job list once, in order; checks, gc and speed probes sit outside
    the timed region.  When scaled, each job's time is divided by the mean
    slowness probed just before and just after it."""
    probe = slowness if scaled else (lambda: 1.0)
    raw, slow = [], []
    for job in jobs:
        gc.collect()
        tally.attempted += 1
        if time.perf_counter() - START > TIME_CAP_S:
            tally.record_problem(job, "failed", "not run: time cap reached")
            continue
        slow.append(probe())
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = job.run()
            err = None
        except Exception as exc:  # a job's failure is a result, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        if err is not None:
            tally.record_problem(job, "failed", err)
            continue
        try:
            job.check(out)
        except wl.Wrong as exc:
            tally.record_problem(job, "wrong", str(exc))
        except Exception as exc:  # Failed, or a check that could not run
            tally.record_problem(job, "failed", f"{type(exc).__name__}: {exc}")
    slow.append(probe())
    times = [dt * 2 / (slow[i] + slow[i + 1]) for i, dt in enumerate(raw)]
    tally.raw_times += raw
    tally.times += times
    tally.slowness += slow
    tally.pass_times.append(sum(times))
    tally.raw_pass_times.append(sum(raw))


def tail(times):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    q = (100 * (n - 10)) // n
    rank = max(1, math.ceil(q * n / 100))
    return xs[rank - 1], q


def environment(cr, args, jobs, passes, children):
    q = cr.rational.Q
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "passes": passes,
        "backend": f"{q.__module__}.{q.__name__}",
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cli_children": children,
    }


def write_rows(env, rows):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"BENCH_{env['workload']}_seed{env['seed']}_trace{env['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "rows": rows, "claim": None}, fh, indent=1)


def row(env, name, kind, wall_s, counters):
    return {"name": name, "kind": kind, "wall_s": wall_s, "counters": counters,
            "backend": env["backend"], "python": env["python"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(wl.SRC, "crystile")):
        print(f"crystile sources not found under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, wl.SRC)

    _, nominal, in_process = wl.WORKLOADS[args.workload]
    passes = 1 if args.trace else max(1, int(args.seconds // nominal))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        ctx = wl.Context(workdir=workdir)
        repeats = 1 if args.trace else SETUP_REPEATS
        cr, jobs, setup_times = set_up(args.workload, args.seed, ctx, repeats, in_process)
        tally = Tally()
        for _ in range(passes):
            run_pass(jobs, tally, in_process)
        env = environment(cr, args, jobs, passes, not in_process)
        if args.trace:
            metrics, rows = traced(jobs, ctx, tally, env, in_process)
        else:
            metrics, rows = end_to_end(tally, setup_times, in_process, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_rows(env, rows)
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(env))
    print(json.dumps(result(tally, metrics)))
    return 0


def result(tally, metrics) -> dict:
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end(tally, setup_times, in_process, env):
    value, q = tail(tally.times)
    raw_tail, _ = tail(tally.raw_times)
    env.update(
        job_samples=len(tally.times), tail_percentile=q,
        failed_share=tally.failed / tally.attempted,
        setup_samples=[{"s": t, "slowness": k} for t, k in setup_times],
        slowness_samples=tally.slowness,
        raw_job_s=tally.raw_times,
        unscaled={
            "setup_s": statistics.median(t for t, _ in setup_times),
            "wall_s": statistics.median(tally.raw_pass_times),
            "job_s.p50": statistics.median(tally.raw_times),
            "job_s.tail": raw_tail,
        },
    )
    metrics = {
        "setup_s": (statistics.median(t / k for t, k in setup_times), "s"),
        "wall_s": (statistics.median(tally.pass_times), "s"),
        "job_s.p50": (statistics.median(tally.times), "s"),
        "job_s.tail": (value, "s"),
        "peak_rss_mb": (wl.peak_rss_mb(children=not in_process), "MiB"),
        "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    rows = [row(env, env["workload"], "e2e", metrics["wall_s"][0],
                {k: v for k, (v, _) in metrics.items()})]
    return metrics, rows


def traced(jobs, ctx, tally, env, scaled):
    """Repeat the pass with tracing on; per-layer metrics and the overhead."""
    untraced = sum(tally.pass_times)
    tracer = tr.Tracer()
    tracer.install()
    tracer.enabled = False
    ctx.traced, ctx.tracer = True, tracer
    traced_tally = Tally()
    try:
        run_pass(jobs, traced_tally, scaled, tracer)
    finally:
        tracer.uninstall()
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.wrong += traced_tally.wrong
    tally.problems += traced_tally.problems
    traced_wall = sum(traced_tally.pass_times)
    metrics = tr.layer_metrics(tracer, ctx.cli_startup_s)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    tracer.dump(os.path.join(OUT_DIR, f"spans_{env['workload']}_seed{env['seed']}.npz"))
    rows = []
    for layer in MODULES:
        counters = {k: v for k, (v, _) in metrics.items() if k.startswith(layer + ".")}
        busy = sum(v for k, v in counters.items() if k.endswith(".self_s"))
        rows.append(row(env, layer, "layer", busy, counters))
    return metrics, rows


if __name__ == "__main__":
    sys.exit(main())
