"""Quick self-test of the benchmark: ``python3 -m pytest -q bench/test_bench.py``.

Runs ``run.main`` on one small job per workload and checks the result line
against BENCHMARK.json: metric names, units and the JSON schema.  Checks
that every ``calls`` counter repeats exactly across two traced runs, and
pins the number of ``meet_face_to_face`` calls made when validating the p4m
construction at seed 0, so a change in the amount of validation work fails
loudly.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, wl.SRC)

with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# One small job per workload, picked by name from its job list.
SMALL_JOB = {
    "construct-2d": "construct p1",
    "cli-2d": "aut square",
    "metric-2d": "bound square1",
    "space-3d": "delone P222",
}

P4M_SEED0_MEETS = 284


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to its small job."""
    for name, (build, nominal, in_process) in list(wl.WORKLOADS.items()):
        def only(cr, seed, ctx, build=build, name=name):
            return [next(j for j in build(cr, seed, ctx) if j.name == SMALL_JOB[name])]
        monkeypatch.setitem(wl.WORKLOADS, name, (only, nominal, in_process))


def result_of(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def check_schema(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert set(v) == {"value", "unit"} and isinstance(v["value"], (int, float))


def test_spec_lists_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMALL_JOB))
def test_small_job_end_to_end(small, capsys, workload):
    result = result_of(capsys, workload, 0)
    check_schema(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["construct-2d", "cli-2d"])
def test_traced_calls_repeat(small, capsys, workload):
    first = result_of(capsys, workload, 1)
    second = result_of(capsys, workload, 1)
    check_schema(first, SPEC["per_layer"])
    calls = [k for k in first["metrics"] if k.endswith(".calls")]
    assert calls
    assert {k: first["metrics"][k]["value"] for k in calls} == \
        {k: second["metrics"][k]["value"] for k in calls}


def test_p4m_validation_meet_count():
    cr = run.load_crystile(fresh=False)
    tiling = cr.construction.construct_tiling(cr.groups.preset("p4m"), 0)
    counts = []
    for _ in range(2):
        tracer = tr.Tracer()
        tracer.install()
        try:
            assert cr.tiling.validate_tiling(tiling) == []
        finally:
            tracer.uninstall()
        counts.append(tr.span_totals(tracer)["polytope.meet_face_to_face"][0])
    assert counts == [P4M_SEED0_MEETS] * 2
