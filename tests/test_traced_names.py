"""The benchmark's tracer wraps functions by name (bench/tracer.py, TRACED)
and fails every traced run if one is gone, so each name must stay an
attribute of its crystile module.  The workloads and the runner read more
names the same way, as cr.<module>.<name> (and io.<name>, the workloads'
alias for cr.serialize), and fail every run if one is gone."""

import importlib
import importlib.util
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"crystile.{layer}"), name, None))]
    assert tracer.TRACED and missing == []


def test_benchmark_names_resolve():
    read = {m.groups() for f in ("workloads.py", "run.py")
            for m in re.finditer(r"\bcr\.(\w+)\.(\w+)", (BENCH / f).read_text())}
    aliased = {("serialize", m.group(1))
               for m in re.finditer(r"\bio\.(\w+)", (BENCH / "workloads.py").read_text())}
    missing = [f"{layer}.{name}" for layer, name in sorted(read | aliased)
               if not hasattr(importlib.import_module(f"crystile.{layer}"), name)]
    assert len(read) >= 20 and len(aliased) >= 3 and missing == []
