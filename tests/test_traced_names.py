"""The benchmark's tracer wraps functions by name (bench/tracer.py, TRACED)
and fails every traced run if one is gone, so each name must stay an
attribute of its crystile module."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"crystile.{layer}"), name, None))]
    assert tracer.TRACED and missing == []
