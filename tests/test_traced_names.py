"""The benchmark's tracer wraps functions by name (bench/tracer.py, TRACED)
and fails every traced run if one is gone, so each name must stay an
attribute of its crystile module.  The workloads and the runner read more
names the same way, as cr.<module>.<name> (and io.<name>, the workloads'
alias for cr.serialize), and fail every run if one is gone."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
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


def test_benchmark_environment_reads_resolve():
    """bench/run.py's environment() reads sys.modules["numpy"] and
    crystile.rational.Q after importing crystile, and fails every run if
    numpy is not loaded then.  So a fresh `import crystile` loads numpy, and
    Q is fractions.Fraction.  ROADMAP items 4 and 5 retire this test: the
    benchmark records a missing numpy, and the package sheds it."""
    code = ("import sys, fractions; sys.path.insert(0, sys.argv[1]); import crystile; "
            "print('numpy' in sys.modules, crystile.rational.Q is fractions.Fraction)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]
