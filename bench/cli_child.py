"""Bootstrap for traced CLI children: ``python3 cli_child.py SPANS_OUT VERB ARGS...``.

Installs the benchmark's wrappers before calling ``crystile.cli.main``, so a
child started through it records the same spans as an in-process run.  The
spans, the counters and the moment ``main`` was entered are written to
SPANS_OUT as JSON; the exit code is main's.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tr  # noqa: E402

import crystile.cli  # noqa: E402,F401  (loads every crystile module)


def run(out_path: str, argv: list) -> int:
    tracer = tr.Tracer()
    tracer.install()
    main_entered = tr.clock()
    try:
        return sys.modules["crystile.cli"].main(argv)
    finally:
        tracer.uninstall()
        data = tracer.export()
        data["main_entered"] = main_entered
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
